#include "crypto/aead.hpp"

#include "common/error.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"

namespace emergence::crypto {
namespace {

constexpr std::size_t kNonceSize = 12;
constexpr std::size_t kTagSize = 32;

struct DerivedKeys {
  std::array<std::uint8_t, 32> enc;
  HmacKey mac;
};

/// HKDF-SHA256(salt = none, ikm = key, info = "emergence/aead/v1" || cipher
/// id, L = 64): T1 is the encryption key, T2 the MAC key. Spelled out over
/// HmacKey so the all-zero-salt pads are absorbed once per process and the
/// PRK's once per call.
DerivedKeys derive_keys(const SymmetricKey& key) {
  static const HmacKey zero_salt(std::array<std::uint8_t, 32>{});
  static constexpr std::array<std::uint8_t, 18> info = {
      'e', 'm', 'e', 'r', 'g', 'e', 'n', 'c', 'e',
      '/', 'a', 'e', 'a', 'd', '/', 'v', '1', kChaCha20CipherId};

  const HmacKey prk(zero_salt.mac(key.bytes));
  Sha256 h = prk.begin();
  h.update(info);
  const std::uint8_t one = 1, two = 2;
  h.update(BytesView(&one, 1));
  const HmacKey::Tag t1 = prk.finish(h);

  h = prk.begin();
  h.update(t1);
  h.update(info);
  h.update(BytesView(&two, 1));
  return DerivedKeys{t1, HmacKey(prk.finish(h))};
}

/// HMAC(mac_key, nonce || u64le(aad_len) || aad || body), streamed.
HmacKey::Tag compute_tag(const HmacKey& mac_key, BytesView nonce,
                         BytesView aad, BytesView body) {
  std::array<std::uint8_t, 8> aad_len;
  for (std::size_t i = 0; i < 8; ++i)
    aad_len[i] = static_cast<std::uint8_t>(aad.size() >> (8 * i));
  Sha256 h = mac_key.begin();
  h.update(nonce);
  h.update(aad_len);
  h.update(aad);
  h.update(body);
  return mac_key.finish(h);
}

void apply_stream(const std::array<std::uint8_t, 32>& enc_key, BytesView nonce,
                  std::span<std::uint8_t> data) {
  std::array<std::uint8_t, kNonceSize> n{};
  std::copy(nonce.begin(), nonce.end(), n.begin());
  chacha20_xor(enc_key, n, /*initial_counter=*/1, data);
}

}  // namespace

SymmetricKey SymmetricKey::from_bytes(BytesView raw) {
  require(raw.size() == 32, "SymmetricKey: expected 32 bytes");
  SymmetricKey k;
  std::copy(raw.begin(), raw.end(), k.bytes.begin());
  return k;
}

Bytes aead_seal(const SymmetricKey& key, BytesView nonce12, BytesView plaintext,
                BytesView aad) {
  require(nonce12.size() == kNonceSize, "aead_seal: nonce must be 12 bytes");
  const DerivedKeys keys = derive_keys(key);

  Bytes body(plaintext.begin(), plaintext.end());
  apply_stream(keys.enc, nonce12, body);

  const HmacKey::Tag tag = compute_tag(keys.mac, nonce12, aad, body);

  Bytes out;
  out.reserve(kNonceSize + body.size() + kTagSize);
  append(out, nonce12);
  append(out, body);
  append(out, tag);
  return out;
}

Bytes aead_open(const SymmetricKey& key, BytesView sealed, BytesView aad) {
  if (sealed.size() < kNonceSize + kTagSize)
    throw CryptoError("aead_open: ciphertext too short");
  const DerivedKeys keys = derive_keys(key);

  const BytesView nonce = sealed.subspan(0, kNonceSize);
  const BytesView body =
      sealed.subspan(kNonceSize, sealed.size() - kNonceSize - kTagSize);
  const BytesView tag = sealed.subspan(sealed.size() - kTagSize);

  const HmacKey::Tag expected = compute_tag(keys.mac, nonce, aad, body);
  if (!constant_time_equal(expected, tag))
    throw CryptoError("aead_open: authentication failed");

  Bytes plaintext(body.begin(), body.end());
  apply_stream(keys.enc, nonce, plaintext);
  return plaintext;
}

}  // namespace emergence::crypto
