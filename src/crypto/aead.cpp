#include "crypto/aead.hpp"

#include "common/error.hpp"
#include "common/serial.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/hmac.hpp"

namespace emergence::crypto {
namespace {

constexpr std::size_t kNonceSize = 12;
constexpr std::size_t kTagSize = 32;

struct DerivedKeys {
  std::array<std::uint8_t, 32> enc;
  Bytes mac;
};

DerivedKeys derive_keys(const SymmetricKey& key) {
  Bytes info = bytes_of("emergence/aead/v1");
  info.push_back(kChaCha20CipherId);
  const Bytes okm = hkdf(/*salt=*/{}, BytesView(key.bytes.data(), 32), info,
                         /*length=*/64);
  DerivedKeys out;
  std::copy(okm.begin(), okm.begin() + 32, out.enc.begin());
  out.mac.assign(okm.begin() + 32, okm.end());
  return out;
}

Bytes compute_tag(BytesView mac_key, BytesView nonce, BytesView aad,
                  BytesView body) {
  BinaryWriter w;
  w.raw(nonce);
  w.u64(aad.size());
  w.raw(aad);
  w.raw(body);
  return hmac_sha256(mac_key, w.bytes());
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

  const Bytes tag = compute_tag(keys.mac, nonce12, aad, body);

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

  const Bytes expected = compute_tag(keys.mac, nonce, aad, body);
  if (!constant_time_equal(expected, tag))
    throw CryptoError("aead_open: authentication failed");

  Bytes plaintext(body.begin(), body.end());
  apply_stream(keys.enc, nonce, plaintext);
  return plaintext;
}

}  // namespace emergence::crypto
