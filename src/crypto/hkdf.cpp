#include "crypto/hkdf.hpp"

#include "common/error.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace emergence::crypto {

Bytes hkdf_extract(BytesView salt, BytesView ikm) {
  if (salt.empty()) {
    const Bytes zero(Sha256::kDigestSize, 0x00);
    return hmac_sha256(zero, ikm);
  }
  return hmac_sha256(salt, ikm);
}

Bytes hkdf_expand(BytesView prk, BytesView info, std::size_t length) {
  constexpr std::size_t kHash = Sha256::kDigestSize;
  require(length <= 255 * kHash, "hkdf_expand: length too large");
  const HmacKey key(prk);
  Bytes okm;
  okm.reserve(length);
  HmacKey::Tag t{};
  for (std::uint8_t counter = 1; okm.size() < length; ++counter) {
    // T(i) = HMAC(PRK, T(i-1) || info || i), with T(0) empty.
    Sha256 h = key.begin();
    if (counter > 1) h.update(t);
    h.update(info);
    h.update(BytesView(&counter, 1));
    t = key.finish(h);
    const std::size_t take = std::min(kHash, length - okm.size());
    okm.insert(okm.end(), t.begin(), t.begin() + static_cast<long>(take));
  }
  return okm;
}

Bytes hkdf(BytesView salt, BytesView ikm, BytesView info, std::size_t length) {
  return hkdf_expand(hkdf_extract(salt, ikm), info, length);
}

}  // namespace emergence::crypto
