#include "crypto/hmac.hpp"

namespace emergence::crypto {

HmacKey::HmacKey(BytesView key) {
  constexpr std::size_t kBlock = Sha256::kBlockSize;

  std::array<std::uint8_t, kBlock> k{};
  if (key.size() > kBlock) {
    Sha256 h;
    h.update(key);
    const auto digest = h.finalize();
    std::copy(digest.begin(), digest.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }

  std::array<std::uint8_t, kBlock> pad;
  for (std::size_t i = 0; i < kBlock; ++i) pad[i] = k[i] ^ 0x36;
  inner_.update(pad);
  for (std::size_t i = 0; i < kBlock; ++i) pad[i] = k[i] ^ 0x5c;
  outer_.update(pad);
}

HmacKey::Tag HmacKey::finish(Sha256& inner) const {
  const auto inner_digest = inner.finalize();
  Sha256 outer = outer_;
  outer.update(inner_digest);
  return outer.finalize();
}

HmacKey::Tag HmacKey::mac(BytesView data) const {
  Sha256 inner = begin();
  inner.update(data);
  return finish(inner);
}

Bytes hmac_sha256(BytesView key, BytesView data) {
  const HmacKey::Tag tag = HmacKey(key).mac(data);
  return Bytes(tag.begin(), tag.end());
}

}  // namespace emergence::crypto
