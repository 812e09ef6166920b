// HMAC-SHA256 (RFC 2104 / FIPS 198-1).
#pragma once

#include <array>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace emergence::crypto {

/// An HMAC-SHA256 key with both pads absorbed once: the inner (key ^ ipad)
/// and outer (key ^ opad) blocks are kept as Sha256 midstates, so each MAC
/// under the key costs only the message blocks plus one outer block.
class HmacKey {
 public:
  using Tag = std::array<std::uint8_t, Sha256::kDigestSize>;

  /// Keys longer than the block size are hashed first, per the RFC.
  explicit HmacKey(BytesView key);

  /// HMAC(key, data).
  Tag mac(BytesView data) const;

  /// Streaming form: begin() returns the inner hasher with the key already
  /// absorbed; update() it with the message, then finish() it.
  Sha256 begin() const { return inner_; }
  Tag finish(Sha256& inner) const;

 private:
  Sha256 inner_;
  Sha256 outer_;
};

/// Computes HMAC-SHA256(key, data). Keys longer than the block size are
/// hashed first, per the RFC.
Bytes hmac_sha256(BytesView key, BytesView data);

}  // namespace emergence::crypto
