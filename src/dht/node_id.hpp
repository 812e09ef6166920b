// 160-bit identifiers on the Chord ring.
//
// IDs are big-endian 20-byte values; nodes and keys share the identifier
// space (consistent hashing, as in the Chord paper). All interval tests are
// circular: (a, b] wraps around the 2^160 boundary.
#pragma once

#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

#include "common/bytes.hpp"

namespace emergence::dht {

constexpr std::size_t kIdBytes = 20;
constexpr std::size_t kIdBits = kIdBytes * 8;  // 160

/// An identifier on the ring.
class NodeId {
 public:
  NodeId() = default;

  /// Builds from exactly 20 raw bytes.
  static NodeId from_bytes(BytesView raw);

  /// SHA-256 of `data`, truncated to 160 bits (Chord's consistent hash).
  static NodeId hash_of(BytesView data);

  /// Convenience: hash of a textual name ("node-17", key labels, ...).
  static NodeId hash_of_text(std::string_view text);

  /// Parses 40 hex characters.
  static NodeId from_hex(std::string_view hex);

  const std::array<std::uint8_t, kIdBytes>& bytes() const { return bytes_; }

  /// The first 8 bytes read big-endian. Distinct prefixes order exactly as
  /// the full ids do.
  std::uint64_t prefix64() const {
    std::uint64_t v;
    std::memcpy(&v, bytes_.data(), sizeof(v));
    if constexpr (std::endian::native == std::endian::little)
      v = __builtin_bswap64(v);
    return v;
  }
  std::string to_hex() const;
  /// First 8 hex chars; convenient for logs.
  std::string short_hex() const;

  auto operator<=>(const NodeId&) const = default;

  /// this + 2^power (mod 2^160); used for finger-table starts.
  NodeId add_power_of_two(std::size_t power) const;

  /// this + 1 (mod 2^160).
  NodeId successor_value() const;

  /// Clockwise distance from this to other (other - this mod 2^160),
  /// truncated to the low 64 bits (sufficient for ordering diagnostics).
  std::uint64_t distance_low64(const NodeId& other) const;

 private:
  std::array<std::uint8_t, kIdBytes> bytes_{};
};

/// True when x lies in the open interval (a, b) on the ring. Empty when
/// a == b (full-circle semantics are handled by callers that need them).
bool in_open_interval(const NodeId& x, const NodeId& a, const NodeId& b);

/// in_open_interval(x, a, b) given pa = a.prefix64() and pb = b.prefix64().
/// When the prefixes of x, a and b are pairwise distinct their order is the
/// ids' order, so the test is decided on three words; otherwise it falls
/// back to the full 160-bit compare. Always equal to in_open_interval.
inline bool in_open_interval_by_prefix(const NodeId& x, const NodeId& a,
                                       std::uint64_t pa, const NodeId& b,
                                       std::uint64_t pb) {
  const std::uint64_t px = x.prefix64();
  if (px == pa || px == pb || pa == pb) return in_open_interval(x, a, b);
  if (pa < pb) return pa < px && px < pb;
  return px > pa || px < pb;
}

/// True when x lies in the half-open interval (a, b] on the ring; this is
/// the successor-responsibility test of Chord.
bool in_half_open_interval(const NodeId& x, const NodeId& a, const NodeId& b);

/// Hash functor so NodeId can key unordered containers.
struct NodeIdHash {
  std::size_t operator()(const NodeId& id) const;
};

}  // namespace emergence::dht
