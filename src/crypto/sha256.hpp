// SHA-256 (FIPS 180-4), implemented from the specification.
//
// Used for node identifiers, HMAC, HKDF and the ChaCha20 DRBG seeding. The
// streaming interface supports incremental hashing of large payloads.
//
// The compression function has two implementations with identical output:
// the portable one from the specification and an x86 SHA-NI kernel. The
// kernel is chosen once at runtime from cpuid; CPUs without the SHA
// extensions (and non-x86 builds) always run the portable path.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace emergence::crypto {

/// Streaming SHA-256 hasher. Copyable: a copy taken after absorbing a
/// prefix is a midstate that can be resumed any number of times (HmacKey
/// keeps its two padded keys this way).
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;

  Sha256();

  /// Absorbs more input.
  void update(BytesView data);

  /// Finalizes and returns the 32-byte digest. The hasher must not be used
  /// again afterwards (construct a fresh one).
  std::array<std::uint8_t, kDigestSize> finalize();

 private:
  /// Compresses `n` consecutive 64-byte blocks into the state.
  void process_blocks(const std::uint8_t* data, std::size_t n);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finalized_ = false;
};

/// One-shot SHA-256.
Bytes sha256(BytesView data);

/// The compression path this process runs: "sha-ni" or "portable".
const char* sha256_backend();

}  // namespace emergence::crypto
