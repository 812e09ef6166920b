// The two SHA-256 compression functions behind Sha256, exposed so tests can
// run them against each other. Both compress `n` consecutive 64-byte blocks
// into `state` (the eight working words, FIPS 180-4 order).
#pragma once

#include <cstddef>
#include <cstdint>

namespace emergence::crypto::detail {

/// The specification's compression function; runs on every CPU.
void sha256_blocks_portable(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t n);

/// True when the CPU has the SHA extensions plus SSSE3 and SSE4.1 (cpuid
/// leaf 7 EBX bit 29, leaf 1 ECX bits 9 and 19). Always false off x86.
bool sha256_shani_supported();

/// The SHA-NI compression function. Call only when
/// sha256_shani_supported() is true.
void sha256_blocks_shani(std::uint32_t state[8], const std::uint8_t* data,
                         std::size_t n);

}  // namespace emergence::crypto::detail
