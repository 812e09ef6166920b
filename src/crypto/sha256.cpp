#include "crypto/sha256.hpp"

#include <cstring>

#include "common/error.hpp"
#include "crypto/sha256_detail.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define EMERGENCE_SHA256_X86 1
#endif

namespace emergence::crypto {
namespace {

alignas(16) constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void process_block_portable(std::uint32_t state[8],
                            const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<std::uint32_t>(block[4 * i]) << 24 |
           static_cast<std::uint32_t>(block[4 * i + 1]) << 16 |
           static_cast<std::uint32_t>(block[4 * i + 2]) << 8 |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

using BlocksFn = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t);

/// The compression function this process runs, picked on first use. The
/// function-local static makes the one-time cpuid probe thread-safe.
BlocksFn blocks_fn() {
  static const BlocksFn fn = detail::sha256_shani_supported()
                                 ? detail::sha256_blocks_shani
                                 : detail::sha256_blocks_portable;
  return fn;
}

}  // namespace

namespace detail {

void sha256_blocks_portable(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    process_block_portable(state, data + i * Sha256::kBlockSize);
}

#ifdef EMERGENCE_SHA256_X86

bool sha256_shani_supported() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
  const bool ssse3_sse41 = (c & bit_SSSE3) != 0 && (c & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
  return ssse3_sse41 && (b & bit_SHA) != 0;
}

// The SHA-NI kernel keeps the state as two vectors, ABEF and CDGH, the
// layout sha256rnds2 works on. Each group of four rounds adds the round
// constants to four schedule words and runs two rnds2 steps; msg1/msg2
// extend the schedule four words at a time, ring-buffered in msg[4].
__attribute__((target("sha,sse4.1,ssse3"))) void sha256_blocks_shani(
    std::uint32_t state[8], const std::uint8_t* data, std::size_t n) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);          // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);  // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);       // CDGH

  for (; n > 0; --n, data += Sha256::kBlockSize) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;

    __m128i msg[4];
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      msg[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          byte_swap);
    }
    // Fully unrolled so msg[] lives in registers.
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      const __m128i cur = msg[g & 3];
      __m128i wk = _mm_add_epi32(
          cur, _mm_load_si128(
                   reinterpret_cast<const __m128i*>(&kRoundConstants[4 * g])));
      state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
      if (g >= 3 && g < 15) {
        // Finish schedule group g+1: msg2(w + alignr(cur, prev), cur).
        __m128i& next = msg[(g + 1) & 3];
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, msg[(g + 3) & 3], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      wk = _mm_shuffle_epi32(wk, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, wk);
      if (g >= 1 && g < 13) {
        // Start schedule group g+3 from the previous group and this one.
        __m128i& prev = msg[(g + 3) & 3];
        prev = _mm_sha256msg1_epu32(prev, cur);
      }
    }

    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);        // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);     // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}

#else

bool sha256_shani_supported() { return false; }

void sha256_blocks_shani(std::uint32_t state[8], const std::uint8_t* data,
                         std::size_t n) {
  // Never selected off x86; kept so the interface links everywhere.
  sha256_blocks_portable(state, data, n);
}

#endif

}  // namespace detail

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
             0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::process_blocks(const std::uint8_t* data, std::size_t n) {
  blocks_fn()(state_.data(), data, n);
}

void Sha256::update(BytesView data) {
  require(!finalized_, "Sha256::update after finalize");
  // An empty view may carry a null data(); memcpy from it is UB even for
  // zero bytes.
  if (data.empty()) return;
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(kBlockSize - buffer_len_, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == kBlockSize) {
      process_blocks(buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t whole = (data.size() - offset) / kBlockSize;
  if (whole > 0) {
    process_blocks(data.data() + offset, whole);
    offset += whole * kBlockSize;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

std::array<std::uint8_t, Sha256::kDigestSize> Sha256::finalize() {
  require(!finalized_, "Sha256::finalize called twice");
  finalized_ = true;

  // The buffered tail, 0x80, zero padding and the big-endian bit length,
  // in one block when the tail leaves 8 bytes free, else two.
  std::uint8_t tail[kBlockSize * 2] = {};
  std::memcpy(tail, buffer_.data(), buffer_len_);
  tail[buffer_len_] = 0x80;
  const std::size_t blocks = buffer_len_ < kBlockSize - 8 ? 1 : 2;
  const std::uint64_t bit_len = total_len_ * 8;
  for (std::size_t i = 0; i < 8; ++i)
    tail[blocks * kBlockSize - 1 - i] =
        static_cast<std::uint8_t>(bit_len >> (8 * i));
  process_blocks(tail, blocks);

  std::array<std::uint8_t, kDigestSize> digest;
  for (int i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return digest;
}

Bytes sha256(BytesView data) {
  Sha256 h;
  h.update(data);
  const auto digest = h.finalize();
  return Bytes(digest.begin(), digest.end());
}

const char* sha256_backend() {
  return blocks_fn() == detail::sha256_blocks_shani ? "sha-ni" : "portable";
}

}  // namespace emergence::crypto
