#include "common/rng.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/error.hpp"

namespace emergence {

std::uint64_t Rng::uniform(std::uint64_t lo, std::uint64_t hi) {
  require(lo <= hi, "Rng::uniform: empty range");
  return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
}

std::size_t Rng::index(std::size_t n) {
  require(n > 0, "Rng::index: empty range");
  return static_cast<std::size_t>(uniform(0, n - 1));
}

double Rng::real() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return real() < p;
}

double Rng::exponential(double mean) {
  require(mean > 0.0, "Rng::exponential: mean must be positive");
  return std::exponential_distribution<double>(1.0 / mean)(engine_);
}

std::uint64_t Rng::bits() { return engine_(); }

Bytes Rng::bytes(std::size_t count) {
  Bytes out(count);
  std::size_t i = 0;
  while (i < count) {
    std::uint64_t word = bits();
    for (int b = 0; b < 8 && i < count; ++b, ++i) {
      out[i] = static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
  return out;
}

std::vector<std::uint32_t> Rng::sample_without_replacement(std::size_t n,
                                                           std::size_t count) {
  require(count <= n, "sample_without_replacement: count > population");
  // Floyd's algorithm: for j in [n-count, n), pick t in [0, j]; insert t or,
  // if taken, insert j. Produces a uniform sample of `count` distinct values.
  std::unordered_set<std::uint32_t> chosen;
  chosen.reserve(count * 2);
  std::vector<std::uint32_t> out;
  out.reserve(count);
  for (std::size_t j = n - count; j < n; ++j) {
    auto t = static_cast<std::uint32_t>(uniform(0, j));
    if (chosen.insert(t).second) {
      out.push_back(t);
    } else {
      chosen.insert(static_cast<std::uint32_t>(j));
      out.push_back(static_cast<std::uint32_t>(j));
    }
  }
  return out;
}

Rng Rng::fork() { return Rng(bits()); }

namespace {

/// SplitMix64 finalizer (Steele, Lea, Flood 2014): a bijective avalanche
/// mix on 64 bits.
std::uint64_t mix64(std::uint64_t z) {
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z;
}

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;  // 2^64 / phi, odd

}  // namespace

Rng Rng::fork(std::uint64_t stream_id) const {
  return stream(seed_, stream_id);
}

Rng Rng::stream(std::uint64_t seed, std::uint64_t stream_id) {
  // mix64 is bijective and stream_id * kGolden is bijective (odd multiplier),
  // so for a fixed seed the child seeds are a permutation of the stream ids:
  // distinct streams get distinct seeds by construction.
  const std::uint64_t base = mix64(seed + kGolden);
  return Rng(mix64(base ^ (stream_id * kGolden + 0x6a09e667f3bcc909ULL)));
}

}  // namespace emergence
