// Deterministic random source for simulations and experiments.
//
// Every experiment in this repository is reproducible from a single 64-bit
// seed. Rng wraps a std::mt19937_64 and adds the sampling helpers the
// protocol simulations need (population sampling without replacement,
// exponential lifetimes for churn, Bernoulli trials).
//
// Cryptographic randomness is NOT drawn from this class; see
// crypto/drbg.hpp for the ChaCha20-based DRBG used for keys and shares.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "common/bytes.hpp"

namespace emergence {

/// Seedable pseudo-random source with simulation-oriented helpers.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : seed_(seed), engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi);

  /// Uniform index in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  /// Uniform real in [0, 1).
  double real();

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p);

  /// Exponential variate with the given mean (= 1/rate). Requires mean > 0.
  double exponential(double mean);

  /// Raw 64 random bits.
  std::uint64_t bits();

  /// `count` random bytes (simulation quality, not cryptographic).
  Bytes bytes(std::size_t count);

  /// Chooses `count` distinct indices uniformly from [0, n) without
  /// replacement. Uses Floyd's algorithm: O(count) memory, no O(n) shuffle.
  std::vector<std::uint32_t> sample_without_replacement(std::size_t n,
                                                        std::size_t count);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = index(i);
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Derives an independent child stream by drawing from this engine
  /// (stateful: each call advances the parent and yields a new stream).
  Rng fork();

  /// Derives the independent child stream `stream_id` of this source's
  /// construction seed. Counter-based: the child depends only on
  /// (seed, stream_id), never on engine state or call order, so run *i* of a
  /// sweep gets the same stream no matter which thread executes it or how
  /// many runs came before — the property the parallel SweepRunner builds
  /// its thread-count invariance on. The derivation is a SplitMix64-style
  /// finalizer over an odd-multiplier encoding of the stream id, which is
  /// bijective per seed: distinct stream ids can never collide.
  Rng fork(std::uint64_t stream_id) const;

  /// Rng(seed).fork(stream_id) without seeding the throwaway parent engine.
  static Rng stream(std::uint64_t seed, std::uint64_t stream_id);

  /// The seed this source was constructed with (the fork(stream_id) base).
  std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
  std::mt19937_64 engine_;
};

}  // namespace emergence
