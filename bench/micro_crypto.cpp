// Microbenchmarks for the crypto substrate (google-benchmark): hashing,
// stream ciphers, AEAD, and Shamir split/combine throughput. These underpin
// the protocol-cost discussion (onion build/peel cost per holder).
#include <benchmark/benchmark.h>

#include "crypto/aead.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/drbg.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/shamir.hpp"

namespace {

using namespace emergence;
using namespace emergence::crypto;

void BM_Sha256(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) benchmark::DoNotOptimize(sha256(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key(32, 0x11);
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) benchmark::DoNotOptimize(hmac_sha256(key, data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(4096);

void BM_ChaCha20(benchmark::State& state) {
  std::array<std::uint8_t, 32> key{};
  std::array<std::uint8_t, 12> nonce{};
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xcd);
  for (auto _ : state) {
    chacha20_xor(key, nonce, 0, data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(64)->Arg(1024)->Arg(16384);

void BM_AeadSealOpen(benchmark::State& state) {
  const SymmetricKey key = SymmetricKey::from_bytes(Bytes(32, 0x33));
  const Bytes nonce(12, 0x44);
  const Bytes msg(static_cast<std::size_t>(state.range(0)), 0x55);
  for (auto _ : state) {
    const Bytes sealed = aead_seal(key, nonce, msg, {});
    benchmark::DoNotOptimize(aead_open(key, sealed, {}));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AeadSealOpen)->Arg(256)->Arg(4096);

void BM_ShamirSplit(benchmark::State& state) {
  Drbg drbg(std::uint64_t{1});
  const Bytes secret(32, 0x66);  // layer-key sized
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = n / 2 + 1;
  for (auto _ : state)
    benchmark::DoNotOptimize(shamir_split(secret, m, n, drbg));
}
BENCHMARK(BM_ShamirSplit)->Arg(3)->Arg(25)->Arg(100)->Arg(255);

void BM_ShamirCombine(benchmark::State& state) {
  Drbg drbg(std::uint64_t{2});
  const Bytes secret(32, 0x77);
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = n / 2 + 1;
  auto shares = shamir_split(secret, m, n, drbg);
  shares.resize(m);
  for (auto _ : state)
    benchmark::DoNotOptimize(shamir_combine(shares, m));
}
BENCHMARK(BM_ShamirCombine)->Arg(3)->Arg(25)->Arg(100)->Arg(255);

void BM_DrbgBytes(benchmark::State& state) {
  Drbg drbg(std::uint64_t{3});
  for (auto _ : state)
    benchmark::DoNotOptimize(drbg.bytes(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_DrbgBytes)->Arg(32)->Arg(4096);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("sha256_backend", sha256_backend());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
