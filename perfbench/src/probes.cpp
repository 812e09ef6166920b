// Per-layer probes. Each times public calls of one layer at the sizes of
// the workload that runs it, records one span per call (one per batch of
// 1000 for the sub-microsecond simulator events, where a span per call
// would cost as much as the call) and checks each call's result.
#include "probes.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/aead.hpp"
#include "crypto/drbg.hpp"
#include "crypto/sha256.hpp"
#include "emerge/onion.hpp"
#include "service/wire.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"

namespace perfbench {

using namespace emergence;

namespace {

constexpr std::size_t kLookups = 20000;
constexpr std::size_t kPutGets = 2000;
constexpr std::size_t kJoins = 200;
constexpr std::size_t kKills = 200;
constexpr std::size_t kSimEvents = 1000000;
constexpr std::size_t kSimBatch = 1000;
constexpr std::size_t kOnions = 1000;
constexpr std::size_t kAeadCalls = 5000;
constexpr std::size_t kHashCalls = 5000;
constexpr std::size_t kDecodes = 20000;

/// Calls fn(i) `count` times, one span named `name` around each call, and
/// returns the mean seconds per call measured by those spans.
template <class F>
double per_call(const std::string& name, std::size_t count, F&& fn) {
  const std::uint32_t id = g_spans->intern(name);
  double total = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const SpanLog::Id span = g_spans->open(id);
    fn(i);
    g_spans->close(span);
    total += g_spans->duration_s(span);
  }
  return total / static_cast<double>(count);
}

dht::NodeId random_id(Rng& rng) {
  return dht::NodeId::from_bytes(rng.bytes(dht::kIdBytes));
}

void probe_chord(std::size_t nodes, const dht::NetworkConfig& cfg,
                 std::uint64_t seed, Result& out) {
  sim::Simulator sim;
  Rng net_rng(mix_seed(seed, 1));
  Rng rng(mix_seed(seed, 2));
  dht::ChordNetwork net(sim, net_rng, cfg);
  {
    const Scope span("dht.chord.bootstrap");
    net.bootstrap(nodes);
  }

  // Keys are drawn and results checked outside the timed calls.
  std::vector<dht::NodeId> keys(kLookups);
  for (dht::NodeId& key : keys) key = random_id(rng);
  std::vector<dht::LookupResult> results(kLookups);
  const double lookup_s = per_call("dht.chord.lookup", kLookups, [&](std::size_t i) {
    results[i] = net.lookup(keys[i]);
  });
  std::uint64_t hops = 0, wrong = 0;
  for (std::size_t i = 0; i < kLookups; ++i) {
    hops += static_cast<std::uint64_t>(results[i].hops);
    if (!results[i].ok ||
        net.live_ring().successor_inclusive(keys[i]) != results[i].node)
      ++wrong;
  }
  out.check(wrong == 0, std::to_string(wrong) +
                            " Chord lookups missed the key's successor");
  out.add("dht.chord.lookup_ns", lookup_s * 1e9, "ns");
  out.add("dht.chord.hops_per_lookup",
          static_cast<double>(hops) / static_cast<double>(kLookups), "count");

  keys.resize(kPutGets);
  for (dht::NodeId& key : keys) key = random_id(rng);
  std::uint64_t misses = 0;
  const Bytes value(64, 0x5A);
  const double put_get_s = per_call("dht.chord.put_get", kPutGets, [&](std::size_t i) {
    const bool stored = net.put(keys[i], value);
    const SharedBytes got = net.get(keys[i]);
    if (!stored || !got || *got != value) ++misses;
  });
  out.check(misses == 0, std::to_string(misses) + " Chord put/get pairs lost data");
  out.add("dht.chord.put_get_us", put_get_s * 1e6, "us");

  const std::size_t before = net.alive_count();
  const double join_s =
      per_call("dht.chord.join", kJoins, [&](std::size_t) { net.add_node(); });
  // Victims are copied out first: kill_node swap-pops alive_ids().
  std::vector<dht::NodeId> victims;
  for (std::size_t i = 0; i < kKills; ++i)
    victims.push_back(net.alive_ids()[rng.index(net.alive_count())]);
  std::sort(victims.begin(), victims.end());
  victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
  const double kill_s = per_call("dht.chord.kill", victims.size(),
                                 [&](std::size_t i) { net.kill_node(victims[i]); });
  out.check(net.alive_count() == before + kJoins - victims.size(),
            "Chord membership count is off after joins and kills");
  out.add("dht.chord.join_us", join_s * 1e6, "us");
  out.add("dht.chord.kill_us", kill_s * 1e6, "us");
}

void probe_simulator(std::size_t queue_depth, std::uint64_t seed,
                     Result& out) {
  sim::Simulator sim;
  Rng rng(mix_seed(seed, 3));
  std::vector<double> delays(4096);
  for (double& d : delays) d = rng.real() * 100.0;
  std::size_t next = 0;
  std::uint64_t fired = 0;
  // Every fired event schedules its replacement, so the queue stays at the
  // workload's depth while it is measured.
  std::function<void()> tick = [&]() {
    ++fired;
    sim.schedule_in(delays[next++ & 4095], tick);
  };
  for (std::size_t i = 0; i < queue_depth; ++i)
    sim.schedule_at(delays[i & 4095], tick);
  const double batch_s = per_call("sim.fire_batch", kSimEvents / kSimBatch,
                                  [&](std::size_t) { sim.step(kSimBatch); });
  out.check(fired == kSimEvents && sim.pending() == queue_depth,
            "simulator probe fired the wrong number of events");
  out.add("sim.ns_per_event", batch_s * 1e9 / static_cast<double>(kSimBatch),
          "ns");
}

/// The joint k=2 l=3 onion a sender builds for a 64-byte secret.
std::vector<core::ColumnBuildSpec> onion_specs(crypto::Drbg& drbg,
                                               const Bytes& secret) {
  std::vector<core::ColumnBuildSpec> specs(3);
  for (std::size_t c = 0; c < specs.size(); ++c) {
    const crypto::SymmetricKey key = crypto::SymmetricKey::from_bytes(drbg.bytes(32));
    specs[c].holder_keys.assign(2, key);
    specs[c].envelopes.resize(2);
    for (core::EnvelopeContent& env : specs[c].envelopes) {
      if (c + 1 == specs.size()) {
        env.terminal_payload = secret;
      } else {
        for (int h = 0; h < 2; ++h)
          env.next_hops.push_back(dht::NodeId::from_bytes(drbg.bytes(dht::kIdBytes)));
      }
    }
  }
  return specs;
}

/// Peels column `column` as holder 0 would: parse, open the envelope,
/// unwrap the inner onion.
std::pair<core::EnvelopeContent, Bytes> peel(
    const std::vector<core::ColumnBuildSpec>& specs, const Bytes& package,
    std::uint16_t column) {
  const core::ColumnOnion onion = core::parse_column_onion(package);
  core::EnvelopeContent content = core::open_envelope(
      specs[column - 1].holder_keys[0], onion.envelope_for(0), column);
  Bytes inner;
  if (!onion.inner.empty())
    inner = core::unwrap_inner(content.inner_key, onion.inner, column);
  return {std::move(content), std::move(inner)};
}

void probe_onion_crypto_wire(std::uint64_t seed, Result& out) {
  crypto::Drbg drbg(mix_seed(seed, 4));
  const Bytes secret = drbg.bytes(64);
  const auto specs = onion_specs(drbg, secret);

  Bytes package;
  const double build_s = per_call("emerge.build_onion", kOnions, [&](std::size_t) {
    package = core::build_onion(specs, drbg);
  });
  // Correctness: peeling every column in turn recovers the secret.
  Bytes layer = package;
  for (std::uint16_t c = 1; c <= 3; ++c) {
    auto [content, inner] = peel(specs, layer, c);
    if (c == 3) {
      out.check(content.terminal_payload == secret,
                "peeling the onion did not recover the secret");
    } else {
      out.check(content.next_hops == specs[c - 1].envelopes[0].next_hops,
                "a peeled envelope names the wrong next hops");
    }
    layer = std::move(inner);
  }
  const double peel_s = per_call("emerge.peel_column", kOnions, [&](std::size_t) {
    (void)peel(specs, package, 1);
  });
  out.add("emerge.onion_build_us", build_s * 1e6, "us");
  out.add("emerge.onion_peel_us", peel_s * 1e6, "us");

  // AEAD and SHA-256 at the package's own size.
  const crypto::SymmetricKey key = crypto::SymmetricKey::from_bytes(drbg.bytes(32));
  const Bytes nonce = drbg.bytes(12);
  const Bytes aad = drbg.bytes(8);
  Bytes sealed;
  const double seal_s = per_call("crypto.aead_seal", kAeadCalls, [&](std::size_t) {
    sealed = crypto::aead_seal(key, nonce, package, aad);
  });
  Bytes opened;
  const double open_s = per_call("crypto.aead_open", kAeadCalls, [&](std::size_t) {
    opened = crypto::aead_open(key, sealed, aad);
  });
  out.check(opened == package, "aead_open did not return the sealed bytes");
  out.add("crypto.aead_seal_us", seal_s * 1e6, "us");
  out.add("crypto.aead_open_us", open_s * 1e6, "us");

  Bytes digest;
  const double hash_s = per_call("crypto.sha256", kHashCalls, [&](std::size_t) {
    digest = crypto::sha256(package);
  });
  out.check(crypto::sha256(bytes_of("abc")) ==
                from_hex("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            "SHA-256 of \"abc\" is wrong");
  out.add("crypto.sha256_mb_s",
          static_cast<double>(package.size()) / hash_s / 1e6, "MB/s");

  // The codec on a Package frame carrying that onion.
  service::Package msg;
  msg.meta.session_nonce = drbg.u64();
  msg.meta.k = 2;
  msg.meta.l = 3;
  msg.ring_point = dht::NodeId::from_bytes(drbg.bytes(dht::kIdBytes));
  msg.package = package;
  msg.hops_left = 32;
  const Bytes frame = service::encode_frame(msg);
  service::WireStats stats;
  std::optional<service::WireMessage> decoded;
  const double decode_s = per_call("service.decode_frame", kDecodes, [&](std::size_t) {
    decoded = service::decode_frame(frame, stats);
  });
  out.check(decoded.has_value() && service::encode_frame(*decoded) == frame,
            "decode_frame did not round-trip a Package frame");
  out.add("service.wire_decode_ns", decode_s * 1e9, "ns");
}

}  // namespace

void run_layer_probes(const Args& args, std::size_t nodes,
                      const dht::NetworkConfig& cfg, Result& out) {
  if (g_spans == nullptr)
    throw std::logic_error("layer probes run only while tracing");
  const std::uint64_t seed = mix_seed(args.seed, 800);
  probe_chord(nodes, cfg, seed, out);
  // A world keeps about three timers pending per node (stabilize, repair
  // and a churn or request timer), so that is the queue depth it fires at.
  probe_simulator(3 * nodes, seed, out);
  probe_onion_crypto_wire(seed, out);
}

}  // namespace perfbench
