// The simulated-fleet workloads (fleet-wan, fleet-churn) and the executor
// probe, all driven through workload::run_scenario.
#include "fleet.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "dht/chord_network.hpp"
#include "probes.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"

namespace perfbench {

using namespace emergence;
using workload::FleetTally;
using workload::ScenarioSpec;

namespace {

// Sessions per measured repetition. The host's speed wanders within
// seconds, so a run measures many short repetitions and reports their
// median. A fleet-wan repetition of 2000 sessions takes about 3 s on a
// 2 GHz core; about a third of its events are session traffic, the rest
// the 20k-node world's maintenance. A fleet-churn repetition takes about
// 6 s whatever its budget: its cost is the 100k-node world's membership
// traffic over the two 120-virtual-s drive chunks any budget spans.
constexpr std::size_t kWanSessions = 2000;
constexpr std::size_t kChurnSessions = 300;
constexpr std::size_t kSetupReps = 3;

ScenarioSpec fleet_churn_spec(std::uint64_t seed, std::size_t sessions) {
  return workload::parse_scenario(
      "calm-transients:population=100000,sessions=" +
      std::to_string(sessions) + ",seed=" + std::to_string(seed));
}

/// Sessions of one repetition that failed a check. Mirrors the sanity
/// gates of bench/service_load: the whole budget is reaped, delivered plus
/// dropped equals started, delivery is exact at tr (or within the
/// transport's reap_slack when it cannot be exact), and spot-checked
/// decrypts match. Drops are protocol outcomes, not failures.
std::uint64_t fleet_failures(const ScenarioSpec& spec, const FleetTally& t) {
  std::uint64_t failed = 0;
  const auto budget = static_cast<std::uint64_t>(spec.sessions);
  if (t.trials() < budget) failed += budget - t.trials();
  const std::uint64_t accounted =
      t.sessions_delivered + t.tally.drop.successes();
  if (accounted != t.sessions_started)
    failed += accounted > t.sessions_started ? accounted - t.sessions_started
                                             : t.sessions_started - accounted;
  if (spec.exact_delivery()) {
    failed += t.sessions_delivered - t.delivered_on_time;
  } else if (static_cast<double>(t.max_delivery_offset_ns) >
             spec.transport.reap_slack(spec.shape.l) * 1e9) {
    failed += 1;  // the tally keeps only the worst offset
  }
  failed += t.payload_mismatches;
  return std::min(failed, budget);
}

}  // namespace

ScenarioSpec fleet_wan_spec(std::uint64_t seed, std::size_t sessions) {
  // The ROADMAP's pinned scenario at the default schedule: no domains=
  // override, so the workload follows whatever schedule is the default.
  return workload::parse_scenario(
      "poisson-open:net=wan,population=20000,sessions=" +
      std::to_string(sessions) + ",seed=" + std::to_string(seed));
}

dht::NetworkConfig fleet_network_config(const ScenarioSpec& spec) {
  // SessionFleet builds its Chord world internally with this config
  // (src/workload/session_fleet.cpp); the benchmark rebuilds it to time
  // bootstrap and to probe the same world from outside.
  dht::NetworkConfig cfg;
  cfg.run_maintenance = spec.churn;
  cfg.stabilize_interval = 60.0;
  cfg.replica_repair_interval = 240.0;
  cfg.exact_join_fingers = false;
  cfg.transport = spec.transport;
  return cfg;
}

namespace {

/// One fleet on a one-thread sweep pool. While tracing, records a
/// "workload.run_scenario" span with one "workload.chunk" child per chunk.
FleetRun run_fleet(const ScenarioSpec& spec) {
  core::SweepRunner pool(core::SweepOptions{1, 64});
  FleetRun run;
  std::uint32_t chunk_name = 0;
  const bool traced = g_spans != nullptr;
  if (traced) chunk_name = g_spans->intern("workload.chunk");
  const Scope whole("workload.run_scenario");
  SpanLog::Id chunk = traced ? g_spans->open(chunk_name) : 0;
  double chunk_start = now_s();
  // One span per virtual chunk: the fleet invokes the progress observer
  // between drive chunks (the first chunk also covers world bootstrap).
  const workload::FleetProgress progress =
      [&](double, std::uint64_t, std::uint64_t) {
        const double t = now_s();
        run.chunk_wall_s.push_back(t - chunk_start);
        chunk_start = t;
        if (traced) {
          g_spans->close(chunk);
          chunk = g_spans->open(chunk_name);
        }
      };
  const double t0 = now_s();
  run.tally = workload::run_scenario(pool, spec, progress);
  run.wall_s = now_s() - t0;
  if (traced) g_spans->close(chunk);
  run.failed = fleet_failures(spec, run.tally);
  return run;
}

}  // namespace

void add_fleet_layer_metrics(const FleetRun& run, Result& out) {
  const FleetTally& t = run.tally;
  const double sessions =
      static_cast<double>(std::max<std::uint64_t>(t.sessions_started, 1));
  out.add("dht.transport.attempts_per_session",
          static_cast<double>(t.transport.attempts) / sessions, "count");
  out.add("dht.transport.retries_per_session",
          static_cast<double>(t.transport.retried) / sessions, "count");
  out.add("sim.events_per_session",
          static_cast<double>(t.events_executed) / sessions, "count");
  out.add("workload.peak_live_sessions",
          static_cast<double>(t.peak_live_sessions), "count");
  // The first chunk also holds the world's bootstrap; the steady chunks
  // after it are the drive loop's cost.
  std::vector<double> steady(run.chunk_wall_s.begin() +
                                 (run.chunk_wall_s.size() > 1 ? 1 : 0),
                             run.chunk_wall_s.end());
  out.add("workload.chunk_wall_s", median(steady), "s");
}

FleetRun run_executor_probe(const Args& args, Result& out) {
  ScenarioSpec spec = fleet_wan_spec(mix_seed(args.seed, 900), kWanSessions / 2);
  const FleetRun serial = run_fleet(spec);
  spec.domains = 4;
  const FleetRun parallel = run_fleet(spec);
  out.attempted += 2 * spec.sessions;
  out.failed += serial.failed + parallel.failed;
  out.add("sim.executor.speedup_d4", serial.wall_s / parallel.wall_s, "x");
  return serial;
}

namespace {

void run_fleet_workload(const Args& args, Result& out,
                        ScenarioSpec (*make_spec)(std::uint64_t, std::size_t),
                        std::size_t sessions) {
  const ScenarioSpec shape = make_spec(args.seed, sessions);
  const dht::NetworkConfig cfg = fleet_network_config(shape);

  if (!args.trace) {
    // setup_s: ChordNetwork::bootstrap with the fleet's own config, timed
    // from outside because SessionFleet builds its world internally.
    std::vector<double> setup;
    for (std::size_t r = 0; r < kSetupReps; ++r) {
      sim::Simulator sim;
      Rng rng(mix_seed(args.seed, 500 + r));
      dht::ChordNetwork net(sim, rng, cfg);
      const double t0 = now_s();
      net.bootstrap(shape.population);
      setup.push_back(now_s() - t0);
      out.check(net.alive_count() == shape.population,
                "bootstrap left nodes out of the world");
    }

    // Measured phase: whole fleets, each from its own seed, until the
    // run's time is used; every repetition is checked.
    std::vector<double> rates;
    std::uint64_t delivered = 0;
    const double cpu0 = cpu_s();
    const double start = now_s();
    for (std::size_t rep = 0; another_rep(rep, now_s() - start, args.seconds);
         ++rep) {
      const ScenarioSpec spec = make_spec(mix_seed(args.seed, rep), sessions);
      const FleetRun run = run_fleet(spec);
      out.attempted += spec.sessions;
      out.failed += run.failed;
      delivered += run.tally.sessions_delivered;
      rates.push_back(static_cast<double>(run.tally.trials()) / run.wall_s);
    }
    const double cpu = cpu_s() - cpu0;
    out.note("measured " + std::to_string(rates.size()) + " fleets of " +
             std::to_string(sessions) + " sessions on " +
             std::to_string(shape.population) + " nodes");
    std::string per_rep = "sessions_per_s of each repetition:";
    for (const double r : rates) per_rep += " " + std::to_string(r);
    out.note(per_rep);
    out.add("sessions_per_s", median(rates), "1/s");
    out.add("setup_s", median(setup), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.note("cpu_ms_per_session = " +
             std::to_string(cpu * 1e3 / static_cast<double>(
                                            std::max<std::uint64_t>(delivered, 1))) +
             " ms");
    return;
  }

  // Traced run. The probes come first: besides their own metrics they
  // grow the heap to the workload's size, so the batches that follow all
  // start warm. Untraced and traced batches do the same work (spans never
  // touch the simulation), so their wall times compare.
  run_executor_probe(args, out);
  {
    const Tracing on;
    run_layer_probes(args, shape.population, cfg, out);
    run_wire_probe(args, out);
  }
  // The traced batch runs between two untraced ones, so a drift of the
  // host's speed over the three cancels out of the ratio.
  const ScenarioSpec spec = make_spec(mix_seed(args.seed, 0), sessions);
  const FleetRun before = run_fleet(spec);
  FleetRun traced;
  {
    const Tracing on;
    traced = run_fleet(spec);
  }
  const FleetRun after = run_fleet(spec);
  out.attempted += 3 * spec.sessions;
  out.failed += before.failed + traced.failed + after.failed;
  out.check(before.tally.fingerprint() == traced.tally.fingerprint() &&
                after.tally.fingerprint() == traced.tally.fingerprint(),
            "tracing changed the fleet's outcome");
  out.add("trace_overhead_ratio",
          2.0 * traced.wall_s / (before.wall_s + after.wall_s), "x");
  add_fleet_layer_metrics(traced, out);
}

}  // namespace

void run_fleet_wan(const Args& args, Result& out) {
  run_fleet_workload(args, out, fleet_wan_spec, kWanSessions);
}

void run_fleet_churn(const Args& args, Result& out) {
  run_fleet_workload(args, out, fleet_churn_spec, kChurnSessions);
}

}  // namespace perfbench
