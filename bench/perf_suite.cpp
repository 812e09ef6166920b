// Unified performance suite for the simulation core.
//
// Runs each scenario as one deterministic world through four timed phases —
// bootstrap, lookup storm, put/get storm, and a live phase (maintenance +
// churn + concurrent timed-release sessions driven through tr) — and emits
// BENCH_perf.json so the wall-clock trajectory of the core is tracked
// run-over-run like every other bench artifact.
//
// Sanity gates make the suite CI-runnable: lookups must not fail on a
// healthy ring, stored keys must be retrievable, at least one session must
// deliver, and each scenario must finish inside a *generous* wall-clock
// budget (the perf-smoke CI job catches 10x regressions, not 10%). Any gate
// violation exits nonzero.
//
// Flags:
//   --population=N   run one custom scenario at this size instead of the
//                    pinned set (the 100k acceptance run:
//                    `perf_suite --population=100000 --backend=chord`)
//   --backend=chord|kademlia   backend for the custom scenario
//   --max-seconds=S  wall-clock budget per scenario (overrides the pinned
//                    defaults; 0 disables the budget gate)
//   --quick          pinned set without the 10k scenarios (fast local
//                    smoke; the perf-smoke CI job runs the full pinned set)
//   --help           print the flag table and exit
// Unknown flags, malformed values and stray arguments exit 2 with a
// diagnostic listing the known flags.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cloud/cloud_store.hpp"
#include "common/error.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "dht/chord_network.hpp"
#include "dht/churn_driver.hpp"
#include "dht/kademlia.hpp"
#include "emerge/experiment/table.hpp"
#include "emerge/protocol.hpp"
#include "emerge/session_dispatcher.hpp"
#include "emerge/types.hpp"
#include "sim/simulator.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace emergence;
using emergence::core::DhtBackend;

struct PerfScenario {
  std::string name;
  DhtBackend backend = DhtBackend::kChord;
  std::size_t population = 1000;
  std::size_t lookups = 2000;       ///< lookup-storm size
  std::size_t kv_ops = 500;         ///< put/get-storm size
  std::size_t sessions = 4;         ///< concurrent timed-release sessions
  double horizon = 600.0;           ///< virtual seconds of the live phase
  double lifetime_factor = 6.0;     ///< mean node lifetime = factor * horizon
  double budget_seconds = 60.0;     ///< generous wall-clock gate (0 = off)
};

struct PerfResult {
  double bootstrap_s = 0.0;
  double lookups_s = 0.0;
  double kv_s = 0.0;
  double live_s = 0.0;
  double total_s = 0.0;
  double mean_hops = 0.0;
  std::uint64_t lookup_failures = 0;
  std::size_t kv_misses = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t deaths = 0;
  std::uint64_t events_executed = 0;
  std::size_t max_queue_depth = 0;
  bool sane = true;
  bool within_budget = true;
};

PerfResult run_scenario(const PerfScenario& s) {
  PerfResult r;
  const emergence::bench::WallTimer total;

  sim::Simulator sim;
  Rng rng(0x9e3779b97f4a7c15ULL ^ s.population);

  // -- phase 1: bootstrap ------------------------------------------------------
  const emergence::bench::WallTimer t_boot;
  std::unique_ptr<dht::ChordNetwork> chord;
  std::unique_ptr<dht::KademliaNetwork> kademlia;
  dht::Network* net = nullptr;
  dht::LookupStats* stats = nullptr;
  // The service cadence of every fleet world (ScenarioSpec's default).
  const double repair_interval = workload::ScenarioSpec{}.repair_interval;
  if (s.backend == DhtBackend::kChord) {
    const workload::ChordCadence cadence =
        workload::chord_cadence(repair_interval);
    dht::NetworkConfig cfg;
    cfg.run_maintenance = true;
    cfg.stabilize_interval = cadence.stabilize_interval;
    cfg.replica_repair_interval = cadence.replica_repair_interval;
    cfg.exact_join_fingers = false;  // O(log n) joins; fix_fingers converges
    chord = std::make_unique<dht::ChordNetwork>(sim, rng, cfg);
    chord->bootstrap(s.population);
    net = chord.get();
    stats = &chord->lookup_stats();
  } else {
    dht::KademliaConfig cfg;
    cfg.run_maintenance = true;
    cfg.republish_interval = repair_interval;
    kademlia = std::make_unique<dht::KademliaNetwork>(sim, rng, cfg);
    kademlia->bootstrap(s.population);
    net = kademlia.get();
    stats = &kademlia->lookup_stats();
  }
  r.bootstrap_s = t_boot.seconds();

  // -- phase 2: lookup storm ---------------------------------------------------
  const emergence::bench::WallTimer t_lookup;
  for (std::size_t i = 0; i < s.lookups; ++i) {
    (void)net->lookup(
        dht::NodeId::hash_of_text("perf-lookup-" + std::to_string(i)));
  }
  r.lookups_s = t_lookup.seconds();
  r.mean_hops = stats->mean_hops();
  r.lookup_failures = stats->failures;

  // -- phase 3: put/get storm --------------------------------------------------
  const emergence::bench::WallTimer t_kv;
  const SharedBytes value =
      shared_bytes(Bytes(64, static_cast<std::uint8_t>(0xAB)));
  for (std::size_t i = 0; i < s.kv_ops; ++i) {
    net->put(dht::NodeId::hash_of_text("perf-kv-" + std::to_string(i)), value);
  }
  for (std::size_t i = 0; i < s.kv_ops; ++i) {
    if (net->get(dht::NodeId::hash_of_text("perf-kv-" + std::to_string(i))) ==
        nullptr) {
      ++r.kv_misses;
    }
  }
  r.kv_s = t_kv.seconds();

  // -- phase 4: live phase (maintenance + churn + sessions through tr) ---------
  const emergence::bench::WallTimer t_live;
  cloud::CloudStore cloud;
  core::SessionDispatcher dispatcher(*net);
  std::vector<std::unique_ptr<core::TimedReleaseSession>> sessions;
  core::SessionConfig config;
  config.kind = core::SchemeKind::kJoint;
  config.shape = core::PathShape{2, 3};
  config.emerging_time = s.horizon;
  for (std::size_t i = 0; i < s.sessions; ++i) {
    sessions.push_back(std::make_unique<core::TimedReleaseSession>(
        core::SessionArgs{.dispatcher = dispatcher,
                          .cloud = cloud,
                          .config = config,
                          .seed = 0xF00D + i}));
    sessions[i]->send(bytes_of("perf-suite-payload"),
                      "receiver-" + std::to_string(i));
  }
  dht::ChurnConfig churn_cfg;
  churn_cfg.mean_lifetime = s.horizon * s.lifetime_factor;
  churn_cfg.replace_dead_nodes = true;
  dht::ChurnDriver churn(*net, churn_cfg);
  churn.start();
  sim.run_until(s.horizon + 5.0);
  churn.stop();
  for (const auto& session : sessions) {
    if (session->secret_released()) ++r.deliveries;
  }
  r.deaths = churn.deaths();
  r.live_s = t_live.seconds();

  r.events_executed = sim.executed_events();
  r.max_queue_depth = sim.max_queue_depth();
  r.total_s = total.seconds();

  r.sane = r.lookup_failures == 0 && r.kv_misses == 0 && r.deliveries >= 1;
  r.within_budget = s.budget_seconds <= 0.0 || r.total_s <= s.budget_seconds;
  return r;
}

std::vector<PerfScenario> pinned_scenarios(bool quick) {
  // Budgets are ~10x the wall clock measured on a single 2020-era core so
  // the CI gate trips on order-of-magnitude regressions only.
  std::vector<PerfScenario> set;
  auto add = [&](DhtBackend backend, std::size_t population, double budget) {
    PerfScenario s;
    s.backend = backend;
    s.population = population;
    s.budget_seconds = budget;
    s.name = core::to_string(backend) + "_" + std::to_string(population);
    set.push_back(std::move(s));
  };
  add(DhtBackend::kChord, 1000, 30.0);
  add(DhtBackend::kKademlia, 1000, 60.0);
  if (!quick) {
    add(DhtBackend::kChord, 10000, 120.0);
    add(DhtBackend::kKademlia, 10000, 300.0);
  }
  return set;
}

struct Options {
  std::size_t population = 0;  // 0 = pinned set
  DhtBackend backend = DhtBackend::kChord;
  double max_seconds = -1.0;  // <0 = per-scenario defaults
  bool quick = false;
  bool help = false;
};

/// Registers every perf_suite flag on the shared OptionTable: one
/// registration serves --flag parsing, the unknown-flag diagnostic and
/// --help.
void add_suite_options(OptionTable& table, Options& o) {
  table.add_size("population",
                 "run one custom scenario at this size instead of the "
                 "pinned set",
                 &o.population);
  table.add_choice(
      "backend", "backend for the custom scenario",
      {{"chord", [&o] { o.backend = DhtBackend::kChord; }},
       {"kademlia", [&o] { o.backend = DhtBackend::kKademlia; }}});
  table.add_real("max-seconds",
                 "wall-clock budget per scenario (0 disables the gate)",
                 &o.max_seconds);
  table.add_flag("quick", "pinned set without the 10k scenarios", &o.quick);
  table.add_flag("help", "print this help and exit", &o.help);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  OptionTable cli;
  add_suite_options(cli, o);
  try {
    const std::vector<std::string> positional = cli.parse_cli(argc, argv);
    if (!positional.empty()) {
      throw PreconditionError("unexpected argument '" + positional[0] +
                              "' (known: " + cli.known_keys() + ")");
    }
  } catch (const Error& e) {
    std::cerr << "perf_suite: " << e.what() << "\n";
    return 2;
  }
  if (o.help) {
    std::cout << "perf_suite: simulation-core scaling phases per scenario\n"
              << cli.help();
    return 0;
  }

  std::vector<PerfScenario> scenarios;
  if (o.population > 0) {
    PerfScenario s;
    s.backend = o.backend;
    s.population = o.population;
    s.name = core::to_string(o.backend) + "_" + std::to_string(o.population);
    s.budget_seconds = 0.0;  // custom runs gate on sanity only by default
    scenarios.push_back(std::move(s));
  } else {
    scenarios = pinned_scenarios(o.quick);
  }
  if (o.max_seconds >= 0.0) {
    for (PerfScenario& s : scenarios) s.budget_seconds = o.max_seconds;
  }

  std::cout << "# == perf_suite: simulation-core scaling ==\n"
            << "# phases per scenario: bootstrap | " << scenarios[0].lookups
            << " lookups | " << scenarios[0].kv_ops
            << " put+get | live (maintenance + churn + "
            << scenarios[0].sessions << " sessions through tr over "
            << scenarios[0].horizon << " virtual s).\n\n";

  emergence::bench::BenchReport json(
      "perf", scenarios.size(), 1,
      o.population > 0 ? scenarios[0].name : "pinned-perf-set",
      0x9e3779b97f4a7c15ULL);
  core::FigureTable table(
      "perf_suite",
      {"population", "chord", "bootstrap_s", "lookups_s", "kv_s", "live_s",
       "total_s", "mean_hops", "deliveries", "deaths", "events", "max_queue",
       "budget_s", "pass"});
  table.set_caption(
      "per-phase wall-clock seconds per scenario; chord=1 for the Chord "
      "backend, 0 for Kademlia; pass=1 when sanity + budget gates hold");

  bool all_pass = true;
  for (const PerfScenario& s : scenarios) {
    const PerfResult r = run_scenario(s);
    const bool pass = r.sane && r.within_budget;
    all_pass = all_pass && pass;
    table.add_row({static_cast<double>(s.population),
                   s.backend == DhtBackend::kChord ? 1.0 : 0.0, r.bootstrap_s,
                   r.lookups_s, r.kv_s, r.live_s, r.total_s, r.mean_hops,
                   static_cast<double>(r.deliveries),
                   static_cast<double>(r.deaths),
                   static_cast<double>(r.events_executed),
                   static_cast<double>(r.max_queue_depth), s.budget_seconds,
                   pass ? 1.0 : 0.0});
    std::cout << s.name << ": bootstrap " << r.bootstrap_s << "s, "
              << "lookups " << r.lookups_s << "s (mean " << r.mean_hops
              << " hops, " << r.lookup_failures << " failures), kv " << r.kv_s
              << "s (" << r.kv_misses << " misses), live " << r.live_s
              << "s (" << r.deliveries << "/" << s.sessions << " delivered, "
              << r.deaths << " deaths, " << r.events_executed << " events), "
              << "total " << r.total_s << "s"
              << (pass ? "" : "  << FAILED") << "\n";
  }

  json.add_table(table);
  json.set_extra("scenarios", static_cast<double>(scenarios.size()));
  json.set_extra("all_pass", all_pass ? 1.0 : 0.0);
  json.finish();

  if (!all_pass) {
    std::cout << "\nperf_suite: FAILED (sanity or budget gate)\n";
    return 1;
  }
  std::cout << "\nperf_suite: all scenarios passed\n";
  return 0;
}
