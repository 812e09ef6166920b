// End-to-end cross-validation sweep: runs the full protocol stack (DHT +
// crypto + simulator + adversary + churn) as SessionFleet worlds over the
// pinned scenario matrix (workload/crossval.hpp) and gates the release /
// drop / timing rates against the statistical engine's estimates at the
// same parameter points.
//
// Any gated divergence beyond the two-sample binomial bound exits 1 — by
// construction that is a bug in one of the engines, not noise (see
// docs/architecture.md, "Two engines, one truth"). CI runs this as a smoke
// job with a reduced population and run count and uploads the JSON
// artifact.
//
// Flags:
//   --runs=N         full-stack worlds per scenario (default 300)
//   --quick          100 worlds per scenario
//   --threads=N      sweep workers, 0 = auto (never changes results)
//   --population=N   DHT size per world (default 100)
//   --help           print the flag table and exit
// EMERGENCE_BENCH_RUNS / EMERGENCE_BENCH_THREADS override --runs /
// --threads. Unknown flags, malformed values and stray arguments exit 2
// with a diagnostic listing the known flags.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/options.hpp"
#include "emerge/experiment/table.hpp"
#include "workload/crossval.hpp"

namespace {

using namespace emergence;

struct Options {
  std::size_t runs = 300;
  std::size_t threads = 0;
  std::size_t population = 100;
  bool quick = false;
  bool help = false;
};

void add_crossval_options(OptionTable& table, Options& o) {
  table.add_size("runs", "full-stack worlds per scenario", &o.runs);
  table.add_flag("quick", "100 worlds per scenario", &o.quick);
  table.add_size("threads", "sweep workers, 0 = auto (never changes results)",
                 &o.threads);
  table.add_size("population", "DHT nodes per world", &o.population);
  table.add_flag("help", "print this help and exit", &o.help);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  OptionTable cli;
  add_crossval_options(cli, o);
  std::vector<workload::ScenarioSpec> matrix;
  try {
    const std::vector<std::string> positional = cli.parse_cli(argc, argv);
    if (!positional.empty()) {
      throw PreconditionError("unexpected argument '" + positional[0] + "'");
    }
    if (!o.help) {
      if (o.quick) o.runs = 100;
      if (const char* env = std::getenv("EMERGENCE_BENCH_RUNS")) {
        o.runs = bench::parse_count(env, o.runs, "EMERGENCE_BENCH_RUNS");
      }
      // Every row is checked before any world runs, so a run count or
      // population the matrix cannot use is a usage error, not a crash
      // halfway through.
      matrix = workload::crossval_matrix(o.runs, o.population);
      for (const workload::ScenarioSpec& s : matrix) s.validate();
    }
  } catch (const Error& e) {
    std::string what = e.what();
    if (what.find("known:") == std::string::npos) {
      what += " (known: " + cli.known_keys() + ")";
    }
    std::cerr << "e2e_crossval: " << what << "\n";
    return 2;
  }
  if (o.help) {
    std::cout << "e2e_crossval: full stack vs stat engine over the pinned "
                 "scenario matrix\n"
              << cli.help();
    return 0;
  }
  if (const char* env = std::getenv("EMERGENCE_BENCH_THREADS")) {
    o.threads = bench::parse_count(env, o.threads, "EMERGENCE_BENCH_THREADS");
  }

  const std::size_t runs = o.runs;
  const std::size_t population = o.population;
  // Stat-engine runs are ~1000x cheaper than full-stack worlds; a larger
  // sample shrinks its share of the comparison bound to near nothing.
  const std::size_t stat_runs = std::max<std::size_t>(2000, 20 * runs);

  core::SweepOptions sweep_options;
  sweep_options.threads = o.threads;
  core::SweepRunner sweeps(sweep_options);

  std::cout << "# == e2e cross-validation: full stack vs stat engine ==\n"
            << "# setup: " << runs << " full-stack worlds vs " << stat_runs
            << " stat runs per scenario, population " << population
            << ", z = 4 binomial gates.\n"
            << "# columns: full-stack rate, stat-engine rate, difference, "
               "allowed bound, pass.\n\n";

  bench::BenchReport json("e2e_crossval", runs, sweeps.threads(),
                          "crossval-matrix", 0xE2E0C0DE);

  std::size_t failures = 0;
  std::size_t comparisons = 0;
  for (const workload::ScenarioSpec& scenario : matrix) {
    const workload::CrossValResult result =
        workload::cross_validate(sweeps, scenario, stat_runs);

    core::FigureTable table(scenario.name, {"metric", "full_stack",
                                            "stat_engine", "diff", "bound",
                                            "pass"});
    std::string caption = "metrics:";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
      const workload::CrossValMetric& m = result.metrics[i];
      caption += " " + std::to_string(i) + "=" + m.metric;
      table.add_row({static_cast<double>(i), m.full_stack, m.stat_engine,
                     m.diff(), m.bound, m.pass ? 1.0 : 0.0});
      ++comparisons;
      if (!m.pass) ++failures;
      std::cout << scenario.name << " / " << m.metric
                << ": fs=" << m.full_stack << " stat=" << m.stat_engine
                << " diff=" << m.diff() << " bound=" << m.bound
                << (m.pass ? "" : "  << DIVERGENT") << "\n";
    }
    const workload::FleetTally& fs = result.full_stack;
    const dht::TransportStats& net = fs.transport;
    caption +=
        "; holders_stuck=" + std::to_string(fs.holders_stuck) +
        ", churn_deaths=" + std::to_string(fs.churn_deaths) +
        ", max_delivery_offset_ns=" +
        std::to_string(fs.max_delivery_offset_ns) + "; " +
        bench::latency_caption(fs.latency_us, scenario.holding_period()) +
        "; net=" + scenario.transport.describe() +
        " attempts=" + std::to_string(net.attempts) +
        " dropped=" + std::to_string(net.dropped) +
        " retried=" + std::to_string(net.retried) +
        " timed_out=" + std::to_string(net.timed_out) + " hop_p50_s=" +
        std::to_string(
            static_cast<double>(net.hop_latency_us.percentile(0.5)) * 1e-6) +
        " hop_p99_s=" +
        std::to_string(
            static_cast<double>(net.hop_latency_us.percentile(0.99)) * 1e-6);
    table.set_caption(caption);
    json.add_table(table);
  }

  json.set_extra("comparisons", static_cast<double>(comparisons));
  json.set_extra("failures", static_cast<double>(failures));
  json.set_extra("population", static_cast<double>(population));
  json.finish();

  if (failures > 0) {
    std::cerr << "\ne2e_crossval: " << failures << " of " << comparisons
              << " gated comparisons diverged beyond the binomial bound\n";
    return 1;
  }
  std::cout << "\ne2e_crossval: all " << comparisons
            << " gated comparisons within bounds\n";
  return 0;
}
