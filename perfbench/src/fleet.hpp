// Fleet helpers shared by the fleet workloads, the executor probe and the
// wire workloads' companion fleet metrics.
#pragma once

#include <vector>

#include "bench.hpp"
#include "dht/chord_network.hpp"
#include "workload/scenario.hpp"
#include "workload/session_fleet.hpp"

namespace perfbench {

/// The fleet-wan scenario: the ROADMAP's pinned poisson-open:net=wan on a
/// 20k-node Chord world, `sessions` sessions from `seed`.
emergence::workload::ScenarioSpec fleet_wan_spec(std::uint64_t seed,
                                                 std::size_t sessions);

/// The NetworkConfig SessionFleet gives its Chord world for `spec`.
emergence::dht::NetworkConfig fleet_network_config(
    const emergence::workload::ScenarioSpec& spec);

/// One run_scenario call, timed from outside.
struct FleetRun {
  emergence::workload::FleetTally tally;
  double wall_s = 0.0;
  std::vector<double> chunk_wall_s;  ///< wall time of each virtual chunk
  std::uint64_t failed = 0;          ///< sessions that failed a check
};

/// dht.transport.*, sim.events_per_session and workload.* from one fleet.
void add_fleet_layer_metrics(const FleetRun& run, Result& out);

/// The executor probe: the fleet-wan scenario (at half a repetition's
/// budget) at domains=4 against its default schedule. Emits
/// sim.executor.speedup_d4 and returns the default-schedule run.
FleetRun run_executor_probe(const Args& args, Result& out);

}  // namespace perfbench
