// Per-layer probes: public calls of each layer timed at a workload's own
// sizes. Every traced run emits them.
#pragma once

#include <cstddef>

#include "bench.hpp"
#include "dht/chord_network.hpp"

namespace perfbench {

/// dht.chord.*, sim.ns_per_event, emerge.*, crypto.* and
/// service.wire_decode_ns. The dht probes build a world of `nodes` nodes
/// with `cfg`; the simulator probe keeps three timers per node pending.
void run_layer_probes(const Args& args, std::size_t nodes,
                      const emergence::dht::NetworkConfig& cfg, Result& out);

/// The companion wire probe of the fleet workloads' traced runs: a
/// 32-daemon traced ring, so every traced run reports the service.*
/// metrics.
void run_wire_probe(const Args& args, Result& out);

}  // namespace perfbench
