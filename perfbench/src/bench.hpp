// Shared declarations of the repository benchmark (perfbench).
//
// The benchmark drives the library's public entry points from outside:
// workload::run_scenario for the simulated fleets, NodeDaemon + WireClient
// for the wire workloads, and the dht/sim/emerge/crypto/service calls the
// per-layer probes time. Nothing here reaches into src/ internals, and no
// tracing lives inside src/: every span is recorded by this directory's
// code around a public call, a DatagramSocket decorator or a sim::Clock
// decorator (README.md has the metric -> layer -> workload map).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One run's command line (run.py passes its flags through unchanged).
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one run reports: the final JSON line plus the human table.
class Result {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Records a failed correctness check (and keeps going, so every failed
  /// check is listed before the run exits nonzero).
  void check(bool ok, const std::string& what);
  void note(const std::string& line) { notes_.push_back(line); }

  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

  std::uint64_t attempted = 0;  ///< sessions attempted in the measured phase
  std::uint64_t failed = 0;     ///< sessions that failed a check

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
};

// -- helpers (report.cpp) -----------------------------------------------------

/// Seconds on a monotonic clock.
double now_s();
/// Process CPU time (user + system) in seconds.
double cpu_s();
/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();
/// Median of `v` (0 when empty).
double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1] (0 when empty).
double percentile(std::vector<double> v, double q);
/// Whether a measured phase starts another repetition: always the first
/// two, then only while one more of average length still ends within
/// `seconds`.
bool another_rep(std::size_t reps_done, double elapsed_s, double seconds);
/// SplitMix64: derives independent sub-seeds from the run's --seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

// -- workloads ----------------------------------------------------------------

void run_fleet_wan(const Args& args, Result& out);
void run_fleet_churn(const Args& args, Result& out);
void run_wire_ring(const Args& args, Result& out);
void run_udp_loopback(const Args& args, Result& out);
/// The self-test of the checks: a healthy ring must read failed_ratio 0,
/// and one whose Deliver frames are withheld from the client must read 1.
/// Returns the exit code.
int run_self_test();

}  // namespace perfbench
