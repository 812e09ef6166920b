// perfbench: the repository benchmark's one executable.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-dir DIR]
//   perfbench --self-test
//
// Workloads: fleet-wan, fleet-churn, wire-ring, udp-loopback (README.md
// says why each exists). With --trace 0 the run reports the end-to-end
// metrics; with --trace 1 it reports the per-layer metrics, records spans
// around every timed call and writes them to DIR/<workload>.csv.
// Every run checks the program's outputs; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}, and the exit code is
// nonzero when any check failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "spans.hpp"

namespace {

using namespace perfbench;

std::string cpu_model() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-dir DIR] | --self-test\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Numbers from an unoptimised or assertion-enabled build measure the
  // build, not the program: refuse before any work.
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  std::cerr << "perfbench: refusing to run a debug or assertion-enabled "
               "build (build type " PERFBENCH_BUILD_TYPE ")\n";
  return 3;
#endif

  Args args;
  std::string trace_dir = ".";
  bool self_test = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--trace-dir") {
        trace_dir = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (self_test) return run_self_test();
  if (!have_workload) return usage("--workload is required");
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");

  void (*workload)(const Args&, Result&) = nullptr;
  if (args.workload == "fleet-wan") workload = run_fleet_wan;
  if (args.workload == "fleet-churn") workload = run_fleet_churn;
  if (args.workload == "wire-ring") workload = run_wire_ring;
  if (args.workload == "udp-loopback") workload = run_udp_loopback;
  if (workload == nullptr) return usage("unknown workload " + args.workload);

  const unsigned cores = std::thread::hardware_concurrency();
  std::cout << "# perfbench workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << "\n"
            << "# host: cores=" << cores << " cpu=\"" << cpu_model() << "\"\n"
            << "# build: compiler=\"" << __VERSION__ << "\" type="
            << PERFBENCH_BUILD_TYPE << " NDEBUG=1\n";

  SpanLog spans;
  Result result;
  try {
    if (args.trace) g_trace_log = &spans;
    workload(args, result);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  g_spans = nullptr;
  g_trace_log = nullptr;

  if (args.trace) {
    // One file per workload: the latest traced run replaces the previous.
    const std::string path = trace_dir + "/" + args.workload + ".csv";
    spans.write_csv(path);
    std::cout << "# spans: " << spans.size() << " written to " << path << "\n";
    for (const auto& [name, t] : spans.summarize()) {
      std::cout << "# span " << name << ": count=" << t.count
                << " total_s=" << t.total_s << " self_s=" << t.self_s << "\n";
    }
  }

  for (const std::string& line : result.notes()) std::cout << "# " << line << "\n";
  for (const auto& m : result.metrics()) {
    result.check(std::isfinite(m.value), "metric " + m.name + " is not finite");
    std::cout << m.name << " = " << number(m.value) << " " << m.unit << "\n";
  }
  std::cout << "failed_ratio = "
            << number(result.attempted == 0
                          ? 1.0
                          : static_cast<double>(result.failed) /
                                static_cast<double>(result.attempted))
            << " (" << result.failed << " of " << result.attempted
            << " sessions)\n";
  result.check(result.attempted > 0, "no session was attempted");
  result.check(result.failed == 0,
               std::to_string(result.failed) + " session(s) failed a check");
  for (const std::string& f : result.failures())
    std::cout << "# CHECK FAILED: " << f << "\n";

  std::ostringstream json;
  json << "{\"correct\": " << (result.correct() ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& m : result.metrics()) {
    json << (first ? "" : ", ") << "\"" << json_escape(m.name)
         << "\": {\"value\": " << (std::isfinite(m.value) ? number(m.value) : "0")
         << ", \"unit\": \"" << json_escape(m.unit) << "\"}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return result.correct() ? 0 : 1;
}
