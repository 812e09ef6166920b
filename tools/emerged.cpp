// emerged — the runnable node daemon and its operator commands.
//
// One binary, three subcommands, all speaking the same wire protocol
// (src/service/wire.hpp) on a WallClock + UdpSocket:
//
//   emerged serve  --listen=IP:PORT [--seed-node=IP:PORT] [flags]
//       Runs one Chord node + holder engine (service::NodeDaemon) until
//       SIGINT/SIGTERM. Every flag comes from add_daemon_options — the
//       daemon's one config surface — so --help IS the authoritative list.
//
//   emerged submit --daemon=IP:PORT --message=TEXT [--await] [flags]
//       Submits a timed-release session through a running daemon; protocol
//       shape flags (k, l, T, scheme, carriers, threshold) come from
//       add_protocol_options, the same table the scenario grammar uses.
//       With --await the command stays up as the receiver and exits 0 only
//       if the secret emerges within --tolerance of tr.
//
//   emerged status --daemon=IP:PORT [--expect-ring=N] [--expect-clean]
//       Asks one daemon for its status, then walks successor links all the
//       way around the ring printing each node. --expect-ring fails the
//       command unless the walk closes with exactly N distinct nodes;
//       --expect-clean fails it if any node counted a malformed frame;
//       --metrics additionally queries every walked node's metrics
//       snapshot over the wire and fails unless all of them answer.
//
// Observability: serve takes --metrics-interval=S (periodic prometheus
// text dump on stdout; the status line and the dump both carry the
// socket's sendto failures by errno class), --trace-out=PATH and
// --trace-sample=RATE (session lifecycle events appended as JSONL, sampled
// deterministically on the session nonce).
//
// tools/cluster.sh composes these into the 16-node localhost harness.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/options.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/udp_socket.hpp"
#include "sim/wall_clock.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace emergence;          // NOLINT(build/namespaces)
using namespace emergence::service; // NOLINT(build/namespaces)

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

/// A stable, unique default identity: hostname:port. Distinguishes
/// same-image containers (unique hostnames) and same-host daemons (unique
/// ports) without requiring --name.
std::string default_name(const Endpoint& listen) {
  char host[256] = "localhost";
  (void)::gethostname(host, sizeof(host) - 1);
  return std::string(host) + ":" + std::to_string(listen.port);
}

int usage() {
  std::cerr
      << "usage: emerged <serve|submit|status> [--key=value ...]\n"
         "       emerged <subcommand> --help   lists every flag\n";
  return 2;
}

// -- serve --------------------------------------------------------------------

int cmd_serve(int argc, char** argv) {
  DaemonConfig config;
  double status_interval = 10.0;
  double metrics_interval = 0.0;
  std::string trace_out;
  double trace_sample = 1.0;
  bool help = false;
  OptionTable table;
  add_daemon_options(table, config);
  table.add_real("status-interval",
                 "seconds between status lines on stdout (0 = quiet)",
                 &status_interval);
  table.add_real("metrics-interval",
                 "seconds between prometheus text dumps on stdout (0 = off)",
                 &metrics_interval);
  table.add_string("trace-out", "PATH",
                   "append daemon trace events as JSONL to this file",
                   &trace_out);
  table.add_real("trace-sample",
                 "fraction of sessions traced (keyed on the session nonce)",
                 &trace_sample);
  table.add_flag("help", "print this flag list", &help);

  const auto positional = table.parse_cli(argc, argv, 2);
  if (help) {
    std::cout << "emerged serve: run one node daemon\n" << table.help();
    return 0;
  }
  require(positional.empty(), "serve takes no positional arguments");
  require(config.listen.valid(), "serve requires --listen=IP:PORT");

  sim::WallClock clock;
  UdpSocket socket(config.listen);
  config.listen = socket.local_endpoint();  // resolve a port-0 bind
  // Containers that all listen on 0.0.0.0:4100 must not share an identity.
  if (config.name.empty()) config.name = default_name(config.listen);
  NodeDaemon daemon(clock, socket, config);

  // Optional JSONL trace sink: the daemon records wall-clock session events
  // (package_received / slot_processed / deliver / submit_accepted) onto one
  // tracer shard, drained incrementally so a long-lived daemon never grows
  // an unbounded buffer.
  std::optional<obs::Tracer> tracer;
  std::ofstream trace_os;
  if (!trace_out.empty()) {
    tracer.emplace(config.rng_seed, trace_sample);
    trace_os.open(trace_out, std::ios::app);
    require(static_cast<bool>(trace_os),
            "serve: cannot open --trace-out file " + trace_out);
    daemon.set_trace(tracer->new_shard());
  }
  daemon.start();

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::cout << "emerged: " << daemon.self().id.to_hex().substr(0, 12) << " on "
            << config.listen.to_string()
            << (config.seed ? " joining via " + config.seed->to_string()
                            : " creating a new ring")
            << std::endl;

  double next_status =
      status_interval > 0.0 ? clock.now() + status_interval : 0.0;
  double next_metrics =
      metrics_interval > 0.0 ? clock.now() + metrics_interval : 0.0;
  while (g_stop == 0) {
    clock.fire_due();
    double wait = 0.2;
    if (auto until = clock.seconds_until_next())
      wait = std::min(wait, *until);
    socket.poll(wait);
    clock.fire_due();
    if (status_interval > 0.0 && clock.now() >= next_status) {
      next_status = clock.now() + status_interval;
      const StatusReply s = daemon.local_status();
      const DaemonReport& r = daemon.report();
      std::cout << "status successors=" << s.successors.size()
                << " predecessor=" << (s.has_predecessor ? 1 : 0)
                << " store=" << s.store_size << " slots=" << s.holder_slots
                << " deliveries=" << s.deliveries
                << " packages_rx=" << r.packages_received
                << " stuck=" << r.holders_stuck
                << " malformed=" << s.malformed_frames;
      for (const auto& [label, count] : socket.send_errors().by_class())
        std::cout << " send_" << label << "=" << count;
      std::cout << std::endl;
    }
    if (metrics_interval > 0.0 && clock.now() >= next_metrics) {
      next_metrics = clock.now() + metrics_interval;
      obs::MetricsRegistry registry;
      daemon.publish_metrics(registry);
      for (const auto& [label, count] : socket.send_errors().by_class())
        registry.counter("emergence_udp_send_errors_total",
                         {{"errno", label}}) = count;
      std::cout << "# metrics t=" << std::fixed << clock.now() << "\n"
                << registry.to_prometheus() << std::flush;
    }
    if (tracer.has_value() && tracer->event_count() > 0) {
      tracer->drain_jsonl(trace_os);
      trace_os.flush();
    }
  }
  std::cout << "emerged: stopping" << std::endl;
  return 0;
}

// -- shared client plumbing ---------------------------------------------------

struct ClientWorld {
  sim::WallClock clock;
  UdpSocket socket;
  WireClient client;

  ClientWorld(const Endpoint& daemon, const Endpoint& bind)
      : socket(bind),
        client(clock, socket, WireClient::Options{daemon, 0.5, 8, 10.0},
               [this]() {
                 clock.fire_due();
                 double wait = 0.05;
                 if (auto until = clock.seconds_until_next())
                   wait = std::min(wait, *until);
                 socket.poll(wait);
                 return true;
               }) {}
};

// -- submit -------------------------------------------------------------------

int cmd_submit(int argc, char** argv) {
  api::SubmitRequest request;
  std::string daemon_text;
  std::string message_text = "the self-emerging secret";
  std::string bind_text = "127.0.0.1:0";
  bool await_emergence = false;
  double tolerance = 2.0;
  bool help = false;

  OptionTable table;
  workload::add_protocol_options(table, request.scheme, request.shape,
                       request.carriers_n, request.threshold_m,
                       request.emerging_time);
  table.add_string("daemon", "IP:PORT", "daemon that executes the submit",
                   &daemon_text);
  table.add_string("message", "TEXT", "plaintext to self-emerge",
                   &message_text);
  table.add_string("bind", "IP:PORT", "local receiver endpoint", &bind_text);
  table.add_real("assembly-delay", "holder share-assembly delay (seconds)",
                 &request.assembly_delay);
  table.add_u64("seed", "sender-side DRBG seed", &request.seed);
  table.add_flag("await", "stay up as the receiver until the secret emerges",
                 &await_emergence);
  table.add_real("tolerance",
                 "max seconds past tr the emergence may arrive (--await)",
                 &tolerance);
  table.add_flag("help", "print this flag list", &help);

  const auto positional = table.parse_cli(argc, argv, 2);
  if (help) {
    std::cout << "emerged submit: run one timed-release session\n"
              << table.help();
    return 0;
  }
  require(positional.empty(), "submit takes no positional arguments");
  require(!daemon_text.empty(), "submit requires --daemon=IP:PORT");

  request.message = Bytes(message_text.begin(), message_text.end());
  ClientWorld world(resolve_endpoint(daemon_text), resolve_endpoint(bind_text));

  const api::SubmitReceipt receipt = world.client.submit(request);
  std::cout << "submitted nonce=" << receipt.session_nonce
            << " start=" << std::fixed << receipt.start_time
            << " release=" << receipt.release_time << std::endl;
  if (!await_emergence) return 0;

  const double budget =
      receipt.release_time - world.clock.now() + tolerance + 1.0;
  const auto event =
      world.client.await_event(receipt.session_nonce, budget);
  if (!event.has_value()) {
    std::cerr << "FAIL: no emergence within " << budget << "s" << std::endl;
    return 1;
  }
  const double lag = event->delivery_time - event->release_time;
  const std::string secret(event->secret.begin(), event->secret.end());
  std::cout << "emerged nonce=" << event->session_nonce << " lag=" << lag
            << "s secret=\"" << secret << "\"" << std::endl;
  if (secret != message_text) {
    std::cerr << "FAIL: secret does not match the submitted message"
              << std::endl;
    return 1;
  }
  if (lag < 0.0 || lag > tolerance) {
    std::cerr << "FAIL: delivery lag " << lag << "s outside [0, " << tolerance
              << "]" << std::endl;
    return 1;
  }
  return 0;
}

// -- status -------------------------------------------------------------------

int cmd_status(int argc, char** argv) {
  std::string daemon_text;
  std::string bind_text = "127.0.0.1:0";
  std::size_t expect_ring = 0;
  bool expect_clean = false;
  bool metrics = false;
  bool help = false;

  OptionTable table;
  table.add_string("daemon", "IP:PORT", "any daemon in the ring",
                   &daemon_text);
  table.add_string("bind", "IP:PORT", "local endpoint for the queries",
                   &bind_text);
  table.add_size("expect-ring",
                 "fail unless the successor walk closes with exactly N nodes",
                 &expect_ring);
  table.add_flag("expect-clean",
                 "fail if any node counted a malformed frame", &expect_clean);
  table.add_flag("metrics",
                 "also query every walked node's metrics snapshot "
                 "(fails unless every node answers)",
                 &metrics);
  table.add_flag("help", "print this flag list", &help);

  const auto positional = table.parse_cli(argc, argv, 2);
  if (help) {
    std::cout << "emerged status: inspect a ring\n" << table.help();
    return 0;
  }
  require(positional.empty(), "status takes no positional arguments");
  require(!daemon_text.empty(), "status requires --daemon=IP:PORT");

  ClientWorld world(resolve_endpoint(daemon_text), resolve_endpoint(bind_text));

  // Walk successor links until the ring closes (or an obvious bound).
  std::vector<StatusReply> ring;
  std::set<std::string> seen;
  std::uint64_t malformed_total = 0;
  Endpoint cursor = resolve_endpoint(daemon_text);
  std::size_t metrics_answers = 0;
  for (std::size_t i = 0; i < 4096; ++i) {
    const StatusReply s = world.client.status_of(cursor, 5.0);
    if (!seen.insert(s.self.id.to_hex()).second) break;  // ring closed
    ring.push_back(s);
    malformed_total += s.malformed_frames;
    std::cout << s.self.id.to_hex().substr(0, 12) << " @ "
              << s.self.addr.to_string()
              << " succ=" << s.successors.size()
              << " pred=" << (s.has_predecessor ? 1 : 0)
              << " store=" << s.store_size << " slots=" << s.holder_slots
              << " deliveries=" << s.deliveries
              << " malformed=" << s.malformed_frames << std::endl;
    if (metrics) {
      // A node that answers status but not metrics is a FAIL: the throw
      // propagates to main's handler and exits nonzero.
      const MetricsResponse m = world.client.metrics_of(s.self.addr, 5.0);
      ++metrics_answers;
      std::cout << "  metrics series=" << m.entries.size();
      for (const auto& [key, value] : m.entries) {
        if (key == "emergence_daemon_deliveries_total" ||
            key == "emergence_daemon_packages_received_total" ||
            key == "emergence_store_size") {
          std::cout << " " << key << "=" << value;
        }
      }
      std::cout << std::endl;
    }
    if (s.successors.empty()) break;
    cursor = s.successors.front().addr;
  }
  std::cout << "ring size " << ring.size() << ", malformed frames "
            << malformed_total << std::endl;
  if (metrics) {
    std::cout << "metrics answered by " << metrics_answers << "/"
              << ring.size() << " nodes" << std::endl;
  }

  if (expect_ring != 0 && ring.size() != expect_ring) {
    std::cerr << "FAIL: expected a ring of " << expect_ring << ", walked "
              << ring.size() << std::endl;
    return 1;
  }
  if (expect_clean && malformed_total != 0) {
    std::cerr << "FAIL: " << malformed_total << " malformed frames counted"
              << std::endl;
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "serve") return cmd_serve(argc, argv);
    if (command == "submit") return cmd_submit(argc, argv);
    if (command == "status") return cmd_status(argc, argv);
    if (command == "--help" || command == "-h" || command == "help")
      return usage();
  } catch (const emergence::Error& e) {
    std::cerr << "emerged " << command << ": " << e.what() << std::endl;
    return 1;
  }
  return usage();
}
