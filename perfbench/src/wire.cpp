// The wire workloads (wire-ring, udp-loopback), the companion wire probe
// of the fleets' traced runs and the self-test, on NodeDaemon + WireClient
// over the in-process hub or real loopback UDP.
#include <poll.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "bench.hpp"
#include "common/error.hpp"
#include "fleet.hpp"
#include "probes.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/datagram.hpp"
#include "service/udp_socket.hpp"
#include "sim/simulator.hpp"
#include "sim/wall_clock.hpp"
#include "spans.hpp"

namespace perfbench {

using namespace emergence;
using service::Endpoint;
using service::MessageType;

// Everything but the entry points at the end has internal linkage.
namespace {

/// Message types a measured session phase puts on the wire. Ping, Status
/// and Metrics frames are never sent by the benchmark's traffic;
/// FindSuccessor only at join, and nothing in the benchmark sends Get.
const std::vector<service::MessageType>& traffic_types();
std::string type_name(service::MessageType type);

/// Per-type receive counts, filled by TimedSocket.
using FrameCounts = std::array<std::uint64_t, 32>;

/// DatagramSocket decorator for the traced run: decodes each received
/// datagram's type with decode_frame, counts it, and records a span named
/// "service.handle.<type>" around the wrapped receive handler.
class TimedSocket final : public service::DatagramSocket {
 public:
  TimedSocket(service::DatagramSocket& inner, FrameCounts& counts)
      : inner_(inner), counts_(counts) {}
  void send_to(const service::Endpoint& to,
               BytesView datagram) override {
    inner_.send_to(to, datagram);
  }
  service::Endpoint local_endpoint() const override {
    return inner_.local_endpoint();
  }
  void on_receive(Handler handler) override;

 private:
  service::DatagramSocket& inner_;
  FrameCounts& counts_;
};

/// sim::Clock decorator for the traced run: records a span named
/// "service.timer" around every timer action a daemon schedules.
class TimedClock final : public sim::Clock {
 public:
  explicit TimedClock(sim::Clock& inner) : inner_(inner) {}
  sim::EventId schedule_at(sim::Time at,
                                      std::function<void()> action) override;
  sim::EventId schedule_in(sim::Time delay,
                                      std::function<void()> action) override;
  void cancel(sim::EventId id) override { inner_.cancel(id); }
  sim::Time now() const override { return inner_.now(); }

 private:
  std::function<void()> timed(std::function<void()> action);
  sim::Clock& inner_;
};

/// The client-side receive decorator every wire run installs: records when
/// each session's first Deliver frame reached the client (the lateness and
/// release-ahead checks need the client's own clock), and — in the
/// self-test only — withholds Deliver frames to prove the checks bite.
class ArrivalLog final : public service::DatagramSocket {
 public:
  ArrivalLog(service::DatagramSocket& inner,
             const sim::Clock& clock, bool withhold_deliver)
      : inner_(inner), clock_(clock), withhold_(withhold_deliver) {}
  void send_to(const service::Endpoint& to,
               BytesView datagram) override {
    inner_.send_to(to, datagram);
  }
  service::Endpoint local_endpoint() const override {
    return inner_.local_endpoint();
  }
  void on_receive(Handler handler) override;

  /// Client clock time of the first Deliver for `nonce`, if any arrived.
  std::optional<double> arrival(std::uint64_t nonce) const;

 private:
  service::DatagramSocket& inner_;
  const sim::Clock& clock_;
  bool withhold_;
  std::map<std::uint64_t, double> first_arrival_;
};

/// One submitted session, as the client saw it.
struct SentSession {
  std::uint64_t nonce = 0;
  Bytes message;
  double scheduled = 0.0;  ///< when the generator meant to send it
  double sent = 0.0;       ///< when submit() began
  double acked = 0.0;      ///< when submit() returned
  double release = 0.0;    ///< tr from the ack
  bool ack_ok = false;
};

/// The request every wire workload submits: joint k=2 l=3 with a 64-byte
/// secret drawn from (seed, index).
api::SubmitRequest make_request(std::uint64_t seed,
                                           std::uint64_t index, double T,
                                           double assembly_delay);

/// Checks every session (acked, delivered, byte-identical, not before tr)
/// and returns how many failed. `late_ms` collects lateness of the good
/// ones when non-null.
std::uint64_t check_sessions(const std::vector<SentSession>& sessions,
                             service::WireClient& client,
                             const ArrivalLog& log,
                             std::vector<double>* late_ms);

/// A ring of NodeDaemons named node-0.. on one in-process hub in virtual
/// time, plus one WireClient. `rng_seed` seeds the daemons' random
/// streams. With `traced`, daemons see TimedClock and TimedSocket; with
/// `withhold_deliver`, the client never sees a Deliver frame.
class InProcessRing {
 public:
  InProcessRing(std::size_t nodes, std::uint64_t rng_seed, bool traced,
                bool withhold_deliver = false);

  /// Runs virtual time until a successor walk from node 0 visits every
  /// daemon exactly once; returns false after `max_virtual_s`.
  bool converge(double max_virtual_s);

  /// Submits `budget` sessions open-loop (Poisson, `rate` per virtual
  /// second; the next submit waits only for the previous ack, a few
  /// virtual milliseconds) and drives the ring until every release time
  /// plus slack has passed.
  std::vector<SentSession> run_sessions(std::size_t budget, double rate,
                                        double T, std::uint64_t input_seed);

  sim::Simulator& sim() { return sim_; }
  service::MemoryDatagramHub& hub() { return hub_; }
  service::WireClient& client() { return *client_; }
  const ArrivalLog& arrivals() const { return *arrival_log_; }
  const FrameCounts& frame_counts() const { return counts_; }
  service::WireStats daemon_stats() const;
  std::size_t size() const { return nodes_.size(); }

 private:
  void drive_until(double t);

  sim::Simulator sim_;
  service::MemoryDatagramHub hub_;
  std::optional<TimedClock> timed_clock_;
  FrameCounts counts_{};
  struct Node {
    std::unique_ptr<service::DatagramSocket> socket;
    std::unique_ptr<TimedSocket> timed;
    std::unique_ptr<service::NodeDaemon> daemon;
  };
  std::vector<Node> nodes_;
  std::vector<const service::NodeDaemon*> daemons_;
  std::unique_ptr<service::DatagramSocket> client_socket_;
  std::unique_ptr<TimedSocket> client_timed_;
  std::unique_ptr<ArrivalLog> arrival_log_;
  std::unique_ptr<service::WireClient> client_;
};

/// NodeDaemons on real loopback UdpSockets plus one WireClient, all on one
/// WallClock and one thread: the benchmark's own poll loop is the event
/// pump (ppoll over every socket, drain the readable ones, fire due
/// timers).
class UdpCluster {
 public:
  UdpCluster(std::size_t nodes, std::uint64_t rng_seed);

  /// Pumps until the successor walk closes over every daemon; false after
  /// `max_wall_s` seconds.
  bool converge(double max_wall_s);

  /// Submits at a fixed `rate` per second for `window_s` seconds (open
  /// loop: each submit is due at its slot whether or not the previous one
  /// was acked), then pumps until every release time plus slack passed.
  std::vector<SentSession> run_sessions(double window_s, double rate,
                                        double T, double assembly_delay,
                                        std::uint64_t input_seed);

  service::WireClient& client() { return *client_; }
  const ArrivalLog& arrivals() const { return *arrival_log_; }
  service::WireStats daemon_stats() const;
  /// Datagrams drained per poll wakeup that found a readable socket.
  double datagrams_per_wakeup() const;
  /// Deliver frames the daemons' terminal holders sent.
  std::uint64_t holder_deliveries() const;

 private:
  void pump(double max_wait_s);

  sim::WallClock clock_;
  struct Node {
    std::unique_ptr<service::UdpSocket> socket;
    std::unique_ptr<service::NodeDaemon> daemon;
  };
  std::vector<Node> nodes_;
  std::vector<const service::NodeDaemon*> daemons_;
  std::unique_ptr<service::UdpSocket> client_socket_;
  std::unique_ptr<ArrivalLog> arrival_log_;
  std::unique_ptr<service::WireClient> client_;
  std::uint64_t wakeups_ = 0;
  std::uint64_t datagrams_ = 0;
};

constexpr std::uint32_t kLoopbackIp = 0x7F000001;

/// Span-name handles, re-interned whenever a new SpanLog is installed.
struct SpanNames {
  const SpanLog* owner = nullptr;
  std::array<std::uint32_t, 32> handle{};
  std::uint32_t timer = 0;

  void refresh() {
    if (owner == g_spans) return;
    owner = g_spans;
    for (std::size_t t = 0; t < handle.size(); ++t) {
      handle[t] = g_spans->intern(
          "service.handle." + type_name(static_cast<MessageType>(t)));
    }
    timer = g_spans->intern("service.timer");
  }
};
SpanNames g_names;

/// Follows successor links from the first daemon; the ring is converged
/// when the walk closes after visiting every daemon exactly once.
std::size_t ring_walk(const std::vector<const service::NodeDaemon*>& daemons) {
  std::map<Endpoint, const service::NodeDaemon*> by_addr;
  for (const auto* d : daemons) by_addr[d->self().addr] = d;
  std::set<Endpoint> seen;
  Endpoint cursor = daemons.front()->self().addr;
  for (std::size_t i = 0; i <= daemons.size(); ++i) {
    const auto it = by_addr.find(cursor);
    if (it == by_addr.end() || !seen.insert(cursor).second) break;
    const auto& successors = it->second->successors();
    if (successors.empty()) break;
    cursor = successors.front().addr;
  }
  return seen.size();
}

service::WireStats sum_stats(
    const std::vector<const service::NodeDaemon*>& daemons) {
  service::WireStats total;
  for (const auto* d : daemons) {
    const service::WireStats& s = d->stats();
    total.frames_sent += s.frames_sent;
    total.frames_received += s.frames_received;
    total.bad_magic += s.bad_magic;
    total.version_mismatch += s.version_mismatch;
    total.truncated_frames += s.truncated_frames;
    total.oversized_frames += s.oversized_frames;
    total.unknown_type += s.unknown_type;
    total.malformed_payload += s.malformed_payload;
    total.hops_exhausted += s.hops_exhausted;
    total.request_timeouts += s.request_timeouts;
    total.request_retries += s.request_retries;
  }
  return total;
}

std::optional<MessageType> frame_type(BytesView datagram) {
  service::WireStats scratch;
  const auto message = service::decode_frame(datagram, scratch);
  if (!message.has_value()) return std::nullopt;
  return service::message_type(*message);
}


const std::vector<MessageType>& traffic_types() {
  static const std::vector<MessageType> types = {
      MessageType::kGetPredecessor, MessageType::kPredecessorReply,
      MessageType::kNotify,         MessageType::kPut,
      MessageType::kPutAck,         MessageType::kStoreReplica,
      MessageType::kPackage,        MessageType::kDeliver,
      MessageType::kSubmit,         MessageType::kSubmitAck};
  return types;
}

std::string type_name(MessageType type) {
  switch (type) {
    case MessageType::kPing: return "ping";
    case MessageType::kPong: return "pong";
    case MessageType::kFindSuccessor: return "find_successor";
    case MessageType::kFindSuccessorReply: return "find_successor_reply";
    case MessageType::kGetPredecessor: return "get_predecessor";
    case MessageType::kPredecessorReply: return "predecessor_reply";
    case MessageType::kNotify: return "notify";
    case MessageType::kPut: return "put";
    case MessageType::kPutAck: return "put_ack";
    case MessageType::kGet: return "get";
    case MessageType::kGetReply: return "get_reply";
    case MessageType::kStoreReplica: return "store_replica";
    case MessageType::kPackage: return "package";
    case MessageType::kDeliver: return "deliver";
    case MessageType::kSubmit: return "submit";
    case MessageType::kSubmitAck: return "submit_ack";
    case MessageType::kStatus: return "status";
    case MessageType::kStatusReply: return "status_reply";
    case MessageType::kMetricsRequest: return "metrics_request";
    case MessageType::kMetricsResponse: return "metrics_response";
  }
  return "type" + std::to_string(static_cast<int>(type));
}

// -- decorators ---------------------------------------------------------------

void TimedSocket::on_receive(Handler handler) {
  inner_.on_receive([this, handler = std::move(handler)](const Endpoint& from,
                                                         BytesView datagram) {
    if (g_spans == nullptr) {
      handler(from, datagram);
      return;
    }
    const auto type = frame_type(datagram);
    const auto index = type.has_value() ? static_cast<std::size_t>(*type) : 0;
    ++counts_[index];
    g_names.refresh();
    const Scope span(g_names.handle[index]);
    handler(from, datagram);
  });
}

std::function<void()> TimedClock::timed(std::function<void()> action) {
  return [action = std::move(action)]() {
    if (g_spans == nullptr) {
      action();
      return;
    }
    g_names.refresh();
    const Scope span(g_names.timer);
    action();
  };
}

sim::EventId TimedClock::schedule_at(sim::Time at,
                                     std::function<void()> action) {
  return inner_.schedule_at(at, timed(std::move(action)));
}

sim::EventId TimedClock::schedule_in(sim::Time delay,
                                     std::function<void()> action) {
  return inner_.schedule_in(delay, timed(std::move(action)));
}

void ArrivalLog::on_receive(Handler handler) {
  inner_.on_receive([this, handler = std::move(handler)](const Endpoint& from,
                                                         BytesView datagram) {
    service::WireStats scratch;
    const auto message = service::decode_frame(datagram, scratch);
    if (message.has_value()) {
      if (const auto* deliver = std::get_if<service::Deliver>(&*message)) {
        if (withhold_) return;
        try {
          const api::EmergeEvent event =
              api::decode_emerge_event(deliver->event);
          first_arrival_.emplace(event.session_nonce, clock_.now());
        } catch (const Error&) {
          // A malformed event never reaches poll() either; the session
          // then fails its delivery check.
        }
      }
    }
    handler(from, datagram);
  });
}

std::optional<double> ArrivalLog::arrival(std::uint64_t nonce) const {
  const auto it = first_arrival_.find(nonce);
  if (it == first_arrival_.end()) return std::nullopt;
  return it->second;
}

// -- sessions -----------------------------------------------------------------

api::SubmitRequest make_request(std::uint64_t seed, std::uint64_t index,
                                double T, double assembly_delay) {
  api::SubmitRequest request;
  std::uint64_t state = mix_seed(seed, index);
  request.message.resize(64);
  for (std::size_t i = 0; i < request.message.size(); i += 8) {
    state = mix_seed(state, i);
    for (std::size_t b = 0; b < 8; ++b)
      request.message[i + b] = static_cast<std::uint8_t>(state >> (8 * b));
  }
  request.scheme = core::SchemeKind::kJoint;
  request.shape = core::PathShape{2, 3};
  request.emerging_time = T;
  request.assembly_delay = assembly_delay;
  request.seed = mix_seed(seed, index + 0x51ED);
  return request;
}

std::uint64_t check_sessions(const std::vector<SentSession>& sessions,
                             service::WireClient& client,
                             const ArrivalLog& log,
                             std::vector<double>* late_ms) {
  std::uint64_t failed = 0;
  for (const SentSession& s : sessions) {
    bool ok = s.ack_ok;
    if (ok) {
      const auto event = client.poll(s.nonce);
      const auto arrived = log.arrival(s.nonce);
      ok = event.has_value() && arrived.has_value() &&
           event->secret == s.message &&
           event->delivery_time >= s.release && *arrived >= s.release;
      if (ok && late_ms != nullptr)
        late_ms->push_back((*arrived - s.release) * 1e3);
    }
    if (!ok) ++failed;
  }
  return failed;
}

// -- the in-process ring ------------------------------------------------------

InProcessRing::InProcessRing(std::size_t nodes, std::uint64_t rng_seed,
                             bool traced, bool withhold_deliver)
    : hub_(sim_, 0.0005) {
  if (traced) timed_clock_.emplace(sim_);
  sim::Clock& clock =
      traced ? static_cast<sim::Clock&>(*timed_clock_) : sim_;
  const Endpoint first{kLoopbackIp, 10000};
  for (std::size_t i = 0; i < nodes; ++i) {
    service::DaemonConfig config;
    config.listen = Endpoint{kLoopbackIp, static_cast<std::uint16_t>(10000 + i)};
    if (i != 0) config.seed = first;
    config.name = "node-" + std::to_string(i);
    config.rng_seed = mix_seed(rng_seed, i);
    Node node;
    node.socket = hub_.bind(config.listen);
    service::DatagramSocket* socket = node.socket.get();
    if (traced) {
      node.timed = std::make_unique<TimedSocket>(*node.socket, counts_);
      socket = node.timed.get();
    }
    node.daemon = std::make_unique<service::NodeDaemon>(clock, *socket, config);
    daemons_.push_back(node.daemon.get());
    nodes_.push_back(std::move(node));
  }
  for (Node& node : nodes_) node.daemon->start();

  client_socket_ = hub_.bind(Endpoint{kLoopbackIp, 9999});
  service::DatagramSocket* socket = client_socket_.get();
  if (traced) {
    client_timed_ = std::make_unique<TimedSocket>(*socket, counts_);
    socket = client_timed_.get();
  }
  arrival_log_ = std::make_unique<ArrivalLog>(*socket, sim_, withhold_deliver);
  service::WireClient::Options options;
  options.daemon = first;
  client_ = std::make_unique<service::WireClient>(
      sim_, *arrival_log_, options, [this]() { return sim_.step(1) > 0; });
}

bool InProcessRing::converge(double max_virtual_s) {
  const double deadline = sim_.now() + max_virtual_s;
  while (sim_.now() < deadline) {
    sim_.run_until(sim_.now() + 1.0);
    if (ring_walk(daemons_) == daemons_.size()) return true;
  }
  return false;
}

void InProcessRing::drive_until(double t) {
  if (t > sim_.now()) sim_.run_until(t);
}

std::vector<SentSession> InProcessRing::run_sessions(std::size_t budget,
                                                     double rate, double T,
                                                     std::uint64_t input_seed) {
  std::mt19937_64 gen(input_seed);
  std::exponential_distribution<double> gap(rate);
  std::vector<SentSession> sessions;
  sessions.reserve(budget);
  double scheduled = sim_.now();
  double last_release = sim_.now();
  for (std::size_t i = 0; i < budget; ++i) {
    scheduled += gap(gen);
    drive_until(scheduled);
    SentSession s;
    s.scheduled = scheduled;
    s.sent = sim_.now();
    const api::SubmitRequest request = make_request(input_seed, i, T, 1.0);
    s.message = request.message;
    try {
      const api::SubmitReceipt receipt = client_->submit(request);
      s.nonce = receipt.session_nonce;
      s.release = receipt.release_time;
      s.ack_ok = true;
      last_release = std::max(last_release, s.release);
    } catch (const Error&) {
      s.ack_ok = false;
    }
    s.acked = sim_.now();
    sessions.push_back(std::move(s));
  }
  // Delivery lands at tr; the slack covers the Deliver frame's hop.
  drive_until(last_release + 2.0);
  return sessions;
}

service::WireStats InProcessRing::daemon_stats() const {
  return sum_stats(daemons_);
}

// -- the loopback UDP cluster -------------------------------------------------

UdpCluster::UdpCluster(std::size_t nodes, std::uint64_t rng_seed) {
  // Port 0: the kernel picks free ports, so concurrent runs never collide.
  for (std::size_t i = 0; i < nodes; ++i) {
    Node node;
    node.socket = std::make_unique<service::UdpSocket>(Endpoint{kLoopbackIp, 0});
    service::DaemonConfig config;
    config.listen = node.socket->local_endpoint();
    if (i != 0) config.seed = nodes_.front().socket->local_endpoint();
    config.name = "node-" + std::to_string(i);
    config.rng_seed = mix_seed(rng_seed, i);
    // tools/cluster.sh's maintenance cadence for a localhost ring.
    config.stabilize_interval = 0.25;
    config.repair_interval = 1.0;
    node.daemon =
        std::make_unique<service::NodeDaemon>(clock_, *node.socket, config);
    daemons_.push_back(node.daemon.get());
    nodes_.push_back(std::move(node));
  }
  for (Node& node : nodes_) node.daemon->start();

  client_socket_ = std::make_unique<service::UdpSocket>(Endpoint{kLoopbackIp, 0});
  arrival_log_ = std::make_unique<ArrivalLog>(*client_socket_, clock_, false);
  service::WireClient::Options options;
  options.daemon = nodes_.front().socket->local_endpoint();
  client_ = std::make_unique<service::WireClient>(
      clock_, *arrival_log_, options, [this]() {
        pump(0.001);
        return true;
      });
}

void UdpCluster::pump(double max_wait_s) {
  std::vector<pollfd> fds;
  std::vector<service::UdpSocket*> sockets;
  for (Node& node : nodes_) sockets.push_back(node.socket.get());
  sockets.push_back(client_socket_.get());
  for (service::UdpSocket* socket : sockets)
    fds.push_back(pollfd{socket->fd(), POLLIN, 0});
  double wait = std::max(0.0, max_wait_s);
  if (const auto until = clock_.seconds_until_next()) wait = std::min(wait, *until);
  timespec timeout{};
  timeout.tv_sec = static_cast<time_t>(wait);
  timeout.tv_nsec = static_cast<long>((wait - std::floor(wait)) * 1e9);
  const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
  if (ready > 0) {
    ++wakeups_;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & POLLIN) != 0) datagrams_ += sockets[i]->poll(-1.0);
    }
  }
  clock_.fire_due();
}

bool UdpCluster::converge(double max_wall_s) {
  const double deadline = clock_.now() + max_wall_s;
  double next_check = clock_.now();
  while (clock_.now() < deadline) {
    pump(0.01);
    if (clock_.now() >= next_check) {
      if (ring_walk(daemons_) == daemons_.size()) return true;
      next_check = clock_.now() + 0.05;
    }
  }
  return false;
}

std::vector<SentSession> UdpCluster::run_sessions(double window_s, double rate,
                                                  double T,
                                                  double assembly_delay,
                                                  std::uint64_t input_seed) {
  std::vector<SentSession> sessions;
  const double start = clock_.now();
  double last_release = start;
  for (std::size_t i = 0;; ++i) {
    const double scheduled = start + static_cast<double>(i) / rate;
    if (scheduled >= start + window_s) break;
    while (clock_.now() < scheduled) pump(scheduled - clock_.now());
    SentSession s;
    s.scheduled = scheduled;
    s.sent = clock_.now();
    const api::SubmitRequest request =
        make_request(input_seed, i, T, assembly_delay);
    s.message = request.message;
    try {
      const api::SubmitReceipt receipt = client_->submit(request);
      s.nonce = receipt.session_nonce;
      s.release = receipt.release_time;
      s.ack_ok = true;
      last_release = std::max(last_release, s.release);
    } catch (const Error&) {
      s.ack_ok = false;
    }
    s.acked = clock_.now();
    sessions.push_back(std::move(s));
  }
  while (clock_.now() < last_release + 1.0)
    pump(last_release + 1.0 - clock_.now());
  return sessions;
}

service::WireStats UdpCluster::daemon_stats() const {
  return sum_stats(daemons_);
}

std::uint64_t UdpCluster::holder_deliveries() const {
  std::uint64_t total = 0;
  for (const auto* daemon : daemons_) total += daemon->report().deliveries;
  return total;
}

double UdpCluster::datagrams_per_wakeup() const {
  return wakeups_ == 0 ? 0.0
                       : static_cast<double>(datagrams_) /
                             static_cast<double>(wakeups_);
}

// -- wire workloads -----------------------------------------------------------

// wire-ring: 192 daemons stays below the 256-node size where the
// successor-list routing of the daemon runs out of hops, so every session
// is expected to emerge. Sessions arrive open-loop at 50 per virtual second
// with T = 30 virtual seconds; a fresh ring per repetition keeps the
// daemons' stores (which never shrink) from slowing later repetitions.
constexpr std::size_t kRingNodes = 192;
constexpr std::size_t kRingBudget = 1000;
constexpr double kRingRate = 50.0;
constexpr double kRingT = 30.0;
// The companion ring of the fleet workloads' traced runs.
constexpr std::size_t kProbeNodes = 32;
constexpr std::size_t kProbeBudget = 200;
// udp-loopback: real time, so T is short; 30 submits per second.
constexpr std::size_t kUdpNodes = 16;
constexpr double kUdpRate = 30.0;
constexpr double kUdpT = 3.0;
constexpr double kUdpAssembly = 0.5;
// Virtual seconds of an idle converged ring over which maintenance
// traffic is counted.
constexpr double kIdleWindow = 10.0;

struct RingPhase {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t frames = 0;
  std::uint64_t retries = 0;
  std::uint64_t hops_exhausted = 0;
  std::uint64_t malformed = 0;
  FrameCounts counts{};
};

/// One measured batch of sessions on a converged ring, checked.
RingPhase ring_phase(InProcessRing& ring, std::size_t budget,
                     std::uint64_t input_seed) {
  RingPhase phase;
  const std::uint64_t frames0 = ring.hub().datagrams_delivered();
  const service::WireStats stats0 = ring.daemon_stats();
  const FrameCounts counts0 = ring.frame_counts();
  const double cpu0 = cpu_s();
  const double t0 = now_s();
  std::vector<SentSession> sessions;
  {
    const Scope span("wire.run_sessions");
    sessions = ring.run_sessions(budget, kRingRate, kRingT, input_seed);
  }
  phase.wall_s = now_s() - t0;
  phase.cpu_s = cpu_s() - cpu0;
  const service::WireStats stats1 = ring.daemon_stats();
  phase.attempted = sessions.size();
  phase.failed = check_sessions(sessions, ring.client(), ring.arrivals(), nullptr);
  phase.frames = ring.hub().datagrams_delivered() - frames0;
  phase.retries = stats1.request_retries - stats0.request_retries;
  phase.hops_exhausted = stats1.hops_exhausted - stats0.hops_exhausted;
  phase.malformed = stats1.malformed_frames() - stats0.malformed_frames();
  for (std::size_t t = 0; t < phase.counts.size(); ++t)
    phase.counts[t] = ring.frame_counts()[t] - counts0[t];
  return phase;
}

/// Maintenance datagrams per daemon per virtual second on an idle ring.
double idle_maintenance_rate(InProcessRing& ring) {
  const std::uint64_t frames0 = ring.hub().datagrams_delivered();
  ring.sim().run_until(ring.sim().now() + kIdleWindow);
  return static_cast<double>(ring.hub().datagrams_delivered() - frames0) /
         kIdleWindow / static_cast<double>(ring.size());
}

void require_converged(InProcessRing& ring, Result& out) {
  out.check(ring.converge(600.0),
            "the " + std::to_string(ring.size()) +
                "-daemon ring did not converge in 600 virtual seconds");
}

/// The service.* per-layer metrics of one traced ring phase.
void add_wire_layer_metrics(const RingPhase& phase, double maintenance_rate,
                            Result& out) {
  const double delivered = static_cast<double>(
      std::max<std::uint64_t>(phase.attempted - phase.failed, 1));
  out.add("service.frames_per_session",
          static_cast<double>(phase.frames) / delivered, "count");
  for (const MessageType type : traffic_types()) {
    out.add("service.frames_per_session." + type_name(type),
            static_cast<double>(phase.counts[static_cast<std::size_t>(type)]) /
                delivered,
            "count");
  }
  out.add("service.maintenance_frames_per_s", maintenance_rate, "1/s");
  out.add("service.request_retries_per_session",
          static_cast<double>(phase.retries) / delivered, "count");
  out.add("service.hops_exhausted", static_cast<double>(phase.hops_exhausted),
          "count");

  const auto spans = g_trace_log->summarize();
  std::uint64_t frames = 0;
  double handler_s = 0.0;
  for (const MessageType type : traffic_types()) {
    const auto it = spans.find("service.handle." + type_name(type));
    const bool seen = it != spans.end();
    out.check(seen, "no " + type_name(type) + " frame was handled");
    if (seen) {
      frames += it->second.count;
      handler_s += it->second.total_s;
    }
    out.add("service.handler_us." + type_name(type),
            seen ? it->second.total_s * 1e6 /
                       static_cast<double>(it->second.count)
                 : 0.0,
            "us");
  }
  out.add("service.handler_us_per_frame",
          frames == 0 ? 0.0 : handler_s * 1e6 / static_cast<double>(frames), "us");
  const auto timer = spans.find("service.timer");
  out.check(timer != spans.end(), "no daemon timer fired while traced");
  out.add("service.timer_us_per_fire",
          timer == spans.end()
              ? 0.0
              : timer->second.total_s * 1e6 / static_cast<double>(timer->second.count),
          "us");
}

void check_phase(const RingPhase& phase, Result& out) {
  out.attempted += phase.attempted;
  out.failed += phase.failed;
  out.check(phase.malformed == 0, "daemons saw malformed frames");
}

}  // namespace

void run_wire_probe(const Args& args, Result& out) {
  InProcessRing ring(kProbeNodes, mix_seed(args.seed, 700), true);
  require_converged(ring, out);
  const double maintenance = idle_maintenance_rate(ring);
  const RingPhase phase =
      ring_phase(ring, kProbeBudget, mix_seed(args.seed, 701));
  check_phase(phase, out);
  add_wire_layer_metrics(phase, maintenance, out);
}

void run_wire_ring(const Args& args, Result& out) {
  if (!args.trace) {
    std::vector<double> setup, rates;
    double cpu = 0.0;
    std::uint64_t delivered = 0;
    const double start = now_s();
    for (std::size_t rep = 0; another_rep(rep, now_s() - start, args.seconds);
         ++rep) {
      // setup_s: from the first daemon's start to a closed ring walk.
      const double t0 = now_s();
      InProcessRing ring(kRingNodes, mix_seed(args.seed, rep), false);
      require_converged(ring, out);
      setup.push_back(now_s() - t0);
      const RingPhase phase =
          ring_phase(ring, kRingBudget, mix_seed(args.seed, 1000 + rep));
      check_phase(phase, out);
      cpu += phase.cpu_s;
      delivered += phase.attempted - phase.failed;
      rates.push_back(static_cast<double>(phase.attempted - phase.failed) /
                      phase.wall_s);
    }
    out.note("measured " + std::to_string(rates.size()) + " rings of " +
             std::to_string(kRingNodes) + " daemons, " +
             std::to_string(kRingBudget) + " sessions each");
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

  // Traced run. The probes come first (they also warm the heap), then
  // identical rings (same seed, same inputs), plain or behind the timing
  // decorators, so their wall times compare the same simulated work. This
  // workload bypasses ChordNetwork and SessionFleet entirely: its
  // fleet-layer metrics come from the executor probe's default-schedule
  // fleet.
  add_fleet_layer_metrics(run_executor_probe(args, out), out);
  {
    const Tracing on;
    run_layer_probes(args, kRingNodes,
                     fleet_network_config(fleet_wan_spec(args.seed, 1)), out);
  }
  const std::uint64_t ring_seed = mix_seed(args.seed, 0);
  const std::uint64_t input_seed = mix_seed(args.seed, 1000);
  double maintenance = 0.0;
  const auto plain_phase = [&]() {
    InProcessRing plain(kRingNodes, ring_seed, false);
    require_converged(plain, out);
    maintenance = idle_maintenance_rate(plain);
    const RingPhase phase = ring_phase(plain, kRingBudget, input_seed);
    check_phase(phase, out);
    return phase;
  };
  // The traced phase runs between two untraced ones, so a drift of the
  // host's speed over the three cancels out of the ratio.
  const RingPhase before = plain_phase();
  InProcessRing traced(kRingNodes, ring_seed, true);
  require_converged(traced, out);
  idle_maintenance_rate(traced);  // same idle window as the plain rings
  RingPhase traced_phase;
  {
    const Tracing on;
    traced_phase = ring_phase(traced, kRingBudget, input_seed);
  }
  check_phase(traced_phase, out);
  const RingPhase after = plain_phase();
  out.check(traced_phase.frames == before.frames &&
                after.frames == before.frames,
            "tracing changed the ring's traffic");
  out.add("trace_overhead_ratio",
          2.0 * traced_phase.wall_s / (before.wall_s + after.wall_s), "x");
  add_wire_layer_metrics(traced_phase, maintenance, out);
}

void run_udp_loopback(const Args& args, Result& out) {
  const double t0 = now_s();
  UdpCluster cluster(kUdpNodes, args.seed);
  out.check(cluster.converge(60.0),
            "the loopback ring did not converge in 60 seconds");
  const double setup = now_s() - t0;

  const double cpu0 = cpu_s();
  const double w0 = now_s();
  const std::vector<SentSession> sessions = cluster.run_sessions(
      args.seconds, kUdpRate, kUdpT, kUdpAssembly, mix_seed(args.seed, 1000));
  const double wall = now_s() - w0;
  const double cpu = cpu_s() - cpu0;

  std::vector<double> late_ms, ack_ms, lag_ms;
  const std::uint64_t failed =
      check_sessions(sessions, cluster.client(), cluster.arrivals(), &late_ms);
  for (const SentSession& s : sessions) {
    lag_ms.push_back((s.sent - s.scheduled) * 1e3);
    if (s.ack_ok) ack_ms.push_back((s.acked - s.scheduled) * 1e3);
  }
  out.attempted += sessions.size();
  out.failed += failed;
  out.check(cluster.daemon_stats().malformed_frames() == 0,
            "daemons saw malformed frames");
  const double delivered =
      static_cast<double>(std::max<std::uint64_t>(sessions.size() - failed, 1));
  out.note("udp-loopback: " + std::to_string(sessions.size()) +
           " sessions offered at " + std::to_string(kUdpRate) +
           "/s; latency samples " + std::to_string(late_ms.size()) +
           ", ack samples " + std::to_string(ack_ms.size()) +
           "; holder deliveries " + std::to_string(cluster.holder_deliveries()) +
           " (k = 2 per session expected)");
  out.add("sessions_per_s", delivered / wall, "1/s");
  out.add("setup_s", setup, "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.add("cpu_ms_per_session", cpu * 1e3 / delivered, "ms");
  out.add("lateness_p50_ms", percentile(late_ms, 0.5), "ms");
  out.add("lateness_p95_ms", percentile(late_ms, 0.95), "ms");
  out.add("submit_ack_p50_ms", percentile(ack_ms, 0.5), "ms");
  out.add("submit_ack_p95_ms", percentile(ack_ms, 0.95), "ms");
  out.add("udp.generator_lag_max_ms", percentile(lag_ms, 1.0), "ms");
  out.add("udp.datagrams_per_wakeup", cluster.datagrams_per_wakeup(), "count");
}

int run_self_test() {
  // The same checks the workloads apply, once on a healthy ring and once
  // with every Deliver frame withheld from the client: the first must
  // read failed_ratio 0 and the second failed_ratio 1.
  int status = 0;
  for (const bool withhold : {false, true}) {
    InProcessRing ring(kProbeNodes, 42, false, withhold);
    Result result;
    require_converged(ring, result);
    const RingPhase phase = ring_phase(ring, 16, 43);
    const double ratio = static_cast<double>(phase.failed) /
                         static_cast<double>(phase.attempted);
    const double expected = withhold ? 1.0 : 0.0;
    std::cout << "self-test (" << (withhold ? "Deliver withheld" : "control")
              << "): failed_ratio = " << ratio << " (" << phase.failed
              << " of " << phase.attempted << "), expected " << expected
              << "\n";
    if (ratio != expected || !result.correct()) status = 1;
  }
  std::cout << (status == 0 ? "self-test passed" : "self-test FAILED") << "\n";
  return status;
}

}  // namespace perfbench
