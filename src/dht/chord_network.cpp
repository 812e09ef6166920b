#include "dht/chord_network.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "sim/execution_context.hpp"

namespace emergence::dht {
namespace {

/// floor(log2((to - from) mod 2^160)); requires to != from. Used by the
/// bootstrap finger construction: a finger at clockwise distance d serves
/// every power p with 2^p <= d, i.e. p <= floor_log2_distance.
std::size_t floor_log2_distance(const NodeId& from, const NodeId& to) {
  const auto& a = from.bytes();
  const auto& b = to.bytes();
  // d = b - a, big-endian with borrow (mod 2^160).
  std::array<std::uint8_t, kIdBytes> d{};
  int borrow = 0;
  for (std::size_t i = kIdBytes; i-- > 0;) {
    const int diff = static_cast<int>(b[i]) - static_cast<int>(a[i]) - borrow;
    d[i] = static_cast<std::uint8_t>(diff & 0xff);
    borrow = diff < 0 ? 1 : 0;
  }
  for (std::size_t i = 0; i < kIdBytes; ++i) {
    if (d[i] == 0) continue;
    int bit = 7;
    while (((d[i] >> bit) & 1) == 0) --bit;
    return (kIdBytes - 1 - i) * 8 + static_cast<std::size_t>(bit);
  }
  throw PreconditionError("floor_log2_distance: identical ids");
}

}  // namespace

ChordNetwork::ChordNetwork(sim::Simulator& simulator, Rng& rng,
                           NetworkConfig config)
    : simulator_(simulator),
      rng_(rng),
      config_(config),
      transport_(config_.transport.resolved(config_.min_message_latency,
                                            config_.max_message_latency)) {
  transport_.validate();
}

NodeId ChordNetwork::fresh_node_id() {
  // Hash a unique counter; collisions are astronomically unlikely but we
  // re-draw on one anyway.
  for (;;) {
    const std::string name = "node-" + std::to_string(node_counter_++);
    const NodeId id = NodeId::hash_of_text(name);
    if (handles_.find(id) == handles_.end()) return id;
  }
}

NodeHandle ChordNetwork::allocate_node(const NodeId& id) {
  // A rejoin of a dead id (transient churn outage) reuses its arena slot:
  // reset_for_rejoin restores the freshly-constructed state, so long
  // churned worlds do not accrete one dead instance per rejoin, and the id
  // keeps its handle — stale fingers and successor entries that name it
  // reach the rejoined node.
  const auto [it, fresh] =
      handles_.try_emplace(id, static_cast<NodeHandle>(slots_.ids.size()));
  const NodeHandle h = it->second;
  if (!fresh) {
    slots_.nodes[h]->reset_for_rejoin();
  } else {
    require(h != kNoNode, "ChordNetwork: node handle space exhausted");
    arena_.emplace_back(*this, slots_, h, config_.successor_list_size);
    slots_.ids.push_back(id);
    slots_.live.push_back(0);
    slots_.nodes.push_back(&arena_.back());
    alive_pos_.push_back(kNoNode);
  }
  slots_.live[h] = 1;  // alive from its first join step on
  return h;
}

NodeHandle ChordNetwork::handle_of(const NodeId& id) const {
  auto it = handles_.find(id);
  return it == handles_.end() ? kNoNode : it->second;
}

void ChordNetwork::register_alive(NodeHandle h) {
  const NodeId& id = slots_.ids[h];
  alive_pos_[h] = static_cast<std::uint32_t>(alive_handles_.size());
  alive_handles_.push_back(h);
  alive_ids_.push_back(id);
  live_ring_.insert(id);
  // Every node's zone is primed from serial code (bootstrap / churn joins),
  // so zone_of stays a pure read when domains sample latencies in parallel.
  transport_.prime_zone(id);
}

void ChordNetwork::unregister_alive(NodeHandle h) {
  slots_.live[h] = 0;
  const std::uint32_t pos = alive_pos_[h];
  if (pos == kNoNode) return;
  live_ring_.erase(slots_.ids[h]);
  const NodeHandle last = alive_handles_.back();
  alive_handles_[pos] = last;
  alive_ids_[pos] = slots_.ids[last];
  alive_pos_[last] = pos;
  alive_handles_.pop_back();
  alive_ids_.pop_back();
  alive_pos_[h] = kNoNode;
}

void ChordNetwork::bootstrap(std::size_t count) {
  require(count > 0, "ChordNetwork::bootstrap: need at least one node");
  require(slots_.ids.empty(), "ChordNetwork::bootstrap: network already built");

  handles_.reserve(count);
  slots_.ids.reserve(count);
  slots_.live.reserve(count);
  slots_.nodes.reserve(count);
  alive_pos_.reserve(count);
  alive_handles_.reserve(count);
  alive_ids_.reserve(count);

  // ring[i]: handle of the i-th node in id order.
  std::vector<NodeHandle> ring;
  ring.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const NodeHandle h = allocate_node(fresh_node_id());
    register_alive(h);
    ring.push_back(h);
  }
  const std::vector<NodeId>& ids = slots_.ids;
  std::sort(ring.begin(), ring.end(),
            [&ids](NodeHandle a, NodeHandle b) { return ids[a] < ids[b]; });

  // Wire exact ring pointers.
  for (std::size_t i = 0; i < count; ++i) {
    ChordNode& n = *slots_.nodes[ring[i]];
    std::vector<NodeHandle> succ;
    succ.reserve(std::min(config_.successor_list_size, count - 1));
    for (std::size_t s = 1; s <= config_.successor_list_size && s < count; ++s)
      succ.push_back(ring[(i + s) % count]);
    if (succ.empty()) succ.push_back(ring[i]);
    n.set_successor_list(std::move(succ));
    n.set_predecessor(ring[(i + count - 1) % count]);
  }

  // Exact fingers, built as runs. The finger for start = id + 2^p is the
  // node minimizing clockwise distance-from-start, equivalently the first
  // node at clockwise distance >= 2^p from id (self when no other node is
  // that far — matching a plain sorted lower_bound with wrap-around, which
  // is what a per-power construction computed here before). Distances
  // grow monotonically along the ring, so each node needs one monotone
  // sweep of ~log2(n) binary searches instead of kIdBits of them, and each
  // discovered finger covers the whole power range up to
  // floor(log2(distance)) in a single run.
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId& x = ids[ring[i]];
    FingerTable& table = slots_.nodes[ring[i]]->finger_table();
    table.clear();
    std::size_t p = 0;
    std::size_t t_lo = 1;  // ring offset of the first candidate
    while (p < kIdBits) {
      const NodeId start = x.add_power_of_two(p);
      // Smallest ring offset t in [t_lo, count] whose node sits at
      // clockwise distance >= 2^p (offset `count` stands for self, which
      // always qualifies); y qualifies iff it is NOT strictly inside
      // (x, start), and the predicate is monotone in t.
      std::size_t lo = t_lo;
      std::size_t hi = count;
      while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        const NodeId& y = ids[ring[(i + mid) % count]];
        if (!in_open_interval(y, x, start)) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      std::size_t hi_power = kIdBits - 1;
      NodeHandle finger = ring[i];
      if (lo < count) {
        finger = ring[(i + lo) % count];
        hi_power = floor_log2_distance(x, ids[finger]);
      }
      table.append_run(p, hi_power, finger);
      p = hi_power + 1;
      t_lo = lo;
    }
    table.shrink_to_fit();
  }

  if (config_.run_maintenance) {
    for (const NodeHandle h : ring) schedule_maintenance(h);
  }
}

void ChordNetwork::schedule_maintenance(NodeHandle h) {
  // Jitter the initial phases so maintenance does not run in lockstep; each
  // timer then re-arms at its own fixed interval. (An earlier revision
  // re-armed repair from the stabilize callback, so repair fired at
  // stabilize_interval cadence with a fresh random phase every round —
  // ~4x the configured rate under the default intervals.)
  schedule_stabilize_in(rng_.real() * config_.stabilize_interval, h);
  schedule_repair_in(rng_.real() * config_.replica_repair_interval, h);
}

void ChordNetwork::schedule_stabilize_in(double delay, NodeHandle h) {
  // Capture the node's incarnation: a timer whose node died stops, and a
  // timer that outlived a kill-then-rejoin of the same id stops too (the
  // rejoin armed its own chain; without the check the node would run two).
  const std::uint64_t incarnation = slots_.nodes[h]->incarnation();
  simulator_.schedule_in(delay, [this, h, incarnation]() {
    ChordNode* n = slots_.live_node(h);
    if (n == nullptr || n->incarnation() != incarnation) return;
    n->stabilize();
    n->fix_fingers();
    n->check_predecessor();
    ++maintenance_stats_.stabilize_rounds;
    schedule_stabilize_in(config_.stabilize_interval, h);
  });
}

void ChordNetwork::schedule_repair_in(double delay, NodeHandle h) {
  const std::uint64_t incarnation = slots_.nodes[h]->incarnation();
  simulator_.schedule_in(delay, [this, h, incarnation]() {
    ChordNode* n = slots_.live_node(h);
    if (n == nullptr || n->incarnation() != incarnation) return;
    n->replica_maintenance(config_.replication_factor);
    ++maintenance_stats_.repair_rounds;
    schedule_repair_in(config_.replica_repair_interval, h);
  });
}

NodeId ChordNetwork::add_node() { return add_node_with_id(fresh_node_id()); }

NodeId ChordNetwork::add_node_with_id(const NodeId& id) {
  const NodeHandle existing = handle_of(id);
  require(existing == kNoNode || slots_.live[existing] == 0,
          "ChordNetwork::add_node_with_id: id already in use");
  const NodeHandle h = allocate_node(id);
  ChordNode& joiner = *slots_.nodes[h];

  if (alive_handles_.empty()) {
    joiner.create();
  } else {
    joiner.join(alive_handles_[rng_.index(alive_handles_.size())]);
  }
  register_alive(h);
  if (config_.exact_join_fingers) {
    joiner.fix_all_fingers();
  } else {
    // O(log n) join: adopt the successor's (ring-adjacent, hence mostly
    // correct) finger table; periodic fix_fingers converges it.
    const ChordNode* succ = slots_.live_node(joiner.successor());
    if (succ != nullptr && succ != &joiner) {
      joiner.finger_table() = succ->finger_table();
    }
    joiner.set_finger(0, joiner.successor());
  }
  if (config_.run_maintenance) schedule_maintenance(h);
  return slots_.ids[h];
}

void ChordNetwork::kill_node(const NodeId& id) {
  ChordNode* n = live_node(id);
  if (n == nullptr) return;
  n->fail();
  unregister_alive(n->handle());
  handlers_.erase(n->id());
}

void ChordNetwork::remove_node(const NodeId& id) {
  ChordNode* n = live_node(id);
  if (n == nullptr) return;
  n->leave();
  unregister_alive(n->handle());
  handlers_.erase(n->id());
}

ChordNode* ChordNetwork::node(const NodeId& id) {
  const NodeHandle h = handle_of(id);
  return h == kNoNode ? nullptr : slots_.nodes[h];
}

const ChordNode* ChordNetwork::node(const NodeId& id) const {
  const NodeHandle h = handle_of(id);
  return h == kNoNode ? nullptr : slots_.nodes[h];
}

ChordNode* ChordNetwork::live_node(const NodeId& id) {
  const NodeHandle h = handle_of(id);
  return h == kNoNode ? nullptr : slots_.live_node(h);
}

ChordNode& ChordNetwork::random_live_node() {
  require(!alive_handles_.empty(), "ChordNetwork: no live nodes");
  // Lookups under a session's execution context draw the entry pick from
  // that session's own stream (domain-count invariant); code outside any
  // context (maintenance, churn, non-fleet callers) draws from the shared
  // network stream.
  auto* ctx = sim::ExecutionContext::active_on(&simulator_);
  Rng& rng = (ctx != nullptr && ctx->rng != nullptr) ? *ctx->rng : rng_;
  return *slots_.nodes[alive_handles_[rng.index(alive_handles_.size())]];
}

Route ChordNetwork::route(const NodeId& key) {
  const Route result = random_live_node().find_successor(key);
  auto* ctx = sim::ExecutionContext::active_on(&simulator_);
  LookupStats& stats = (ctx != nullptr && ctx->lookup_stats != nullptr)
                           ? *ctx->lookup_stats
                           : lookup_stats_;
  stats.record(result.hops, result.ok);
  return result;
}

LookupResult ChordNetwork::lookup(const NodeId& key) {
  const Route r = route(key);
  return LookupResult{slots_.ids[r.node], r.hops, r.ok};
}

bool ChordNetwork::put(const NodeId& key, SharedBytes value) {
  require(value != nullptr, "ChordNetwork::put: null value");
  const Route result = route(key);
  if (!result.ok) return false;
  ChordNode* primary = slots_.live_node(result.node);
  if (primary == nullptr) return false;
  primary->store_local(key, value);

  NodeHandle target = primary->successor();
  for (std::size_t copy = 1; copy < config_.replication_factor; ++copy) {
    ChordNode* t = slots_.live_node(target);
    if (t == nullptr || t == primary) break;
    t->store_local(key, value);  // replicas share the buffer
    target = t->successor();
  }
  return true;
}

template <typename Visit>
void ChordNetwork::walk_replica_set(NodeHandle start, Visit visit) {
  // Replicas live on the first replication_factor live successors of the
  // primary *at put/repair time*. When responsibility migrates afterwards
  // (the primary dies, or fresh nodes join between the key and the old
  // replica set), the current responsible node can sit several hops short
  // of the surviving copies, so a walk of exactly replication_factor nodes
  // misses reachable data. Walk up to successor_list_size extra live nodes
  // and stop when the ring wraps back to the start.
  NodeHandle target = start;
  const std::size_t max_visits =
      config_.replication_factor + config_.successor_list_size;
  for (std::size_t visit_count = 0; visit_count < max_visits; ++visit_count) {
    ChordNode* t = slots_.live_node(target);
    if (t == nullptr || visit(*t)) break;
    NodeHandle next = t->successor();
    if (next == target) {
      // Successor list exhausted (e.g. a fresh joiner whose only successor
      // died before it re-stabilized; routed lookups would just bounce off
      // the same broken pointer). Step to the true ring successor through
      // the sorted live index — O(log n), and exactly the node one
      // stabilize round would restore as the successor. The index answers
      // with an id, so this rare step pays one handle lookup.
      const std::optional<NodeId> step = live_ring_.successor_of(t->id());
      if (!step.has_value()) break;  // genuinely alone
      next = handles_.at(*step);
    }
    if (next == start) break;  // wrapped around
    target = next;
  }
}

SharedBytes ChordNetwork::get(const NodeId& key) {
  const Route result = route(key);
  if (!result.ok) return nullptr;
  SharedBytes found;
  walk_replica_set(result.node, [&](const ChordNode& t) {
    found = t.storage().get(key);
    return found != nullptr;
  });
  return found;
}

std::size_t ChordNetwork::erase(const NodeId& key) {
  const Route result = route(key);
  if (!result.ok) return 0;
  // Same walk as get(): the responsible node plus enough live successors to
  // cover replicas stranded behind interloper joins.
  std::size_t erased = 0;
  walk_replica_set(result.node, [&](ChordNode& t) {
    if (t.storage().erase(key)) ++erased;
    return false;
  });
  return erased;
}

bool ChordNetwork::store_on(const NodeId& id, const NodeId& key,
                            SharedBytes value) {
  require(value != nullptr, "ChordNetwork::store_on: null value");
  ChordNode* n = live_node(id);
  if (n == nullptr) return false;
  n->store_local(key, std::move(value));
  return true;
}

SharedBytes ChordNetwork::load_from(const NodeId& id, const NodeId& key) {
  ChordNode* n = live_node(id);
  if (n == nullptr) return nullptr;
  return n->storage().get(key);
}

void ChordNetwork::set_message_handler(const NodeId& node_id,
                                       MessageHandler handler) {
  handlers_[node_id] = std::move(handler);
}

void ChordNetwork::send_message(const NodeId& from, const NodeId& to,
                                SharedBytes payload) {
  require(payload != nullptr, "ChordNetwork::send_message: null payload");
  auto* ctx = sim::ExecutionContext::active_on(&simulator_);
  Rng& rng = (ctx != nullptr && ctx->rng != nullptr) ? *ctx->rng : rng_;
  TransportStats& stats =
      (ctx != nullptr && ctx->transport_stats != nullptr)
          ? *ctx->transport_stats
          : transport_stats_;
  obs::TraceShard* trace =
      (ctx != nullptr && ctx->trace != nullptr) ? ctx->trace : trace_shard_;
  transport_.send(
      simulator_, rng, stats, from, to,
      [this, from, to, payload = std::move(payload)]() {
        ChordNode* dest = live_node(to);
        if (dest == nullptr) return;  // dead destination: lost
        auto it = handlers_.find(to);
        if (it != handlers_.end()) {
          it->second(from, to, *payload);
        } else if (default_handler_) {
          default_handler_(from, to, *payload);
        }
      },
      trace);
}

void ChordNetwork::send_message_routed(const NodeId& from,
                                       const NodeId& ring_point,
                                       SharedBytes payload) {
  require(payload != nullptr,
          "ChordNetwork::send_message_routed: null payload");
  auto* ctx = sim::ExecutionContext::active_on(&simulator_);
  Rng& rng = (ctx != nullptr && ctx->rng != nullptr) ? *ctx->rng : rng_;
  TransportStats& stats =
      (ctx != nullptr && ctx->transport_stats != nullptr)
          ? *ctx->transport_stats
          : transport_stats_;
  obs::TraceShard* trace =
      (ctx != nullptr && ctx->trace != nullptr) ? ctx->trace : trace_shard_;
  transport_.send(
      simulator_, rng, stats, from, ring_point,
      [this, from, ring_point, payload = std::move(payload)]() {
        const Route result = route(ring_point);
        if (!result.ok) return;
        if (slots_.live[result.node] == 0) return;
        const NodeId to = slots_.ids[result.node];
        auto it = handlers_.find(to);
        if (it != handlers_.end()) {
          it->second(from, to, *payload);
        } else if (default_handler_) {
          default_handler_(from, to, *payload);
        }
      },
      trace);
}

void ChordNetwork::run_maintenance_round() {
  // Snapshot the live set: maintenance can change it.
  const std::vector<NodeHandle> live = alive_handles_;
  for (const NodeHandle h : live) {
    ChordNode* n = slots_.live_node(h);
    if (n == nullptr) continue;
    n->stabilize();
    n->check_predecessor();
  }
  for (const NodeHandle h : live) {
    ChordNode* n = slots_.live_node(h);
    if (n == nullptr) continue;
    n->fix_all_fingers();
    n->replica_maintenance(config_.replication_factor);
  }
}

}  // namespace emergence::dht
