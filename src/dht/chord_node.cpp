#include "dht/chord_node.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "dht/chord_network.hpp"

namespace emergence::dht {

ChordNode::ChordNode(ChordNetwork& network, const NodeSlots& slots,
                     NodeHandle handle, std::size_t successor_list_size)
    : network_(network),
      slots_(slots),
      handle_(handle),
      successor_list_size_(successor_list_size) {}

NodeHandle ChordNode::successor() const {
  for (const NodeHandle s : successors_) {
    if (slots_.live[s] != 0) return s;
  }
  return handle_;
}

bool ChordNode::responsible_for(const NodeId& key) const {
  if (predecessor_ == kNoNode) return true;  // alone or still joining
  return in_half_open_interval(key, slots_.ids[predecessor_], id());
}

void ChordNode::create() {
  predecessor_ = kNoNode;
  successors_.clear();
  successors_.push_back(handle_);
}

void ChordNode::join(NodeHandle bootstrap) {
  const ChordNode* entry = slots_.live_node(bootstrap);
  require(entry != nullptr, "ChordNode::join: bootstrap node is dead");
  predecessor_ = kNoNode;
  const Route route = entry->find_successor(id());
  require(route.ok, "ChordNode::join: lookup failed");
  successors_.clear();
  successors_.push_back(route.node);

  // Pull the keys this node is now responsible for from its successor.
  ChordNode* succ = slots_.live_node(route.node);
  if (succ != nullptr && succ != this) {
    const NodeHandle succ_pred = succ->predecessor();
    const NodeId lower =
        slots_.ids[succ_pred != kNoNode ? succ_pred : route.node];
    for (const NodeId& key : succ->storage().keys_in_range(lower, id())) {
      SharedBytes value = succ->storage().get(key);
      if (value != nullptr) store_local(key, std::move(value));
    }
    succ->notify(handle_);
  }
}

void ChordNode::leave() {
  if (!alive()) return;
  // Hand all keys to the live successor before departing.
  ChordNode* succ = slots_.live_node(successor());
  if (succ != nullptr && succ != this) {
    for (const NodeId& key : storage_.all_keys()) {
      SharedBytes value = storage_.get(key);
      if (value != nullptr) succ->store_local(key, std::move(value));
    }
    if (predecessor_ != kNoNode) succ->set_predecessor(predecessor_);
  }
  storage_.clear();
}

void ChordNode::fail() {
  storage_.clear();
  predecessor_ = kNoNode;
}

void ChordNode::reset_for_rejoin() {
  predecessor_ = kNoNode;
  successors_.clear();
  fingers_.clear();
  next_finger_ = 0;
  storage_.clear();
  ++incarnation_;
}

void ChordNode::prune_dead_successors() {
  std::erase_if(successors_,
                [this](NodeHandle s) { return slots_.live[s] == 0; });
}

void ChordNode::stabilize() {
  if (!alive()) return;
  prune_dead_successors();
  if (successors_.empty()) successors_.push_back(handle_);

  const NodeHandle succ_h = successor();
  const ChordNode* succ = slots_.live_node(succ_h);
  if (succ == nullptr) return;

  // Adopt a node that slid between us and our successor.
  const NodeHandle x = succ->predecessor();
  if (x != kNoNode && x != handle_ &&
      in_open_interval(slots_.ids[x], id(), slots_.ids[succ_h]) &&
      slots_.live[x] != 0) {
    successors_.insert(successors_.begin(), x);
    succ = slots_.live_node(successor());
    if (succ == nullptr) return;
  }

  // Refresh the successor list from the successor's list.
  std::vector<NodeHandle> fresh;
  fresh.reserve(successor_list_size_);
  fresh.push_back(successor());
  for (const NodeHandle s : succ->successor_list()) {
    if (s == handle_) continue;
    if (std::find(fresh.begin(), fresh.end(), s) != fresh.end()) continue;
    fresh.push_back(s);
    if (fresh.size() >= successor_list_size_) break;
  }
  successors_ = std::move(fresh);

  ChordNode* first = slots_.live_node(successor());
  if (first != nullptr && first != this) first->notify(handle_);
}

void ChordNode::notify(NodeHandle candidate) {
  if (!alive()) return;
  if (candidate == handle_) return;
  if (slots_.live[candidate] == 0) return;
  if (predecessor_ == kNoNode ||
      in_open_interval(slots_.ids[candidate], slots_.ids[predecessor_],
                       id()) ||
      slots_.live[predecessor_] == 0) {
    predecessor_ = candidate;
  }
}

void ChordNode::fix_fingers() {
  if (!alive()) return;
  const Route route = find_successor(id().add_power_of_two(next_finger_));
  if (route.ok) fingers_.set(next_finger_, route.node);
  next_finger_ = (next_finger_ + 1) % kIdBits;
}

void ChordNode::fix_all_fingers() {
  for (std::size_t i = 0; i < kIdBits; ++i) {
    const Route route = find_successor(id().add_power_of_two(i));
    if (route.ok) fingers_.set(i, route.node);
  }
}

void ChordNode::check_predecessor() {
  if (!alive()) return;
  if (predecessor_ != kNoNode && slots_.live[predecessor_] == 0) {
    predecessor_ = kNoNode;
  }
}

void ChordNode::replica_maintenance(std::size_t replication_factor) {
  if (!alive()) return;
  if (storage_.size() == 0) return;
  // Push every key we hold to the nodes that should replicate it: the
  // responsible node and its replication_factor-1 successors.
  for (const NodeId& key : storage_.all_keys()) {
    const Route route = find_successor(key);
    if (!route.ok) continue;
    const SharedBytes value = storage_.get(key);
    if (value == nullptr) continue;

    NodeHandle target = route.node;
    for (std::size_t copy = 0; copy < replication_factor; ++copy) {
      ChordNode* t = slots_.live_node(target);
      if (t == nullptr) break;
      if (t != this && !t->storage().contains(key)) {
        t->store_local(key, value);  // shares the buffer
      }
      target = t->successor();
      if (target == t->handle()) break;  // ring collapsed to one node
    }
  }
}

Route ChordNode::find_successor(const NodeId& key) const {
  const ChordNode* current = this;
  // A correct lookup takes O(log n) hops; the cap catches routing loops in
  // heavily churned rings.
  const int max_hops = static_cast<int>(kIdBits) + 16;
  for (int hop = 0; hop < max_hops; ++hop) {
    const NodeHandle cur = current->handle_;
    const NodeHandle succ = current->successor();
    if (succ == cur ||
        in_half_open_interval(key, slots_.ids[cur], slots_.ids[succ])) {
      return Route{succ, hop, true};
    }
    // closest_preceding_node yields a live node or `cur`; from `cur`, fall
    // through to the (live) successor.
    const NodeHandle next = current->closest_preceding_node(key);
    current = slots_.nodes[next == cur ? succ : next];
  }
  return Route{handle_, 0, false};
}

NodeHandle ChordNode::closest_preceding_node(const NodeId& key) const {
  // Scan fingers from farthest to nearest for a live node in (id, key).
  // The run-compressed table visits each distinct finger once (highest
  // power first), which is exactly what the dense per-power scan reduced
  // to: whether a finger qualifies does not depend on the power.
  // The interval test runs on 64-bit id prefixes, exact by construction.
  const NodeId& self = id();
  const std::uint64_t self_prefix = self.prefix64();
  const std::uint64_t key_prefix = key.prefix64();
  const auto precedes_key = [&](NodeHandle h) {
    return in_open_interval_by_prefix(slots_.ids[h], self, self_prefix, key,
                                      key_prefix);
  };
  const std::vector<FingerTable::Run>& runs = fingers_.runs();
  for (std::size_t i = runs.size(); i-- > 0;) {
    const NodeHandle f = runs[i].node;
    if (precedes_key(f) && slots_.live[f] != 0) return f;
  }
  // Successor list can still make progress when fingers are stale.
  for (std::size_t i = successors_.size(); i-- > 0;) {
    const NodeHandle s = successors_[i];
    if (precedes_key(s) && slots_.live[s] != 0) return s;
  }
  return handle_;
}

void ChordNode::store_local(const NodeId& key, SharedBytes value) {
  require(alive(), "ChordNode::store_local on a dead node");
  require(value != nullptr, "ChordNode::store_local: null value");
  storage_.put(key, value, network_.simulator().now());
  if (network_.store_observer()) {
    network_.store_observer()(id(), key, BytesView(*value));
  }
}

void ChordNode::set_successor_list(std::vector<NodeHandle> successors) {
  successors_ = std::move(successors);
  if (successors_.empty()) successors_.push_back(handle_);
}

}  // namespace emergence::dht
