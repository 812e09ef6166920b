// One Chord node: ring state, finger table, iterative lookup, storage.
//
// Follows Stoica et al., "Chord: A scalable peer-to-peer lookup service for
// internet applications" (SIGCOMM 2001): each node keeps a successor list
// (robustness to failures), a predecessor pointer and a 160-entry finger
// table; lookups walk closest-preceding fingers until the key falls between
// a node and its successor. Maintenance (stabilize / fix-fingers /
// check-predecessor / replica repair) runs as periodic simulator events
// scheduled by ChordNetwork.
//
// Routing state names peers by dense NodeHandle (see finger_table.hpp), not
// by NodeId: a hop reads the peer's id, liveness and node from the
// network's handle-indexed NodeSlots arrays, so routing, liveness checks
// and maintenance never hash an id.
#pragma once

#include <cstdint>
#include <vector>

#include "dht/finger_table.hpp"
#include "dht/network.hpp"
#include "dht/node_id.hpp"
#include "dht/storage.hpp"

namespace emergence::dht {

class ChordNetwork;
class ChordNode;

/// Handle-indexed node directory, owned by ChordNetwork and read by every
/// node. Slots are appended on first join and never removed.
struct NodeSlots {
  std::vector<NodeId> ids;
  std::vector<std::uint8_t> live;  ///< 1 from (re)join until kill/leave
  std::vector<ChordNode*> nodes;   ///< into ChordNetwork's stable arena

  /// The node when it is alive, else nullptr (the RPC liveness guard).
  ChordNode* live_node(NodeHandle h) const {
    return live[h] != 0 ? nodes[h] : nullptr;
  }
};

/// Outcome of a lookup in handle form (LookupResult names an id instead).
struct Route {
  NodeHandle node = kNoNode;  ///< node responsible for the key
  int hops = 0;               ///< routing hops taken
  bool ok = true;             ///< false when routing failed
};

/// A single DHT participant.
class ChordNode {
 public:
  ChordNode(ChordNetwork& network, const NodeSlots& slots, NodeHandle handle,
            std::size_t successor_list_size);

  NodeHandle handle() const { return handle_; }
  const NodeId& id() const { return slots_.ids[handle_]; }
  bool alive() const { return slots_.live[handle_] != 0; }

  // -- ring pointers ---------------------------------------------------------

  /// First live successor (self when the node is alone).
  NodeHandle successor() const;
  const std::vector<NodeHandle>& successor_list() const { return successors_; }
  /// kNoNode when unset.
  NodeHandle predecessor() const { return predecessor_; }

  /// True when this node is responsible for `key`
  /// (key in (predecessor, self]).
  bool responsible_for(const NodeId& key) const;

  // -- protocol --------------------------------------------------------------

  /// Bootstraps a one-node ring.
  void create();

  /// Joins via any live node; acquires successor and pulls keys it now owns.
  void join(NodeHandle bootstrap);

  /// Graceful leave: hands keys to the successor. The network marks the
  /// node dead afterwards.
  void leave();

  /// Abrupt death (churn): state is lost, peers discover via timeouts. The
  /// network marks the node dead afterwards.
  void fail();

  /// Restores freshly-constructed state so a dead instance can serve a
  /// rejoin of the same id (arena slots are reused, never destroyed).
  void reset_for_rejoin();

  /// Bumped by every reset_for_rejoin. Maintenance timers capture it at
  /// scheduling time and abandon themselves when it moved on, so a
  /// kill-then-rejoin that beats a pending timer cannot leave the node
  /// with two concurrent stabilize/repair chains.
  std::uint64_t incarnation() const { return incarnation_; }

  /// Periodic: verify successor, adopt a closer one, refresh successor list.
  void stabilize();

  /// Remote call: `candidate` believes it may be our predecessor.
  void notify(NodeHandle candidate);

  /// Periodic: refreshes one finger per call, round-robin.
  void fix_fingers();

  /// Refreshes every finger (used after bulk bootstrap).
  void fix_all_fingers();

  /// Periodic: clears the predecessor if it died.
  void check_predecessor();

  /// Periodic: pushes each stored key to the current replica set so that
  /// `replication_factor` copies survive churn.
  void replica_maintenance(std::size_t replication_factor);

  /// Iterative lookup starting at this node.
  Route find_successor(const NodeId& key) const;

  /// Closest live finger/successor strictly between this node and `key`
  /// (self when none).
  NodeHandle closest_preceding_node(const NodeId& key) const;

  // -- storage ---------------------------------------------------------------

  Storage& storage() { return storage_; }
  const Storage& storage() const { return storage_; }

  /// Stores locally and fires the network's on_store observer. Replication
  /// shares the buffer: no copy per replica.
  void store_local(const NodeId& key, SharedBytes value);
  void store_local(const NodeId& key, Bytes value) {
    store_local(key, shared_bytes(std::move(value)));
  }

  // -- internals exposed for ChordNetwork / tests ----------------------------

  void set_successor_list(std::vector<NodeHandle> successors);
  void set_predecessor(NodeHandle pred) { predecessor_ = pred; }
  void set_finger(std::size_t i, NodeHandle node) { fingers_.set(i, node); }
  /// kNoNode when unset.
  NodeHandle finger(std::size_t i) const { return fingers_.get(i); }
  FingerTable& finger_table() { return fingers_; }
  const FingerTable& finger_table() const { return fingers_; }

 private:
  void prune_dead_successors();

  ChordNetwork& network_;
  const NodeSlots& slots_;
  NodeHandle handle_;
  NodeHandle predecessor_ = kNoNode;
  std::vector<NodeHandle> successors_;  // ordered, nearest first
  std::size_t successor_list_size_;
  FingerTable fingers_;  // run-compressed: ~log2(n) entries, not kIdBits
  std::size_t next_finger_ = 0;
  std::uint64_t incarnation_ = 0;

  Storage storage_;
};

}  // namespace emergence::dht
