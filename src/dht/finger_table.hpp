// Run-length-compressed Chord finger table over dense node handles.
//
// A dense finger table stores one entry per identifier bit (160 here), but
// in an n-node ring only ~log2(n) of them are distinct: every power whose
// 2^p span falls short of the next node points at the same successor. The
// dense std::vector<std::optional<NodeId>> representation cost ~3.4 KB per
// node (the dominant memory term of a 100k-node world) and made
// closest_preceding_node scan 160 slots per routing hop. This table stores
// maximal runs of consecutive powers that share a finger instead: ~log2(n)
// runs of 8 bytes (two power bytes and a node handle), O(#runs) per hop, and
// bulk construction during bootstrap appends runs directly.
//
// set() keeps exact per-power semantics (fix_fingers updates one power at a
// time), splitting and re-merging runs as needed; powers not covered by any
// run are "unset" (get() returns kNoNode).
#pragma once

#include <cstdint>
#include <vector>

#include "dht/node_id.hpp"

namespace emergence::dht {

/// Dense index of a Chord node: its slot in ChordNetwork's node arena.
/// A rejoining id reuses its slot, so a handle names one id forever and
/// needs no generation tag.
using NodeHandle = std::uint32_t;

/// "No node": an unset finger, an absent predecessor.
inline constexpr NodeHandle kNoNode = 0xffffffffu;

/// Compressed map from finger power (0..kIdBits-1) to node handle.
class FingerTable {
 public:
  /// One maximal run: powers lo..hi (inclusive) all point at `node`.
  struct Run {
    std::uint8_t lo = 0;
    std::uint8_t hi = 0;
    NodeHandle node = kNoNode;
  };
  static_assert(sizeof(Run) == 8, "finger runs stay 8 bytes");

  /// The finger for `power`, kNoNode when unset.
  NodeHandle get(std::size_t power) const;

  /// Points `power` at `node`, splitting/merging runs as needed.
  void set(std::size_t power, NodeHandle node);

  /// Bulk build: appends the run [lo, hi] -> node. Runs must arrive in
  /// ascending, non-overlapping power order (the bootstrap construction
  /// emits them that way); adjacent equal-node runs are coalesced.
  void append_run(std::size_t lo, std::size_t hi, NodeHandle node);

  void clear() { runs_.clear(); }
  /// Drops spare capacity (bootstrap builds each table by appending).
  void shrink_to_fit() { runs_.shrink_to_fit(); }
  std::size_t run_count() const { return runs_.size(); }

  /// Runs in ascending power order (closest_preceding_node iterates them
  /// in reverse: farthest fingers first).
  const std::vector<Run>& runs() const { return runs_; }

 private:
  /// Index of the first run with hi >= power (== runs_.size() when none).
  std::size_t first_run_reaching(std::size_t power) const;
  /// Coalesces runs_[i] with its neighbors where ranges touch and nodes match.
  void merge_around(std::size_t i);

  std::vector<Run> runs_;  // sorted by lo, pairwise disjoint
};

}  // namespace emergence::dht
