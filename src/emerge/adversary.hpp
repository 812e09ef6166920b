// The adversary: a coalition controlling a fraction of DHT nodes.
//
// Malicious holders report everything they see (layer keys, Shamir shares,
// onion packages, peeled secrets) to a shared knowledge base with capture
// timestamps. The release-ahead engine then mounts the *actual* attack: it
// opens every envelope it has a key for, reconstructs layer keys from
// gathered shares, and iterates to a fixpoint -- if the secret payload falls
// out, the attack succeeded with real cryptography, not by assumption.
//
// Attack modes (paper §II-B):
//   * kCovert (release-ahead): malicious holders forward normally and only
//     exfiltrate copies, staying undetected.
//   * kDropping (drop attack): malicious holders additionally refuse to
//     forward packages and shares.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/aead.hpp"
#include "crypto/shamir.hpp"
#include "dht/node_id.hpp"
#include "emerge/onion.hpp"
#include "sim/simulator.hpp"

namespace emergence::core {

/// Behavior of malicious holders.
enum class AttackMode {
  kCovert,    ///< copy and forward (release-ahead attack)
  kDropping,  ///< copy and drop (drop attack)
};

/// Identifies one layer key. Onion-path holders of a column share the
/// column key (holder == kSharedHolder); extra share-carriers own
/// individual keys.
struct LayerKeyId {
  std::uint16_t column = 0;
  std::uint16_t holder = 0;

  static constexpr std::uint16_t kSharedHolder = 0xffff;

  bool operator==(const LayerKeyId&) const = default;
  bool operator<(const LayerKeyId& o) const {
    return column != o.column ? column < o.column : holder < o.holder;
  }
};

/// Coalition membership set, shareable between Adversary instances.
using Coalition = std::unordered_set<dht::NodeId, dht::NodeIdHash>;

/// Adversary coalition state and attack engine.
class Adversary {
 public:
  struct Config {
    AttackMode mode = AttackMode::kCovert;
    /// Holders 0..k-1 share the column key (pre-assigned-key schemes).
    /// Pass 0 for the share scheme: every holder owns an individual key.
    std::size_t onion_slots_k = 1;
    std::size_t share_threshold_m = 1;  ///< Shamir threshold (share scheme)
    /// Shared coalition membership. Null (the default) gives this adversary
    /// a private set — the historical behavior. Session fleets pass one
    /// shared set so that marking a coalition of tens of thousands of
    /// nodes is paid once per world, not once per session; the per-session
    /// *knowledge* (keys, shares, packages) stays private either way,
    /// because concurrent sessions reuse LayerKeyId coordinates.
    std::shared_ptr<Coalition> coalition = nullptr;
  };

  explicit Adversary(Config config)
      : config_(std::move(config)),
        malicious_(config_.coalition ? config_.coalition
                                     : std::make_shared<Coalition>()) {}

  // -- coalition membership --------------------------------------------------

  void mark_malicious(const dht::NodeId& node) { malicious_->insert(node); }
  bool is_malicious(const dht::NodeId& node) const {
    return malicious_->count(node) > 0;
  }
  std::size_t coalition_size() const { return malicious_->size(); }
  AttackMode mode() const { return config_.mode; }
  void set_mode(AttackMode mode) { config_.mode = mode; }

  // -- observations from malicious holders ------------------------------------

  void observe_key(const LayerKeyId& id, const crypto::SymmetricKey& key,
                   sim::Time when);
  void observe_share(const LayerKeyId& id, const crypto::Share& share,
                     sim::Time when);
  void observe_package(BytesView serialized_onion, sim::Time when);
  /// A malicious terminal holder saw the peeled secret directly.
  void observe_secret(BytesView secret, sim::Time when);

  // -- the attack --------------------------------------------------------------

  /// Runs the restore engine over everything captured so far. Returns the
  /// secret when reconstruction succeeds. Records the first success time.
  std::optional<Bytes> attempt_restore(sim::Time now);

  /// Earliest virtual time at which the adversary possessed the secret
  /// (via reconstruction or a terminal-holder capture).
  std::optional<sim::Time> earliest_secret_time() const {
    return earliest_secret_;
  }

  /// Number of layer keys currently known (captured or reconstructed).
  std::size_t known_keys() const { return keys_.size(); }
  std::size_t captured_packages() const { return packages_.size(); }
  std::size_t captured_shares() const;

 private:
  bool try_reconstruct_keys();

  Config config_;
  std::shared_ptr<Coalition> malicious_;

  std::map<LayerKeyId, crypto::SymmetricKey> keys_;
  std::map<LayerKeyId, std::vector<crypto::Share>> shares_;
  std::vector<Bytes> packages_;
  std::optional<Bytes> secret_;
  std::optional<sim::Time> earliest_secret_;
};

}  // namespace emergence::core
