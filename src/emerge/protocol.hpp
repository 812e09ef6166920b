// The end-to-end timed-release protocol over the Chord DHT (paper Fig. 1).
//
// One TimedReleaseSession orchestrates a single self-emerging message:
//
//   sender                           DHT                         receiver
//     | encrypt msg, upload to cloud  |                              |
//     | build paths + onions          |                              |
//     | ts: assign layer keys,        |                              |
//     |     send column-1 packages -> | holders peel/hold/forward    |
//     |                               | ... l columns, th each ...   |
//     |                               | tr: terminal holders ------> | secret
//     |                               |                              | decrypt
//
// Holder behavior runs as simulator events reached through the world's
// SessionDispatcher (session_dispatcher.hpp) — packages and store
// observations by nonce and storage key, the session's own timers by nonce
// — so a session may be destroyed at any time without leaving anything
// that points at it (docs/architecture.md, "Ownership rule"). Malicious
// holders report to the Adversary and, in dropping mode, break the chain.
// Protocol phases: PAPER.md §III; scheme taxonomy: PAPER.md §III-A..D.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "cloud/cloud_store.hpp"
#include "crypto/aead.hpp"
#include "crypto/drbg.hpp"
#include "dht/network.hpp"
#include "emerge/adversary.hpp"
#include "emerge/path.hpp"
#include "emerge/types.hpp"

namespace emergence::core {

class SessionDispatcher;

/// Static protocol parameters for one session.
struct SessionConfig {
  SchemeKind kind = SchemeKind::kJoint;
  PathShape shape{2, 3};
  std::size_t carriers_n = 0;    ///< share scheme: holders per column
  std::size_t threshold_m = 0;   ///< share scheme: Shamir threshold
  double emerging_time = 3600.0;  ///< T in virtual seconds
  /// Delay a holder waits after the first package arrives before processing,
  /// letting all shares of a column assemble (network latency << th).
  double assembly_delay = 1.0;
};

/// One holder package on the wire: the unit a holder receives at each hop.
/// This codec is the single home of the package byte layout — the in-process
/// session uses it over the simulated DHT and the `emerged` daemon carries
/// the exact same bytes inside its UDP frames, so a package captured from
/// either world decodes in the other.
struct ProtocolPackage {
  std::uint64_t session_nonce = 0;
  std::uint16_t column = 0;
  std::uint16_t holder_index = 0;
  std::vector<crypto::Share> shares;  ///< share-scheme key shares, may be empty
  Bytes onion;                        ///< serialized ColumnOnion for this hop
};

Bytes encode_protocol_package(std::uint64_t session_nonce, std::uint16_t column,
                              std::uint16_t holder_index, BytesView onion,
                              const std::vector<crypto::Share>& shares);
/// Throws CodecError / PreconditionError on malformed payloads.
ProtocolPackage decode_protocol_package(BytesView payload);

/// Counters exposed for tests and examples.
struct SessionReport {
  std::uint64_t packages_sent = 0;
  std::uint64_t packages_delivered = 0;
  std::uint64_t packages_dropped_malicious = 0;
  std::uint64_t malformed_packages = 0;  ///< undecodable payloads discarded
  std::uint64_t holders_stuck = 0;  ///< could not reconstruct a layer key
  std::uint64_t key_assignments = 0;
  std::uint64_t deliveries = 0;  ///< terminal deliveries to the receiver
};

/// Everything a TimedReleaseSession needs, as one named-field aggregate:
/// the only way to build a session. The session runs on the dispatcher's
/// network; both referents must outlive it.
struct SessionArgs {
  SessionDispatcher& dispatcher;
  cloud::CloudStore& cloud;
  Adversary* adversary = nullptr;  ///< nullptr = no attack
  SessionConfig config;
  std::uint64_t seed = 0;
};

/// One self-emerging message through the DHT.
class TimedReleaseSession {
 public:
  /// Throws PreconditionError on an invalid configuration.
  explicit TimedReleaseSession(const SessionArgs& args);
  ~TimedReleaseSession();

  TimedReleaseSession(const TimedReleaseSession&) = delete;
  TimedReleaseSession& operator=(const TimedReleaseSession&) = delete;

  /// Ends the session's tenancy on the network: erases its pre-assigned
  /// layer keys from DHT storage (so long-lived worlds don't accumulate
  /// dead keys into replica-maintenance scans) and deregisters from the
  /// dispatcher (late packages become counted strays, pending timers
  /// no-ops). Call once the session is past tr; the fleet does this before
  /// recycling the slot. Destruction deregisters the same way, minus the
  /// erase traffic. Idempotent.
  void retire();

  /// Encrypts and uploads `message`, builds paths/onions and launches the
  /// protocol at the current virtual time ts. Returns the cloud blob id.
  cloud::BlobId send(BytesView message, const std::string& receiver_token);

  // -- observation ------------------------------------------------------------

  double start_time() const { return start_time_; }
  double release_time() const { return start_time_ + config_.emerging_time; }
  /// th = T / l. Timing contract: hop schedules are anchored to *absolute*
  /// times — column c forwards at exactly ts + c*th and the terminal column
  /// delivers at exactly tr — so per-column overheads (assembly_delay plus
  /// message latency) are absorbed inside each hold instead of accumulating
  /// into an l*(assembly_delay + latency) drift past tr. The constructor
  /// precondition th > assembly_delay + 4*max_latency (max_latency = the
  /// transport's single-attempt bound L) guarantees every column finishes
  /// processing before its forwarding deadline; under it, and whenever the
  /// transport guarantees_exact_delivery (no partition window, retry ladder
  /// + L + assembly inside th), first_delivery_time() == release_time()
  /// exactly (bit-equal doubles; regression-tested for l in {1, 3, 6} in
  /// tests/test_protocol.cpp and under nonzero-latency transports in
  /// tests/test_protocol_properties.cpp). Packages a lossy or partitioned
  /// transport lands past a deadline are clamped to now and propagate
  /// hop-local lateness bounded by TransportModel::reap_slack.
  double holding_period() const {
    return config_.emerging_time / static_cast<double>(config_.shape.l);
  }

  /// True once at least one terminal holder delivered the secret at tr.
  bool secret_released() const { return released_secret_.has_value(); }
  std::optional<sim::Time> first_delivery_time() const {
    return first_delivery_;
  }
  const std::optional<Bytes>& released_secret() const {
    return released_secret_;
  }

  /// Receiver-side: downloads the ciphertext and decrypts it with the
  /// released secret. Returns nullopt before release.
  std::optional<Bytes> receiver_decrypt(const std::string& receiver_token);

  /// Reports every pre-assigned layer key currently stored on a malicious
  /// node to the adversary. Key assignment happens inside send(); callers
  /// that mark coalition nodes afterwards (tests, examples) use this to
  /// model an adversary whose nodes were compromised all along.
  void refresh_adversary_exposure();

  const PathLayout& layout() const { return layout_; }
  const SessionReport& report() const { return report_; }
  const SessionConfig& config() const { return config_; }
  /// The wire nonce stamped on every package of this session (0 before
  /// send()). Lets callers correlate dispatcher traffic, wire frames and
  /// api::EmergeEvents with the session that produced them.
  std::uint64_t session_nonce() const { return session_nonce_; }

 private:
  friend class SessionDispatcher;

  struct HolderState {
    Bytes onion;                        ///< first received package
    std::vector<crypto::Share> shares;  ///< gathered shares for my key
    /// The node occupying this holder slot when the package arrived; the
    /// in-RAM package dies with it (ring responsibility migrates, held
    /// state does not).
    dht::NodeId current_node;
    bool have_node = false;
    bool processing_scheduled = false;
    bool processed = false;
  };

  /// Layer key id for holder `h` of `column` (shared for onion slots).
  LayerKeyId key_id_for(std::uint16_t column, std::uint16_t holder) const;
  crypto::SymmetricKey layer_key(const LayerKeyId& id) const;

  void assign_keys_at_start();
  /// Schedules `action` on this session at `at`, routed by nonce through
  /// the dispatcher: the event is a no-op once the session is retired or
  /// destroyed.
  template <typename Action>
  void schedule_at(sim::Time at, Action action);
  /// Dispatcher entry points: a package addressed to this session's nonce,
  /// and a store observation for one of its registered storage keys.
  void handle_package_message(const dht::NodeId& to, BytesView payload);
  void observe_store(const dht::NodeId& node, const dht::NodeId& key,
                     BytesView value);
  void on_package(const dht::NodeId& node, std::uint16_t column,
                  std::uint16_t holder_index, BytesView onion,
                  std::vector<crypto::Share> shares);
  void process_holder(std::uint16_t column, std::uint16_t holder_index);
  void forward_from(std::uint16_t column, std::uint16_t holder_index,
                    const EnvelopeContent& content, const Bytes& inner);
  void deliver_to_receiver(std::uint16_t holder_index, const Bytes& secret);

  SessionDispatcher& dispatcher_;
  dht::Network& network_;
  cloud::CloudStore& cloud_;
  Adversary* adversary_;
  SessionConfig config_;
  bool retired_ = false;
  crypto::Drbg drbg_;

  PathLayout layout_;
  std::map<LayerKeyId, crypto::SymmetricKey> layer_keys_;
  /// Maps a pre-assigned layer key's DHT storage key — the holder slot's
  /// ring point (see assign_keys_at_start) — back to its layer-key id, so
  /// the store-observer can count replica repairs and join pulls of stored
  /// keys as exposure.
  std::map<dht::NodeId, LayerKeyId> storage_key_to_layer_;

  Bytes secret_key_;  ///< the message key routed through the DHT
  std::uint64_t session_nonce_ = 0;  ///< distinguishes concurrent sessions
  cloud::BlobId blob_id_;
  double start_time_ = 0.0;
  bool sent_ = false;

  std::map<std::pair<std::uint16_t, std::uint16_t>, HolderState> holders_;
  std::optional<Bytes> released_secret_;
  std::optional<sim::Time> first_delivery_;
  SessionReport report_;
};

}  // namespace emergence::core
