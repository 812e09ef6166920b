// Flat O(1) routing of network events to concurrent sessions: the one way
// events reach a TimedReleaseSession.
//
// A world owns exactly one dispatcher per network, built right after the
// network and before any session. It installs ONE default handler and ONE
// store observer on the network (the constructor requires that none is
// installed yet — nothing is chained) and routes by lookup: packages by
// the session nonce they already carry (a 64-bit drbg draw, unique per
// session), store observations by the storage key the session registered
// for its pre-assigned layer keys, and a session's own simulator timers by
// its nonce as well. Sessions register during send() and deregister on
// retire()/destruction, so a session may be destroyed at any time: its
// pending timers resolve to nothing and later packages become counted
// strays. The fleet recycles hundreds of thousands of session slots
// against one world this way at O(1) per event; tests, examples and
// api::LocalClient use the same path for their handful of sessions.
//
// The dispatcher must outlive both the network's event traffic and every
// session registered with it (the fleet owns all three; see
// workload/session_fleet.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <unordered_map>

#include "dht/network.hpp"

namespace emergence::core {

class TimedReleaseSession;

/// Reads the session nonce out of a serialized protocol package without a
/// full decode; nullopt when the payload is not a protocol package.
/// (Implemented in protocol.cpp beside the package codec so the wire
/// prefix constant has one home.)
std::optional<std::uint64_t> peek_session_nonce(BytesView payload);

/// Shared router for all sessions on one network.
class SessionDispatcher {
 public:
  /// Takes over `network`'s default message handler and store observer;
  /// PreconditionError when either is already installed.
  explicit SessionDispatcher(dht::Network& network);

  SessionDispatcher(const SessionDispatcher&) = delete;
  SessionDispatcher& operator=(const SessionDispatcher&) = delete;

  /// The network this dispatcher serves — the one its sessions run on.
  dht::Network& network() const { return network_; }

  std::size_t live_sessions() const { return by_nonce_.size(); }
  std::size_t tracked_storage_keys() const { return by_storage_key_.size(); }
  /// Protocol packages whose nonce matched no live session (late arrivals
  /// for retired or destroyed sessions; harmless, but worth counting).
  std::uint64_t stray_packages() const {
    return stray_packages_.load(std::memory_order_relaxed);
  }
  /// Payloads that do not even start like a protocol package (shorter than
  /// the type byte plus nonce, or another type byte): garbage any node can
  /// address at a holder. Dropped and counted, never fatal.
  std::uint64_t malformed_packages() const {
    return malformed_packages_.load(std::memory_order_relaxed);
  }

 private:
  friend class TimedReleaseSession;

  /// The live session registered under `nonce`, or nullptr.
  TimedReleaseSession* find(std::uint64_t nonce) const;
  void register_session(std::uint64_t nonce, TimedReleaseSession* session);
  void deregister_session(std::uint64_t nonce);
  void register_storage_key(const dht::NodeId& key,
                            TimedReleaseSession* session);
  void deregister_storage_key(const dht::NodeId& key);

  dht::Network& network_;
  std::unordered_map<std::uint64_t, TimedReleaseSession*> by_nonce_;
  std::unordered_map<dht::NodeId, TimedReleaseSession*, dht::NodeIdHash>
      by_storage_key_;
  /// Atomic: deliveries fire inside parallel executor windows (the routing
  /// maps themselves only mutate at serial barriers — send/retire).
  std::atomic<std::uint64_t> stray_packages_{0};
  std::atomic<std::uint64_t> malformed_packages_{0};
};

}  // namespace emergence::core
