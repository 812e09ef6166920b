// The emerged wire protocol: length-prefixed, version-stamped frames.
//
// Every datagram between daemons (and between clients and daemons) is one
// frame:
//
//   u8  magic   (0xE7)     — cheap reject of stray datagrams
//   u8  version (kWireVersion)
//   u8  type    (MessageType)
//   u32 length  of the payload that follows
//   ... payload (message-specific codec below)
//
// Robustness contract: decode_frame NEVER throws and NEVER aborts the
// receiver — wrong magic, unknown version, unknown type, truncated or
// oversized payloads, and payloads whose codec fails all return nullopt
// and bump the matching WireStats counter. A daemon fed garbage keeps
// serving (tests/test_wire.cpp injects every malformation class).
//
// Round-trip contract: encode(decode(encode(m))) is byte-identical for
// every message type — the property tests pin this at fixed seeds, which
// is what lets the in-process loopback harness and the real UDP cluster
// exchange captured frames interchangeably.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "api/api.hpp"
#include "dht/node_id.hpp"
#include "emerge/types.hpp"

namespace emergence::service {

constexpr std::uint8_t kWireMagic = 0xE7;
constexpr std::uint8_t kWireVersion = 1;
/// Payload ceiling: one frame must fit a localhost UDP datagram with room
/// for the 7-byte header (default datagram limit is 65507 bytes).
constexpr std::size_t kMaxFramePayload = 60000;

/// A UDP endpoint; IPv4 only (the deployment target is localhost clusters).
struct Endpoint {
  std::uint32_t ip = 0;  ///< host byte order (127.0.0.1 = 0x7F000001)
  std::uint16_t port = 0;

  auto operator<=>(const Endpoint&) const = default;
  bool valid() const { return port != 0; }
  std::string to_string() const;  ///< "127.0.0.1:9000"
  /// Parses "a.b.c.d:port"; throws PreconditionError on malformed input.
  static Endpoint parse(const std::string& text);
};

/// A node as seen on the wire: ring identifier + where to reach it.
struct Peer {
  dht::NodeId id;
  Endpoint addr;

  auto operator<=>(const Peer&) const = default;
};

/// Receiver-side counters; every malformation class has its own bucket so
/// the cluster harness can assert `malformed_frames == 0` end-to-end.
struct WireStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bad_magic = 0;
  std::uint64_t version_mismatch = 0;
  std::uint64_t truncated_frames = 0;   ///< header short or length > body
  std::uint64_t oversized_frames = 0;   ///< length > kMaxFramePayload
  std::uint64_t unknown_type = 0;
  std::uint64_t malformed_payload = 0;  ///< codec failure inside the payload
  std::uint64_t hops_exhausted = 0;     ///< routed message ran out of hops
  std::uint64_t request_timeouts = 0;
  std::uint64_t request_retries = 0;

  /// Everything that indicates a damaged or alien frame.
  std::uint64_t malformed_frames() const {
    return bad_magic + version_mismatch + truncated_frames +
           oversized_frames + unknown_type + malformed_payload;
  }
};

enum class MessageType : std::uint8_t {
  kPing = 1,
  kPong = 2,
  kFindSuccessor = 3,
  kFindSuccessorReply = 4,
  kGetPredecessor = 5,
  kPredecessorReply = 6,
  kNotify = 7,
  kPut = 8,
  kPutAck = 9,
  kGet = 10,
  kGetReply = 11,
  kStoreReplica = 12,
  kPackage = 13,
  kDeliver = 14,
  kSubmit = 15,
  kSubmitAck = 16,
  kStatus = 17,
  kStatusReply = 18,
  kMetricsRequest = 19,
  kMetricsResponse = 20,
};

// -- message structs ----------------------------------------------------------
// Requests that expect a reply carry a token (matched by the sender's
// pending-request table) and the reply_to endpoint, because routed requests
// arrive via intermediate hops while replies travel directly.

struct Ping {
  std::uint64_t token = 0;
  Endpoint reply_to;
};

struct Pong {
  std::uint64_t token = 0;
  Peer self;
};

struct FindSuccessor {
  std::uint64_t token = 0;
  Endpoint reply_to;
  dht::NodeId target;
  std::uint8_t hops_left = 0;
};

struct FindSuccessorReply {
  std::uint64_t token = 0;
  Peer successor;
};

struct GetPredecessor {
  std::uint64_t token = 0;
  Endpoint reply_to;
};

struct PredecessorReply {
  std::uint64_t token = 0;
  bool known = false;
  Peer predecessor;
  /// The replier's successor list, piggybacked so one stabilize round both
  /// checks the predecessor link and refreshes the list.
  std::vector<Peer> successors;
};

struct Notify {
  Peer self;
};

struct Put {
  std::uint64_t token = 0;
  Endpoint reply_to;
  dht::NodeId key;
  Bytes value;
  std::uint8_t hops_left = 0;
};

struct PutAck {
  std::uint64_t token = 0;
};

struct Get {
  std::uint64_t token = 0;
  Endpoint reply_to;
  dht::NodeId key;
  std::uint8_t hops_left = 0;
};

struct GetReply {
  std::uint64_t token = 0;
  bool found = false;
  Bytes value;
};

/// Responsible-node -> successor copy; stored without forwarding or ack.
struct StoreReplica {
  dht::NodeId key;
  Bytes value;
};

/// Everything a holder needs to act on a package locally: the wire has no
/// central session object, so the session parameters travel with every hop.
struct SessionMeta {
  std::uint64_t session_nonce = 0;
  double start_time = 0.0;     ///< ts on the cluster's wall clock
  double emerging_time = 0.0;  ///< T in seconds
  core::SchemeKind scheme = core::SchemeKind::kJoint;
  std::uint16_t k = 0;
  std::uint16_t l = 0;
  std::uint16_t carriers_n = 0;
  std::uint16_t threshold_m = 0;
  double assembly_delay = 0.0;
  Endpoint receiver;  ///< where terminal holders deliver the EmergeEvent

  double holding_period() const {
    return emerging_time / static_cast<double>(l);
  }
  double release_time() const { return start_time + emerging_time; }
};

/// One protocol package hop. `ring_point` is both the routing target and
/// the holder slot identity: the layer key for this slot was Put under the
/// same id, so the responsible daemon finds it in its local store.
/// `package` is core::encode_protocol_package bytes — the exact bytes the
/// simulator exchanges, reused verbatim.
struct Package {
  SessionMeta meta;
  dht::NodeId ring_point;
  Bytes package;
  std::uint8_t hops_left = 0;
};

/// Terminal holder -> receiver; payload is api::encode_emerge_event bytes.
struct Deliver {
  Bytes event;
};

/// Client -> any daemon; `request` is api::encode_submit_request bytes and
/// `receiver` is where the emergence should land.
struct Submit {
  std::uint64_t token = 0;
  Endpoint reply_to;
  Bytes request;
  Endpoint receiver;
};

struct SubmitAck {
  std::uint64_t token = 0;
  bool ok = false;
  std::string error;  ///< empty when ok
  std::uint64_t session_nonce = 0;
  double start_time = 0.0;
  double release_time = 0.0;
};

struct Status {
  std::uint64_t token = 0;
  Endpoint reply_to;
};

/// Ring-walk unit: enough to verify convergence (successor chain), storage
/// health and the zero-malformed-frames acceptance gate.
struct StatusReply {
  std::uint64_t token = 0;
  Peer self;
  bool has_predecessor = false;
  Peer predecessor;
  std::vector<Peer> successors;
  std::uint64_t store_size = 0;
  std::uint64_t holder_slots = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t malformed_frames = 0;
};

struct MetricsRequest {
  std::uint64_t token = 0;
  Endpoint reply_to;
};

/// Flattened snapshot of the daemon's metrics registry: one (series name,
/// value) pair per counter/gauge plus the expanded histogram summaries —
/// the same flattening obs::MetricsRegistry::flatten() produces, so the
/// wire answer and the periodic text dump always agree.
struct MetricsResponse {
  std::uint64_t token = 0;
  std::vector<std::pair<std::string, double>> entries;
};

using WireMessage =
    std::variant<Ping, Pong, FindSuccessor, FindSuccessorReply,
                 GetPredecessor, PredecessorReply, Notify, Put, PutAck, Get,
                 GetReply, StoreReplica, Package, Deliver, Submit, SubmitAck,
                 Status, StatusReply, MetricsRequest, MetricsResponse>;

/// The frame type of a message value.
MessageType message_type(const WireMessage& message);

/// Encodes a full frame (header + payload). Throws PreconditionError when
/// the payload would exceed kMaxFramePayload — senders size their messages.
Bytes encode_frame(const WireMessage& message);

/// Decodes one datagram. Never throws: every malformation returns nullopt
/// and bumps the matching counter in `stats` (frames_received is counted
/// only for well-formed frames).
std::optional<WireMessage> decode_frame(BytesView datagram, WireStats& stats);

}  // namespace emergence::service
