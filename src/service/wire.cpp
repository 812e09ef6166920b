#include "service/wire.hpp"

#include <bit>
#include <cctype>
#include <cstdlib>

#include "common/error.hpp"
#include "common/serial.hpp"

namespace emergence::service {
namespace {

void write_f64(BinaryWriter& w, double value) {
  w.u64(std::bit_cast<std::uint64_t>(value));
}

double read_f64(BinaryReader& r) { return std::bit_cast<double>(r.u64()); }

void write_endpoint(BinaryWriter& w, const Endpoint& ep) {
  w.u32(ep.ip);
  w.u16(ep.port);
}

Endpoint read_endpoint(BinaryReader& r) {
  Endpoint ep;
  ep.ip = r.u32();
  ep.port = r.u16();
  return ep;
}

void write_node_id(BinaryWriter& w, const dht::NodeId& id) {
  w.raw(BytesView(id.bytes().data(), id.bytes().size()));
}

dht::NodeId read_node_id(BinaryReader& r) {
  return dht::NodeId::from_bytes(r.raw(dht::kIdBytes));
}

void write_peer(BinaryWriter& w, const Peer& peer) {
  write_node_id(w, peer.id);
  write_endpoint(w, peer.addr);
}

Peer read_peer(BinaryReader& r) {
  Peer peer;
  peer.id = read_node_id(r);
  peer.addr = read_endpoint(r);
  return peer;
}

void write_peers(BinaryWriter& w, const std::vector<Peer>& peers) {
  w.u16(static_cast<std::uint16_t>(peers.size()));
  for (const Peer& p : peers) write_peer(w, p);
}

std::vector<Peer> read_peers(BinaryReader& r) {
  const std::uint16_t count = r.u16();
  std::vector<Peer> peers;
  peers.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) peers.push_back(read_peer(r));
  return peers;
}

void write_meta(BinaryWriter& w, const SessionMeta& meta) {
  w.u64(meta.session_nonce);
  write_f64(w, meta.start_time);
  write_f64(w, meta.emerging_time);
  w.u8(static_cast<std::uint8_t>(meta.scheme));
  w.u16(meta.k);
  w.u16(meta.l);
  w.u16(meta.carriers_n);
  w.u16(meta.threshold_m);
  w.u8(crypto::kChaCha20CipherId);
  write_f64(w, meta.assembly_delay);
  write_endpoint(w, meta.receiver);
}

SessionMeta read_meta(BinaryReader& r) {
  SessionMeta meta;
  meta.session_nonce = r.u64();
  meta.start_time = read_f64(r);
  meta.emerging_time = read_f64(r);
  const std::uint8_t scheme = r.u8();
  require(scheme <= static_cast<std::uint8_t>(core::SchemeKind::kShare),
          "SessionMeta: unknown scheme");
  meta.scheme = static_cast<core::SchemeKind>(scheme);
  meta.k = r.u16();
  meta.l = r.u16();
  meta.carriers_n = r.u16();
  meta.threshold_m = r.u16();
  require(r.u8() == crypto::kChaCha20CipherId,
          "SessionMeta: unknown cipher backend");
  meta.assembly_delay = read_f64(r);
  meta.receiver = read_endpoint(r);
  return meta;
}

struct PayloadWriter {
  BinaryWriter& w;

  void operator()(const Ping& m) {
    w.u64(m.token);
    write_endpoint(w, m.reply_to);
  }
  void operator()(const Pong& m) {
    w.u64(m.token);
    write_peer(w, m.self);
  }
  void operator()(const FindSuccessor& m) {
    w.u64(m.token);
    write_endpoint(w, m.reply_to);
    write_node_id(w, m.target);
    w.u8(m.hops_left);
  }
  void operator()(const FindSuccessorReply& m) {
    w.u64(m.token);
    write_peer(w, m.successor);
  }
  void operator()(const GetPredecessor& m) {
    w.u64(m.token);
    write_endpoint(w, m.reply_to);
  }
  void operator()(const PredecessorReply& m) {
    w.u64(m.token);
    w.u8(m.known ? 1 : 0);
    write_peer(w, m.predecessor);
    write_peers(w, m.successors);
  }
  void operator()(const Notify& m) { write_peer(w, m.self); }
  void operator()(const Put& m) {
    w.u64(m.token);
    write_endpoint(w, m.reply_to);
    write_node_id(w, m.key);
    w.blob(m.value);
    w.u8(m.hops_left);
  }
  void operator()(const PutAck& m) { w.u64(m.token); }
  void operator()(const Get& m) {
    w.u64(m.token);
    write_endpoint(w, m.reply_to);
    write_node_id(w, m.key);
    w.u8(m.hops_left);
  }
  void operator()(const GetReply& m) {
    w.u64(m.token);
    w.u8(m.found ? 1 : 0);
    w.blob(m.value);
  }
  void operator()(const StoreReplica& m) {
    write_node_id(w, m.key);
    w.blob(m.value);
  }
  void operator()(const Package& m) {
    write_meta(w, m.meta);
    write_node_id(w, m.ring_point);
    w.blob(m.package);
    w.u8(m.hops_left);
  }
  void operator()(const Deliver& m) { w.blob(m.event); }
  void operator()(const Submit& m) {
    w.u64(m.token);
    write_endpoint(w, m.reply_to);
    w.blob(m.request);
    write_endpoint(w, m.receiver);
  }
  void operator()(const SubmitAck& m) {
    w.u64(m.token);
    w.u8(m.ok ? 1 : 0);
    w.str(m.error);
    w.u64(m.session_nonce);
    write_f64(w, m.start_time);
    write_f64(w, m.release_time);
  }
  void operator()(const Status& m) {
    w.u64(m.token);
    write_endpoint(w, m.reply_to);
  }
  void operator()(const StatusReply& m) {
    w.u64(m.token);
    write_peer(w, m.self);
    w.u8(m.has_predecessor ? 1 : 0);
    write_peer(w, m.predecessor);
    write_peers(w, m.successors);
    w.u64(m.store_size);
    w.u64(m.holder_slots);
    w.u64(m.deliveries);
    w.u64(m.malformed_frames);
  }
  void operator()(const MetricsRequest& m) {
    w.u64(m.token);
    write_endpoint(w, m.reply_to);
  }
  void operator()(const MetricsResponse& m) {
    w.u64(m.token);
    w.u16(static_cast<std::uint16_t>(m.entries.size()));
    for (const auto& [name, value] : m.entries) {
      w.str(name);
      write_f64(w, value);
    }
  }
};

WireMessage decode_payload(MessageType type, BytesView payload) {
  BinaryReader r(payload);
  WireMessage message;
  switch (type) {
    case MessageType::kPing: {
      Ping m;
      m.token = r.u64();
      m.reply_to = read_endpoint(r);
      message = m;
      break;
    }
    case MessageType::kPong: {
      Pong m;
      m.token = r.u64();
      m.self = read_peer(r);
      message = m;
      break;
    }
    case MessageType::kFindSuccessor: {
      FindSuccessor m;
      m.token = r.u64();
      m.reply_to = read_endpoint(r);
      m.target = read_node_id(r);
      m.hops_left = r.u8();
      message = m;
      break;
    }
    case MessageType::kFindSuccessorReply: {
      FindSuccessorReply m;
      m.token = r.u64();
      m.successor = read_peer(r);
      message = m;
      break;
    }
    case MessageType::kGetPredecessor: {
      GetPredecessor m;
      m.token = r.u64();
      m.reply_to = read_endpoint(r);
      message = m;
      break;
    }
    case MessageType::kPredecessorReply: {
      PredecessorReply m;
      m.token = r.u64();
      m.known = r.u8() != 0;
      m.predecessor = read_peer(r);
      m.successors = read_peers(r);
      message = m;
      break;
    }
    case MessageType::kNotify: {
      Notify m;
      m.self = read_peer(r);
      message = m;
      break;
    }
    case MessageType::kPut: {
      Put m;
      m.token = r.u64();
      m.reply_to = read_endpoint(r);
      m.key = read_node_id(r);
      m.value = r.blob();
      m.hops_left = r.u8();
      message = m;
      break;
    }
    case MessageType::kPutAck: {
      PutAck m;
      m.token = r.u64();
      message = m;
      break;
    }
    case MessageType::kGet: {
      Get m;
      m.token = r.u64();
      m.reply_to = read_endpoint(r);
      m.key = read_node_id(r);
      m.hops_left = r.u8();
      message = m;
      break;
    }
    case MessageType::kGetReply: {
      GetReply m;
      m.token = r.u64();
      m.found = r.u8() != 0;
      m.value = r.blob();
      message = m;
      break;
    }
    case MessageType::kStoreReplica: {
      StoreReplica m;
      m.key = read_node_id(r);
      m.value = r.blob();
      message = m;
      break;
    }
    case MessageType::kPackage: {
      Package m;
      m.meta = read_meta(r);
      m.ring_point = read_node_id(r);
      m.package = r.blob();
      m.hops_left = r.u8();
      message = m;
      break;
    }
    case MessageType::kDeliver: {
      Deliver m;
      m.event = r.blob();
      message = m;
      break;
    }
    case MessageType::kSubmit: {
      Submit m;
      m.token = r.u64();
      m.reply_to = read_endpoint(r);
      m.request = r.blob();
      m.receiver = read_endpoint(r);
      message = m;
      break;
    }
    case MessageType::kSubmitAck: {
      SubmitAck m;
      m.token = r.u64();
      m.ok = r.u8() != 0;
      m.error = r.str();
      m.session_nonce = r.u64();
      m.start_time = read_f64(r);
      m.release_time = read_f64(r);
      message = m;
      break;
    }
    case MessageType::kStatus: {
      Status m;
      m.token = r.u64();
      m.reply_to = read_endpoint(r);
      message = m;
      break;
    }
    case MessageType::kStatusReply: {
      StatusReply m;
      m.token = r.u64();
      m.self = read_peer(r);
      m.has_predecessor = r.u8() != 0;
      m.predecessor = read_peer(r);
      m.successors = read_peers(r);
      m.store_size = r.u64();
      m.holder_slots = r.u64();
      m.deliveries = r.u64();
      m.malformed_frames = r.u64();
      message = m;
      break;
    }
    case MessageType::kMetricsRequest: {
      MetricsRequest m;
      m.token = r.u64();
      m.reply_to = read_endpoint(r);
      message = m;
      break;
    }
    case MessageType::kMetricsResponse: {
      MetricsResponse m;
      m.token = r.u64();
      const std::uint16_t count = r.u16();
      m.entries.reserve(count);
      for (std::uint16_t i = 0; i < count; ++i) {
        std::string name = r.str();
        const double value = read_f64(r);
        m.entries.emplace_back(std::move(name), value);
      }
      message = m;
      break;
    }
  }
  r.expect_done();
  return message;
}

}  // namespace

std::string Endpoint::to_string() const {
  return std::to_string((ip >> 24) & 0xFF) + "." +
         std::to_string((ip >> 16) & 0xFF) + "." +
         std::to_string((ip >> 8) & 0xFF) + "." + std::to_string(ip & 0xFF) +
         ":" + std::to_string(port);
}

Endpoint Endpoint::parse(const std::string& text) {
  const auto fail = [&text]() -> void {
    throw PreconditionError("Endpoint::parse: malformed endpoint '" + text +
                            "' (want a.b.c.d:port)");
  };
  std::uint32_t ip = 0;
  std::size_t pos = 0;
  for (int octet = 0; octet < 4; ++octet) {
    if (pos >= text.size() || !std::isdigit(text[pos])) fail();
    unsigned long value = 0;
    std::size_t digits = 0;
    while (pos < text.size() && std::isdigit(text[pos]) && digits < 4) {
      value = value * 10 + static_cast<unsigned long>(text[pos] - '0');
      ++pos;
      ++digits;
    }
    if (value > 255) fail();
    ip = (ip << 8) | static_cast<std::uint32_t>(value);
    const char sep = octet < 3 ? '.' : ':';
    if (pos >= text.size() || text[pos] != sep) fail();
    ++pos;
  }
  unsigned long port = 0;
  std::size_t digits = 0;
  while (pos < text.size() && std::isdigit(text[pos]) && digits < 6) {
    port = port * 10 + static_cast<unsigned long>(text[pos] - '0');
    ++pos;
    ++digits;
  }
  if (digits == 0 || pos != text.size() || port == 0 || port > 65535) fail();
  return Endpoint{ip, static_cast<std::uint16_t>(port)};
}

MessageType message_type(const WireMessage& message) {
  // clang-format off
  return std::visit([](const auto& m) {
    using T = std::decay_t<decltype(m)>;
    if constexpr (std::is_same_v<T, Ping>) return MessageType::kPing;
    else if constexpr (std::is_same_v<T, Pong>) return MessageType::kPong;
    else if constexpr (std::is_same_v<T, FindSuccessor>) return MessageType::kFindSuccessor;
    else if constexpr (std::is_same_v<T, FindSuccessorReply>) return MessageType::kFindSuccessorReply;
    else if constexpr (std::is_same_v<T, GetPredecessor>) return MessageType::kGetPredecessor;
    else if constexpr (std::is_same_v<T, PredecessorReply>) return MessageType::kPredecessorReply;
    else if constexpr (std::is_same_v<T, Notify>) return MessageType::kNotify;
    else if constexpr (std::is_same_v<T, Put>) return MessageType::kPut;
    else if constexpr (std::is_same_v<T, PutAck>) return MessageType::kPutAck;
    else if constexpr (std::is_same_v<T, Get>) return MessageType::kGet;
    else if constexpr (std::is_same_v<T, GetReply>) return MessageType::kGetReply;
    else if constexpr (std::is_same_v<T, StoreReplica>) return MessageType::kStoreReplica;
    else if constexpr (std::is_same_v<T, Package>) return MessageType::kPackage;
    else if constexpr (std::is_same_v<T, Deliver>) return MessageType::kDeliver;
    else if constexpr (std::is_same_v<T, Submit>) return MessageType::kSubmit;
    else if constexpr (std::is_same_v<T, SubmitAck>) return MessageType::kSubmitAck;
    else if constexpr (std::is_same_v<T, Status>) return MessageType::kStatus;
    else if constexpr (std::is_same_v<T, StatusReply>) return MessageType::kStatusReply;
    else if constexpr (std::is_same_v<T, MetricsRequest>) return MessageType::kMetricsRequest;
    else return MessageType::kMetricsResponse;
  }, message);
  // clang-format on
}

Bytes encode_frame(const WireMessage& message) {
  BinaryWriter payload;
  std::visit(PayloadWriter{payload}, message);
  require(payload.bytes().size() <= kMaxFramePayload,
          "encode_frame: payload exceeds kMaxFramePayload");
  BinaryWriter w;
  w.u8(kWireMagic);
  w.u8(kWireVersion);
  w.u8(static_cast<std::uint8_t>(message_type(message)));
  w.u32(static_cast<std::uint32_t>(payload.bytes().size()));
  w.raw(payload.bytes());
  return w.take();
}

std::optional<WireMessage> decode_frame(BytesView datagram, WireStats& stats) {
  constexpr std::size_t kHeader = 7;  // magic + version + type + u32 length
  if (datagram.size() < kHeader) {
    // An alien scrap without even a magic byte to check counts as truncated
    // unless the first byte already rules it out as ours.
    if (!datagram.empty() && datagram[0] != kWireMagic) {
      ++stats.bad_magic;
    } else {
      ++stats.truncated_frames;
    }
    return std::nullopt;
  }
  BinaryReader r(datagram);
  if (r.u8() != kWireMagic) {
    ++stats.bad_magic;
    return std::nullopt;
  }
  if (r.u8() != kWireVersion) {
    ++stats.version_mismatch;
    return std::nullopt;
  }
  const std::uint8_t raw_type = r.u8();
  const std::uint32_t length = r.u32();
  if (length > kMaxFramePayload) {
    ++stats.oversized_frames;
    return std::nullopt;
  }
  if (length != r.remaining()) {
    ++stats.truncated_frames;  // short body or trailing garbage
    return std::nullopt;
  }
  if (raw_type < static_cast<std::uint8_t>(MessageType::kPing) ||
      raw_type > static_cast<std::uint8_t>(MessageType::kMetricsResponse)) {
    ++stats.unknown_type;
    return std::nullopt;
  }
  try {
    WireMessage message = decode_payload(static_cast<MessageType>(raw_type),
                                         BytesView(datagram.data() + kHeader,
                                                   length));
    ++stats.frames_received;
    return message;
  } catch (const Error&) {
    ++stats.malformed_payload;
    return std::nullopt;
  }
}

}  // namespace emergence::service
