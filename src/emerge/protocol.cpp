#include "emerge/protocol.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/serial.hpp"
#include "emerge/session_dispatcher.hpp"

namespace emergence::core {
namespace {

constexpr std::uint8_t kMsgPackage = 1;

}  // namespace

Bytes encode_protocol_package(std::uint64_t session_nonce, std::uint16_t column,
                              std::uint16_t holder_index, BytesView onion,
                              const std::vector<crypto::Share>& shares) {
  BinaryWriter w;
  w.u8(kMsgPackage);
  w.u64(session_nonce);
  w.u16(column);
  w.u16(holder_index);
  w.u16(static_cast<std::uint16_t>(shares.size()));
  for (const crypto::Share& s : shares) w.blob(crypto::share_to_bytes(s));
  w.blob(onion);
  return w.take();
}

ProtocolPackage decode_protocol_package(BytesView payload) {
  BinaryReader r(payload);
  require(r.u8() == kMsgPackage,
          "decode_protocol_package: wrong message type");
  ProtocolPackage pkg;
  pkg.session_nonce = r.u64();
  pkg.column = r.u16();
  pkg.holder_index = r.u16();
  const std::uint16_t count = r.u16();
  pkg.shares.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i)
    pkg.shares.push_back(crypto::share_from_bytes(r.blob()));
  pkg.onion = r.blob();
  r.expect_done();
  return pkg;
}

std::optional<std::uint64_t> peek_session_nonce(BytesView payload) {
  // Lives next to encode_protocol_package/decode_protocol_package so the wire prefix (u8
  // kMsgPackage, u64 nonce) has exactly one home.
  if (payload.size() < 9 || payload[0] != kMsgPackage) return std::nullopt;
  BinaryReader r(payload);
  r.u8();
  return r.u64();
}

TimedReleaseSession::TimedReleaseSession(const SessionArgs& args)
    : dispatcher_(args.dispatcher),
      network_(args.dispatcher.network()),
      cloud_(args.cloud),
      adversary_(args.adversary),
      config_(args.config),
      drbg_(args.seed) {
  require(config_.shape.k >= 1 && config_.shape.l >= 1,
          "TimedReleaseSession: degenerate path shape");
  if (config_.kind == SchemeKind::kShare) {
    require(config_.carriers_n >= config_.shape.k,
            "TimedReleaseSession: share scheme needs carriers_n >= k");
    require(config_.threshold_m >= 1 &&
                config_.threshold_m <= config_.carriers_n,
            "TimedReleaseSession: invalid Shamir threshold");
  }
  require(holding_period() > config_.assembly_delay +
                                 network_.max_message_latency() * 4,
          "TimedReleaseSession: holding period too short for the network");
}

TimedReleaseSession::~TimedReleaseSession() {
  // Deregister without network cleanup: a world being torn down wholesale
  // does not need erase traffic, only the dispatcher's pointers must go.
  if (retired_) return;
  for (const auto& [storage_key, layer_id] : storage_key_to_layer_) {
    (void)layer_id;
    dispatcher_.deregister_storage_key(storage_key);
  }
  if (sent_) dispatcher_.deregister_session(session_nonce_);
}

void TimedReleaseSession::retire() {
  if (retired_ || !sent_) return;
  retired_ = true;
  for (const auto& [storage_key, layer_id] : storage_key_to_layer_) {
    (void)layer_id;
    network_.erase(storage_key);
    dispatcher_.deregister_storage_key(storage_key);
  }
  dispatcher_.deregister_session(session_nonce_);
}

template <typename Action>
void TimedReleaseSession::schedule_at(sim::Time at, Action action) {
  network_.simulator().schedule_at(
      at, [&dispatcher = dispatcher_, nonce = session_nonce_,
           action = std::move(action)]() {
        if (TimedReleaseSession* self = dispatcher.find(nonce)) action(*self);
      });
}

LayerKeyId TimedReleaseSession::key_id_for(std::uint16_t column,
                                           std::uint16_t holder) const {
  // Pre-assigned-key schemes: the k onion slots of a column share K_c
  // (paper §III-B/C). Share scheme: every holder owns an individual key —
  // a shared slot key would let a single malicious onion slot (which
  // reconstructs that key from the n shares addressed to it) open all k
  // slot envelopes and harvest k shares of every next-column key,
  // collapsing the per-column Shamir threshold whenever m <= k. The e2e
  // cross-validation harness flagged exactly that cascade against
  // Algorithm 1's per-column threshold model.
  if (config_.kind != SchemeKind::kShare && holder < config_.shape.k)
    return LayerKeyId{column, LayerKeyId::kSharedHolder};
  return LayerKeyId{column, holder};
}

crypto::SymmetricKey TimedReleaseSession::layer_key(
    const LayerKeyId& id) const {
  auto it = layer_keys_.find(id);
  require(it != layer_keys_.end(), "TimedReleaseSession: unknown layer key");
  return it->second;
}

cloud::BlobId TimedReleaseSession::send(BytesView message,
                                        const std::string& receiver_token) {
  require(!sent_, "TimedReleaseSession::send called twice");
  sent_ = true;
  start_time_ = network_.simulator().now();
  session_nonce_ = drbg_.u64();
  dispatcher_.register_session(session_nonce_, this);

  // 1. Encrypt the message and hand the ciphertext to the cloud.
  secret_key_ = drbg_.bytes(32);
  const crypto::SymmetricKey msg_key =
      crypto::SymmetricKey::from_bytes(secret_key_);
  const Bytes nonce = drbg_.bytes(12);
  const Bytes ciphertext =
      crypto::aead_seal(msg_key, nonce, message, bytes_of("emergence/message"));
  blob_id_ = cloud_.upload(ciphertext, receiver_token);

  // 2. Pseudo-randomly select holders through DHT lookups.
  const std::size_t carriers =
      config_.kind == SchemeKind::kShare ? config_.carriers_n : config_.shape.k;
  layout_ = build_path_layout(network_, config_.kind, config_.shape, carriers,
                              drbg_);

  // 3. Generate layer keys: one shared onion key per column for the
  // pre-assigned schemes, an individual key per holder for the share
  // scheme (see key_id_for for why sharing would break the threshold).
  const std::size_t l = config_.shape.l;
  for (std::size_t c = 1; c <= l; ++c) {
    const std::size_t holders = layout_.holders_in_column(c);
    for (std::size_t h = 0; h < holders; ++h) {
      const LayerKeyId id = key_id_for(static_cast<std::uint16_t>(c),
                                       static_cast<std::uint16_t>(h));
      if (layer_keys_.find(id) == layer_keys_.end()) {
        layer_keys_[id] = crypto::SymmetricKey::from_bytes(drbg_.bytes(32));
      }
    }
  }

  // 4. Build the envelopes for every column.
  std::vector<ColumnBuildSpec> specs(l);
  for (std::size_t c = 1; c <= l; ++c) {
    ColumnBuildSpec& spec = specs[c - 1];
    const std::size_t holders = layout_.holders_in_column(c);
    const bool terminal = (c == l);
    spec.holder_keys.reserve(holders);
    spec.envelopes.resize(holders);

    // Pre-split the next column's keys for the share scheme: every key of
    // column c+1 is split into `holders` shares with threshold m; share h
    // goes into holder h's envelope.
    std::vector<std::vector<crypto::Share>> next_key_shares;  // [target][src]
    if (config_.kind == SchemeKind::kShare && !terminal) {
      const std::size_t next_holders = layout_.holders_in_column(c + 1);
      next_key_shares.resize(next_holders);
      for (std::size_t t = 0; t < next_holders; ++t) {
        // Every share-scheme holder has an individual key (key_id_for), so
        // every target's key is split independently.
        const LayerKeyId id =
            key_id_for(static_cast<std::uint16_t>(c + 1),
                       static_cast<std::uint16_t>(t));
        next_key_shares[t] = crypto::shamir_split(
            layer_key(id).to_bytes(), config_.threshold_m, holders, drbg_);
      }
    }

    for (std::size_t h = 0; h < holders; ++h) {
      spec.holder_keys.push_back(layer_key(
          key_id_for(static_cast<std::uint16_t>(c),
                     static_cast<std::uint16_t>(h))));
      EnvelopeContent& env = spec.envelopes[h];
      if (terminal) {
        env.terminal_payload = secret_key_;
        continue;
      }
      // Next hops are ring positions: forwarding re-resolves them through
      // the DHT, so a dead holder's slot is served by its successor.
      const auto& next_points = layout_.ring_points[c];  // column c+1
      if (config_.kind == SchemeKind::kDisjoint) {
        env.next_hops.push_back(next_points[h]);
      } else {
        env.next_hops = next_points;
      }
      if (config_.kind == SchemeKind::kShare) {
        for (std::size_t t = 0; t < next_points.size(); ++t) {
          env.shares.push_back(TargetedShare{
              static_cast<std::uint16_t>(t), next_key_shares[t][h]});
        }
      }
    }
  }
  const Bytes onion = build_onion(specs, drbg_);

  // 5. Pre-assign keys, launch the first column.
  assign_keys_at_start();

  for (std::size_t h = 0; h < layout_.holders_in_column(1); ++h) {
    const dht::NodeId& point = layout_.ring_points[0][h];
    network_.send_message_routed(
        point, point,
        encode_protocol_package(session_nonce_, 1, static_cast<std::uint16_t>(h),
                       onion, {}));
    ++report_.packages_sent;
  }
  return blob_id_;
}

void TimedReleaseSession::assign_keys_at_start() {
  // Which columns receive their layer keys directly at ts?
  //  * disjoint/joint: every column (the schemes pre-assign K_1..K_l);
  //  * share: only column 1 (later keys travel as shares with the onion).
  const std::size_t last_preassigned_column =
      config_.kind == SchemeKind::kShare ? 1 : config_.shape.l;

  for (std::size_t c = 1; c <= last_preassigned_column; ++c) {
    const std::size_t holders = layout_.holders_in_column(c);
    for (std::size_t h = 0; h < holders; ++h) {
      const LayerKeyId id = key_id_for(static_cast<std::uint16_t>(c),
                                       static_cast<std::uint16_t>(h));
      const dht::NodeId& holder = layout_.columns[c - 1][h];
      // The storage key IS the slot's ring point. Responsibility for the
      // stored key then migrates under churn exactly like responsibility
      // for routed packages: replica repair pushes copies along the ring
      // point's successor chain, so the node that receives the package
      // after the original holder dies is the same node the repaired key
      // landed on. (An earlier revision hashed a session-unique tuple
      // instead, which scattered repairs to nodes unrelated to the slot —
      // replacements could never reconstruct, inflating drop rates under
      // churn far beyond the renewal model; the e2e cross-validation sweep
      // flags exactly this class of divergence.) Ring points are
      // drbg-derived, so the placement is also reproducible from seeds
      // alone. Cross-session collisions would need two drbgs to emit the
      // same 160-bit point.
      const dht::NodeId storage_key = layout_.ring_points[c - 1][h];
      storage_key_to_layer_[storage_key] = id;
      // Replica repairs of stored layer keys must also count as exposure
      // (paper §III-D: the replacement node learns the key); the dispatcher
      // routes those store observations here by this key.
      dispatcher_.register_storage_key(storage_key, this);

      if (!network_.store_on(holder, storage_key, layer_key(id).to_bytes()))
        continue;  // holder died before assignment
      ++report_.key_assignments;
    }
  }
}

void TimedReleaseSession::handle_package_message(const dht::NodeId& to,
                                                 BytesView payload) {
  ProtocolPackage pkg;
  try {
    pkg = decode_protocol_package(payload);
  } catch (const Error&) {
    ++report_.malformed_packages;
    return;
  }
  if (pkg.session_nonce != session_nonce_) return;  // dispatcher misroute
  on_package(to, pkg.column, pkg.holder_index, pkg.onion,
             std::move(pkg.shares));
}

void TimedReleaseSession::observe_store(const dht::NodeId& node,
                                        const dht::NodeId& key,
                                        BytesView value) {
  auto it = storage_key_to_layer_.find(key);
  if (it == storage_key_to_layer_.end()) return;
  if (adversary_ != nullptr && adversary_->is_malicious(node) &&
      value.size() == 32) {
    adversary_->observe_key(it->second, crypto::SymmetricKey::from_bytes(value),
                            network_.simulator().now());
  }
}

void TimedReleaseSession::on_package(const dht::NodeId& node,
                                     std::uint16_t column,
                                     std::uint16_t holder_index,
                                     BytesView onion,
                                     std::vector<crypto::Share> shares) {
  const sim::Time now = network_.simulator().now();

  if (adversary_ != nullptr && adversary_->is_malicious(node)) {
    adversary_->observe_package(onion, now);
    const LayerKeyId my_key = key_id_for(column, holder_index);
    for (const crypto::Share& s : shares)
      adversary_->observe_share(my_key, s, now);
    if (adversary_->mode() == AttackMode::kDropping) {
      ++report_.packages_dropped_malicious;
      return;
    }
  }

  HolderState& state = holders_[{column, holder_index}];
  if (!state.have_node) {
    state.current_node = node;
    state.have_node = true;
  }
  if (state.onion.empty())
    state.onion = Bytes(onion.begin(), onion.end());
  for (const crypto::Share& s : shares) {
    const bool dup = std::any_of(
        state.shares.begin(), state.shares.end(),
        [&](const crypto::Share& e) { return e.index == s.index; });
    if (!dup) state.shares.push_back(s);
  }
  if (!state.processing_scheduled) {
    state.processing_scheduled = true;
    schedule_at(now + config_.assembly_delay,
                [column, holder_index](TimedReleaseSession& self) {
                  self.process_holder(column, holder_index);
                });
  }
  ++report_.packages_delivered;
}

void TimedReleaseSession::process_holder(std::uint16_t column,
                                         std::uint16_t holder_index) {
  HolderState& state = holders_[{column, holder_index}];
  if (state.processed) return;
  state.processed = true;

  const dht::NodeId holder = state.current_node;
  if (!network_.is_alive(holder)) return;  // died while assembling

  // Obtain this holder's layer key.
  crypto::SymmetricKey key{};
  const bool preassigned =
      config_.kind != SchemeKind::kShare || column == 1;
  if (preassigned) {
    // Same derivation as assign_keys_at_start: the slot's ring point.
    const dht::NodeId storage_key = layout_.ring_points[column - 1][holder_index];
    const SharedBytes stored = network_.load_from(holder, storage_key);
    if (stored == nullptr || stored->size() != 32) {
      ++report_.holders_stuck;  // key lost to churn before use
      return;
    }
    key = crypto::SymmetricKey::from_bytes(*stored);
  } else {
    if (state.shares.size() < config_.threshold_m) {
      ++report_.holders_stuck;  // not enough shares survived
      return;
    }
    try {
      const Bytes raw =
          crypto::shamir_combine(state.shares, config_.threshold_m);
      key = crypto::SymmetricKey::from_bytes(raw);
    } catch (const Error&) {
      ++report_.holders_stuck;
      return;
    }
  }

  // Peel my envelope.
  ColumnOnion onion;
  EnvelopeContent content;
  try {
    onion = parse_column_onion(state.onion);
    content = open_envelope(key, onion.envelope_for(holder_index), column);
  } catch (const Error&) {
    ++report_.holders_stuck;
    return;
  }

  const sim::Time now = network_.simulator().now();
  if (content.terminal()) {
    // A covert malicious terminal holder sees the secret one holding period
    // early (the leak the paper's strict Rr metric excludes; see docs/design-notes.md §2).
    if (adversary_ != nullptr && adversary_->is_malicious(holder))
      adversary_->observe_secret(content.terminal_payload, now);
    const Bytes secret = content.terminal_payload;
    // Clamp to now: a package that crossed a lossy/partitioned transport can
    // assemble after tr, and delivery then happens immediately (late by the
    // transport's documented bound) instead of tripping the scheduler's
    // no-past-events precondition. Exact-delivery transports always take the
    // first branch bit-identically.
    schedule_at(std::max(now, release_time()),
                [holder_index, secret](TimedReleaseSession& self) {
                  self.deliver_to_receiver(holder_index, secret);
                });
    return;
  }

  // Unwrap the sealed inner onion with the transport key from my envelope.
  Bytes inner;
  try {
    inner = unwrap_inner(content.inner_key, onion.inner, column);
  } catch (const Error&) {
    ++report_.holders_stuck;
    return;
  }

  // Forward at the scheduled hop time ts + column * th, clamped to now for
  // packages the transport delivered past their column's deadline (retried
  // or partitioned links); lateness then propagates hop-local instead of
  // crashing the schedule.
  const double forward_at = std::max(
      now, start_time_ + static_cast<double>(column) * holding_period());
  schedule_at(forward_at, [column, holder_index, content,
                           inner](TimedReleaseSession& self) {
    self.forward_from(column, holder_index, content, inner);
  });
}

void TimedReleaseSession::forward_from(std::uint16_t column,
                                       std::uint16_t holder_index,
                                       const EnvelopeContent& content,
                                       const Bytes& inner) {
  // The in-RAM package dies with the node that held it.
  const dht::NodeId holder = holders_[{column, holder_index}].current_node;
  if (!network_.is_alive(holder)) return;  // died while holding

  const std::uint16_t next_column = static_cast<std::uint16_t>(column + 1);
  for (std::size_t i = 0; i < content.next_hops.size(); ++i) {
    // Target holder index within the next column: path index for the
    // disjoint scheme, list position otherwise.
    const std::uint16_t target =
        config_.kind == SchemeKind::kDisjoint
            ? holder_index
            : static_cast<std::uint16_t>(i);
    std::vector<crypto::Share> shares;
    for (const TargetedShare& ts : content.shares) {
      if (ts.target_index == target) shares.push_back(ts.share);
    }
    network_.send_message_routed(
        holder, content.next_hops[i],
        encode_protocol_package(session_nonce_, next_column, target, inner, shares));
    ++report_.packages_sent;
  }
}

void TimedReleaseSession::deliver_to_receiver(std::uint16_t holder_index,
                                              const Bytes& secret) {
  const std::uint16_t terminal =
      static_cast<std::uint16_t>(config_.shape.l);
  const dht::NodeId holder = holders_[{terminal, holder_index}].current_node;
  if (!network_.is_alive(holder)) return;  // died before tr
  ++report_.deliveries;
  if (!released_secret_.has_value()) {
    released_secret_ = secret;
    first_delivery_ = network_.simulator().now();
  }
}

void TimedReleaseSession::refresh_adversary_exposure() {
  if (adversary_ == nullptr) return;
  const sim::Time now = network_.simulator().now();
  for (const auto& [storage_key, layer_id] : storage_key_to_layer_) {
    // The key may be replicated; scan the holders recorded in the layout
    // plus any node currently storing it is impractical to enumerate, so we
    // check the canonical holder for this (column, holder) slot.
    const std::size_t column = layer_id.column;
    for (std::size_t h = 0; h < layout_.holders_in_column(column); ++h) {
      const dht::NodeId& holder = layout_.columns[column - 1][h];
      if (!adversary_->is_malicious(holder)) continue;
      const SharedBytes stored = network_.load_from(holder, storage_key);
      if (stored != nullptr && stored->size() == 32) {
        adversary_->observe_key(layer_id,
                                crypto::SymmetricKey::from_bytes(*stored),
                                now);
      }
    }
  }
}

std::optional<Bytes> TimedReleaseSession::receiver_decrypt(
    const std::string& receiver_token) {
  if (!released_secret_.has_value()) return std::nullopt;
  const cloud::DownloadResult blob = cloud_.download(blob_id_, receiver_token);
  if (blob.status != cloud::CloudStatus::kOk) return std::nullopt;
  try {
    const crypto::SymmetricKey key =
        crypto::SymmetricKey::from_bytes(*released_secret_);
    return crypto::aead_open(key, blob.ciphertext,
                             bytes_of("emergence/message"));
  } catch (const Error&) {
    return std::nullopt;
  }
}

}  // namespace emergence::core
