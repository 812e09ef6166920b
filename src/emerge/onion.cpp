#include "emerge/onion.hpp"

#include "common/error.hpp"
#include "common/serial.hpp"

namespace emergence::core {
namespace {

Bytes serialize_envelope_content(const EnvelopeContent& content) {
  BinaryWriter w;
  w.u16(static_cast<std::uint16_t>(content.next_hops.size()));
  for (const dht::NodeId& id : content.next_hops)
    w.raw(BytesView(id.bytes().data(), id.bytes().size()));
  w.u16(static_cast<std::uint16_t>(content.shares.size()));
  for (const TargetedShare& ts : content.shares) {
    w.u16(ts.target_index);
    w.blob(crypto::share_to_bytes(ts.share));
  }
  w.blob(content.terminal_payload);
  w.blob(content.inner_key);
  return w.take();
}

EnvelopeContent parse_envelope_content(BytesView raw) {
  BinaryReader r(raw);
  EnvelopeContent content;
  const std::uint16_t hop_count = r.u16();
  content.next_hops.reserve(hop_count);
  for (std::uint16_t i = 0; i < hop_count; ++i)
    content.next_hops.push_back(dht::NodeId::from_bytes(r.raw(dht::kIdBytes)));
  const std::uint16_t share_count = r.u16();
  content.shares.reserve(share_count);
  for (std::uint16_t i = 0; i < share_count; ++i) {
    TargetedShare ts;
    ts.target_index = r.u16();
    ts.share = crypto::share_from_bytes(r.blob());
    content.shares.push_back(std::move(ts));
  }
  content.terminal_payload = r.blob();
  content.inner_key = r.blob();
  r.expect_done();
  return content;
}

Bytes column_aad(std::uint16_t column) {
  BinaryWriter w;
  w.str("emergence/onion/envelope");
  w.u16(column);
  return w.take();
}

Bytes inner_aad(std::uint16_t column) {
  BinaryWriter w;
  w.str("emergence/onion/inner");
  w.u16(column);
  return w.take();
}

}  // namespace

Bytes unwrap_inner(BytesView inner_key, BytesView sealed_inner,
                   std::uint16_t column) {
  const crypto::SymmetricKey key = crypto::SymmetricKey::from_bytes(inner_key);
  return crypto::aead_open(key, sealed_inner, inner_aad(column));
}

const Bytes& ColumnOnion::envelope_for(std::uint16_t holder_index) const {
  for (const auto& [index, sealed] : envelopes) {
    if (index == holder_index) return sealed;
  }
  throw CodecError("ColumnOnion: no envelope for holder index " +
                   std::to_string(holder_index));
}

Bytes seal_envelope(const crypto::SymmetricKey& key,
                    const EnvelopeContent& content, std::uint16_t column,
                    crypto::Drbg& drbg) {
  const Bytes plaintext = serialize_envelope_content(content);
  const Bytes nonce = drbg.bytes(12);
  return crypto::aead_seal(key, nonce, plaintext, column_aad(column));
}

EnvelopeContent open_envelope(const crypto::SymmetricKey& key,
                              BytesView sealed, std::uint16_t column) {
  const Bytes plaintext =
      crypto::aead_open(key, sealed, column_aad(column));
  return parse_envelope_content(plaintext);
}

Bytes serialize_column_onion(const ColumnOnion& onion) {
  BinaryWriter w;
  w.str("EMRG1");  // format magic/version
  w.u16(onion.column);
  w.u16(static_cast<std::uint16_t>(onion.envelopes.size()));
  for (const auto& [index, sealed] : onion.envelopes) {
    w.u16(index);
    w.blob(sealed);
  }
  w.blob(onion.inner);
  return w.take();
}

ColumnOnion parse_column_onion(BytesView raw) {
  BinaryReader r(raw);
  if (r.str() != "EMRG1")
    throw CodecError("parse_column_onion: bad magic");
  ColumnOnion onion;
  onion.column = r.u16();
  const std::uint16_t count = r.u16();
  onion.envelopes.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    const std::uint16_t index = r.u16();
    onion.envelopes.emplace_back(index, r.blob());
  }
  onion.inner = r.blob();
  r.expect_done();
  return onion;
}

Bytes build_onion(const std::vector<ColumnBuildSpec>& columns,
                  crypto::Drbg& drbg) {
  require(!columns.empty(), "build_onion: at least one column required");
  Bytes inner;  // innermost first: empty beyond the terminal column
  for (std::size_t c = columns.size(); c-- > 0;) {
    const ColumnBuildSpec& spec = columns[c];
    require(spec.holder_keys.size() == spec.envelopes.size(),
            "build_onion: keys/envelopes size mismatch");
    ColumnOnion onion;
    onion.column = static_cast<std::uint16_t>(c + 1);

    // Seal the inner onion under a fresh transport key; every envelope of
    // this column carries the key so any holder can unwrap before
    // forwarding, but nobody below this column can.
    Bytes transport_key;
    if (!inner.empty()) {
      transport_key = drbg.bytes(32);
      const crypto::SymmetricKey tk =
          crypto::SymmetricKey::from_bytes(transport_key);
      onion.inner = crypto::aead_seal(tk, drbg.bytes(12), inner,
                                      inner_aad(onion.column));
    }

    for (std::size_t h = 0; h < spec.envelopes.size(); ++h) {
      EnvelopeContent content = spec.envelopes[h];
      require(content.inner_key.empty(),
              "build_onion: inner_key is assigned by the builder");
      content.inner_key = transport_key;
      onion.envelopes.emplace_back(
          static_cast<std::uint16_t>(h),
          seal_envelope(spec.holder_keys[h], content, onion.column, drbg));
    }
    inner = serialize_column_onion(onion);
  }
  return inner;
}

}  // namespace emergence::core
