// The onion package format used by all multipath schemes (paper §III).
//
// Structure. A package travelling from column to column is a ColumnOnion:
//
//   ColumnOnion(col) = { column
//                      , envelopes: holder_index -> AEAD-sealed Envelope
//                      , inner: serialized ColumnOnion(col+1) or empty }
//
// Each holder of a column can open exactly one envelope -- the one sealed
// under its layer key. Onion-path holders of a column share the column key
// K_col (the paper's K1..Kl); the share scheme's extra carrier holders get
// individual keys. An envelope reveals:
//   * the next hops (where to forward the shared inner onion),
//   * for the share scheme, the Shamir shares this holder must forward,
//     one per next-column holder (a share of that target's layer key),
//   * at the terminal column, the secret payload itself.
//
// Sequential peeling is enforced cryptographically: the inner onion is
// sealed under a per-column *transport key* that only this column's
// envelopes carry. Without opening some envelope of column c, an adversary
// cannot even see column c+1's sealed envelopes, let alone the terminal
// payload -- exactly the layer-by-layer property the paper's attack
// analysis assumes (a late-column key alone is useless, Fig. 2(b) K3 case).
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/aead.hpp"
#include "crypto/drbg.hpp"
#include "crypto/shamir.hpp"
#include "dht/node_id.hpp"

namespace emergence::core {

/// A Shamir share addressed to one holder of the next column.
struct TargetedShare {
  std::uint16_t target_index = 0;  ///< holder index within the next column
  crypto::Share share;

  bool operator==(const TargetedShare&) const = default;
};

/// Plaintext contents of one holder's envelope.
struct EnvelopeContent {
  std::vector<dht::NodeId> next_hops;   ///< empty at the terminal column
  std::vector<TargetedShare> shares;    ///< share scheme only
  Bytes terminal_payload;               ///< secret key at the terminal column
  /// Transport key unwrapping this column's sealed inner onion; empty at the
  /// terminal column.
  Bytes inner_key;

  bool terminal() const { return next_hops.empty(); }
  bool operator==(const EnvelopeContent&) const = default;
};

/// One column's package: sealed envelopes plus the sealed inner onion.
struct ColumnOnion {
  std::uint16_t column = 0;  ///< 1-based column number
  /// (holder index, sealed envelope) pairs.
  std::vector<std::pair<std::uint16_t, Bytes>> envelopes;
  /// ColumnOnion of the next column, serialized and sealed under this
  /// column's transport key; empty at the terminal column.
  Bytes inner;

  /// Sealed envelope for a holder index; throws CodecError when missing.
  const Bytes& envelope_for(std::uint16_t holder_index) const;
};

/// Unwraps a column's sealed inner onion with the transport key found in an
/// opened envelope. Throws CryptoError on a wrong key or tampering.
Bytes unwrap_inner(BytesView inner_key, BytesView sealed_inner,
                   std::uint16_t column);

// -- envelope crypto ---------------------------------------------------------

/// Seals an envelope under `key`; the column number is bound as AAD so an
/// envelope cannot be replayed at a different column.
Bytes seal_envelope(const crypto::SymmetricKey& key,
                    const EnvelopeContent& content, std::uint16_t column,
                    crypto::Drbg& drbg);

/// Opens an envelope; throws CryptoError on a wrong key or tampering.
EnvelopeContent open_envelope(const crypto::SymmetricKey& key,
                              BytesView sealed, std::uint16_t column);

// -- onion serialization -----------------------------------------------------

Bytes serialize_column_onion(const ColumnOnion& onion);
ColumnOnion parse_column_onion(BytesView raw);

// -- whole-onion construction ------------------------------------------------

/// Description of one column used when building a whole onion, innermost
/// column first in memory but supplied in forward order (column 1 .. l).
struct ColumnBuildSpec {
  /// Per-holder layer keys, indexed by holder index within the column.
  std::vector<crypto::SymmetricKey> holder_keys;
  /// Per-holder envelope contents.
  std::vector<EnvelopeContent> envelopes;
};

/// Builds the full nested onion for columns 1..l. spec[c] describes column
/// c+1. Returns the serialized outermost package (column 1).
Bytes build_onion(const std::vector<ColumnBuildSpec>& columns,
                  crypto::Drbg& drbg);

}  // namespace emergence::core
