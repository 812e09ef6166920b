// Authenticated encryption for onion layers and cloud blobs.
//
// Construction: encrypt-then-MAC. The 32-byte master key is expanded with
// HKDF into independent encryption and MAC keys; the ciphertext layout is
//   nonce (12) || body || tag (32)
// where tag = HMAC-SHA256(mac_key, nonce || aad_len || aad || body).
// Decryption verifies the tag in constant time before any parsing.
//
// The stream cipher is ChaCha20. The HKDF info string ends in the cipher
// id byte kChaCha20CipherId (0x00), the id the wire and API codecs carry;
// it is part of the key derivation, so changing it changes every
// ciphertext and stored blobs or captured frames stop opening.
#pragma once

#include <array>

#include "common/bytes.hpp"

namespace emergence::crypto {

/// The cipher id the wire and API codecs carry. ChaCha20 is the only
/// cipher; decoders reject any other id.
constexpr std::uint8_t kChaCha20CipherId = 0;

/// A 256-bit symmetric key.
struct SymmetricKey {
  std::array<std::uint8_t, 32> bytes{};

  static SymmetricKey from_bytes(BytesView raw);
  Bytes to_bytes() const { return Bytes(bytes.begin(), bytes.end()); }
};

/// Seals `plaintext` with `key`, binding `aad` (associated data) into the
/// tag. The nonce must be unique per (key, message); callers obtain one from
/// the DRBG.
Bytes aead_seal(const SymmetricKey& key, BytesView nonce12, BytesView plaintext,
                BytesView aad);

/// Opens a sealed buffer. Throws CryptoError if the tag does not verify.
Bytes aead_open(const SymmetricKey& key, BytesView sealed, BytesView aad);

/// Total ciphertext overhead (nonce + tag) in bytes.
constexpr std::size_t kAeadOverhead = 12 + 32;

}  // namespace emergence::crypto
