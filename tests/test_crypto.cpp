// Known-answer and property tests for the from-scratch crypto substrate.
//
// Vectors: SHA-256 (FIPS 180-4 / NIST examples), HMAC-SHA256 (RFC 4231),
// HKDF (RFC 5869), ChaCha20 (RFC 8439 §2.3.2/§2.4.2).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/hex.hpp"
#include "common/serial.hpp"
#include "crypto/aead.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/drbg.hpp"
#include "crypto/gf256.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace emergence::crypto {
namespace {

using emergence::bytes_of;
using emergence::from_hex;
using emergence::to_hex;

// -- SHA-256 ------------------------------------------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(sha256(Bytes{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(sha256(bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      to_hex(sha256(bytes_of(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  const auto digest = h.finalize();
  EXPECT_EQ(to_hex(Bytes(digest.begin(), digest.end())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingSplitsAgreeWithOneShot) {
  const Bytes msg = bytes_of("the quick brown fox jumps over the lazy dog!!");
  const Bytes expected = sha256(msg);
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.update(BytesView(msg.data(), split));
    h.update(BytesView(msg.data() + split, msg.size() - split));
    const auto digest = h.finalize();
    EXPECT_EQ(Bytes(digest.begin(), digest.end()), expected);
  }
}

TEST(Sha256, ExactBlockBoundaries) {
  // 55/56/63/64/65 bytes straddle the padding edge cases.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u}) {
    const Bytes msg(len, 0x61);
    Sha256 a;
    a.update(msg);
    const auto one = a.finalize();
    Sha256 b;
    for (std::size_t i = 0; i < len; ++i)
      b.update(BytesView(msg.data() + i, 1));
    const auto two = b.finalize();
    EXPECT_EQ(one, two) << "len=" << len;
  }
}

TEST(Sha256, FinalizeTwiceThrows) {
  Sha256 h;
  h.update(bytes_of("x"));
  (void)h.finalize();
  EXPECT_THROW((void)h.finalize(), PreconditionError);
}

// -- HMAC-SHA256 (RFC 4231) ----------------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, bytes_of("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(
      to_hex(hmac_sha256(bytes_of("Jefe"),
                         bytes_of("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(
      to_hex(hmac_sha256(
          key, bytes_of("Test Using Larger Than Block-Size Key - Hash Key "
                        "First"))),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, DifferentKeysDiffer) {
  EXPECT_NE(hmac_sha256(bytes_of("k1"), bytes_of("m")),
            hmac_sha256(bytes_of("k2"), bytes_of("m")));
}

// -- HKDF (RFC 5869) -----------------------------------------------------------

TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = from_hex("000102030405060708090a0b0c");
  const Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  const Bytes prk = hkdf_extract(salt, ikm);
  EXPECT_EQ(to_hex(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  const Bytes okm = hkdf_expand(prk, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, Rfc5869Case3NoSaltNoInfo) {
  const Bytes ikm(22, 0x0b);
  const Bytes okm = hkdf(/*salt=*/{}, ikm, /*info=*/{}, 42);
  EXPECT_EQ(to_hex(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Hkdf, LengthLimitEnforced) {
  EXPECT_THROW(hkdf_expand(Bytes(32, 1), {}, 255 * 32 + 1),
               PreconditionError);
}

TEST(Hkdf, DistinctInfoGivesDistinctKeys) {
  const Bytes prk = hkdf_extract({}, bytes_of("seed"));
  EXPECT_NE(hkdf_expand(prk, bytes_of("enc"), 32),
            hkdf_expand(prk, bytes_of("mac"), 32));
}

// -- ChaCha20 (RFC 8439) ---------------------------------------------------------

std::array<std::uint8_t, 32> rfc_key() {
  std::array<std::uint8_t, 32> key;
  for (int i = 0; i < 32; ++i) key[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(i);
  return key;
}

TEST(ChaCha20, Rfc8439BlockFunction) {
  // RFC 8439 §2.3.2 test vector.
  std::array<std::uint8_t, 12> nonce{};
  const Bytes nonce_bytes = from_hex("000000090000004a00000000");
  std::copy(nonce_bytes.begin(), nonce_bytes.end(), nonce.begin());
  const auto block = chacha20_block(rfc_key(), 1, nonce);
  EXPECT_EQ(
      to_hex(Bytes(block.begin(), block.end())),
      "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
      "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, Rfc8439Encryption) {
  // RFC 8439 §2.4.2: the "sunscreen" plaintext.
  std::array<std::uint8_t, 12> nonce{};
  const Bytes nonce_bytes = from_hex("000000000000004a00000000");
  std::copy(nonce_bytes.begin(), nonce_bytes.end(), nonce.begin());
  const Bytes plaintext = bytes_of(
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.");
  const Bytes ciphertext =
      chacha20_apply(rfc_key(), nonce, /*initial_counter=*/1, plaintext);
  EXPECT_EQ(
      to_hex(ciphertext),
      "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
      "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
      "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
      "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20, ApplyIsAnInvolution) {
  std::array<std::uint8_t, 12> nonce{};
  nonce[0] = 7;
  const Bytes msg = bytes_of("round-trip me please, across block boundaries "
                             "so several keystream blocks are used........");
  const Bytes ct = chacha20_apply(rfc_key(), nonce, 0, msg);
  EXPECT_NE(ct, msg);
  EXPECT_EQ(chacha20_apply(rfc_key(), nonce, 0, ct), msg);
}

TEST(ChaCha20, CounterOffsetsProduceDifferentStream) {
  std::array<std::uint8_t, 12> nonce{};
  const Bytes zeros(64, 0);
  EXPECT_NE(chacha20_apply(rfc_key(), nonce, 0, zeros),
            chacha20_apply(rfc_key(), nonce, 1, zeros));
}

// -- AES (FIPS 197 / SP 800-38A) -------------------------------------------------

// -- AEAD ------------------------------------------------------------------------

TEST(Aead, SealOpenRoundTrip) {
  const SymmetricKey key = SymmetricKey::from_bytes(Bytes(32, 0x11));
  const Bytes nonce(12, 0x22);
  const Bytes msg = bytes_of("attack at dawn");
  const Bytes aad = bytes_of("context");
  const Bytes sealed = aead_seal(key, nonce, msg, aad);
  EXPECT_EQ(sealed.size(), msg.size() + kAeadOverhead);
  EXPECT_EQ(aead_open(key, sealed, aad), msg);
}

TEST(Aead, WrongKeyFails) {
  const SymmetricKey key = SymmetricKey::from_bytes(Bytes(32, 0x11));
  const SymmetricKey other = SymmetricKey::from_bytes(Bytes(32, 0x12));
  const Bytes sealed = aead_seal(key, Bytes(12, 0), bytes_of("m"), {});
  EXPECT_THROW(aead_open(other, sealed, {}), CryptoError);
}

TEST(Aead, WrongAadFails) {
  const SymmetricKey key = SymmetricKey::from_bytes(Bytes(32, 0x11));
  const Bytes sealed =
      aead_seal(key, Bytes(12, 0), bytes_of("m"), bytes_of("a"));
  EXPECT_THROW(aead_open(key, sealed, bytes_of("b")), CryptoError);
}

TEST(Aead, BitFlipAnywhereFails) {
  const SymmetricKey key = SymmetricKey::from_bytes(Bytes(32, 0x33));
  Bytes sealed = aead_seal(key, Bytes(12, 1), bytes_of("payload bytes"), {});
  for (std::size_t i = 0; i < sealed.size(); i += 5) {
    Bytes tampered = sealed;
    tampered[i] ^= 0x01;
    EXPECT_THROW(aead_open(key, tampered, {}), CryptoError) << "flip at " << i;
  }
}

TEST(Aead, TruncationFails) {
  const SymmetricKey key = SymmetricKey::from_bytes(Bytes(32, 0x33));
  const Bytes sealed = aead_seal(key, Bytes(12, 1), bytes_of("payload"), {});
  const BytesView short_view(sealed.data(), sealed.size() - 1);
  EXPECT_THROW(aead_open(key, short_view, {}), CryptoError);
  EXPECT_THROW(aead_open(key, BytesView(sealed.data(), 10), {}), CryptoError);
}

TEST(Aead, EmptyPlaintextSupported) {
  const SymmetricKey key = SymmetricKey::from_bytes(Bytes(32, 0x44));
  const Bytes sealed = aead_seal(key, Bytes(12, 2), {}, {});
  EXPECT_TRUE(aead_open(key, sealed, {}).empty());
}

TEST(Aead, ConstructionKeepsTheCipherIdInTheKdfInfo) {
  // Rebuilds a ciphertext from the primitives: HKDF info ends in the
  // cipher id byte 0x00, ChaCha20 from block counter 1, HMAC tag over
  // nonce || u64 aad length || aad || body. Pins the bytes ciphertexts
  // have always had, so stored blobs and captured frames keep opening.
  const SymmetricKey key = SymmetricKey::from_bytes(Bytes(32, 0x66));
  const Bytes nonce(12, 0x77);
  const Bytes msg = bytes_of("pinned layout");
  const Bytes aad = bytes_of("ad");

  Bytes info = bytes_of("emergence/aead/v1");
  info.push_back(0x00);
  const Bytes okm = hkdf({}, key.to_bytes(), info, 64);
  std::array<std::uint8_t, 32> enc{};
  std::copy(okm.begin(), okm.begin() + 32, enc.begin());
  std::array<std::uint8_t, 12> n{};
  std::copy(nonce.begin(), nonce.end(), n.begin());
  Bytes body = msg;
  chacha20_xor(enc, n, 1, body);
  BinaryWriter mac_input;
  mac_input.raw(nonce);
  mac_input.u64(aad.size());  // little-endian
  mac_input.raw(aad);
  mac_input.raw(body);
  const Bytes tag =
      hmac_sha256(BytesView(okm.data() + 32, 32), mac_input.bytes());

  Bytes expected;
  append(expected, nonce);
  append(expected, body);
  append(expected, tag);
  EXPECT_EQ(aead_seal(key, nonce, msg, aad), expected);
}

TEST(SymmetricKey, FromBytesValidatesLength) {
  EXPECT_THROW(SymmetricKey::from_bytes(Bytes(31, 0)), PreconditionError);
  EXPECT_NO_THROW(SymmetricKey::from_bytes(Bytes(32, 0)));
}

// -- DRBG -------------------------------------------------------------------------

TEST(Drbg, DeterministicForSeed) {
  Drbg a(std::uint64_t{1234}), b(std::uint64_t{1234});
  EXPECT_EQ(a.bytes(100), b.bytes(100));
}

TEST(Drbg, DifferentSeedsDiffer) {
  Drbg a(std::uint64_t{1}), b(std::uint64_t{2});
  EXPECT_NE(a.bytes(32), b.bytes(32));
}

TEST(Drbg, ForkedStreamsDiverge) {
  Drbg parent(std::uint64_t{7});
  Drbg child = parent.fork();
  EXPECT_NE(parent.bytes(32), child.bytes(32));
}

TEST(Drbg, ForkIsDeterministic) {
  Drbg a(std::uint64_t{7}), b(std::uint64_t{7});
  EXPECT_EQ(a.fork().bytes(16), b.fork().bytes(16));
}

TEST(Drbg, BelowStaysInRangeAndCoversValues) {
  Drbg d(std::uint64_t{99});
  std::array<int, 10> seen{};
  for (int i = 0; i < 1000; ++i) {
    const auto v = d.below(10);
    ASSERT_LT(v, 10u);
    ++seen[static_cast<std::size_t>(v)];
  }
  for (int count : seen) EXPECT_GT(count, 0);
}

TEST(Drbg, ByteSeedMatchesHashSemantics) {
  Drbg a(bytes_of("seed material"));
  Drbg b(bytes_of("seed material"));
  Drbg c(bytes_of("other material"));
  EXPECT_EQ(a.bytes(24), b.bytes(24));
  EXPECT_NE(Drbg(bytes_of("seed material")).bytes(24), c.bytes(24));
}

TEST(Drbg, OutputLooksBalanced) {
  // Not a randomness test -- just catches catastrophic bias (e.g. all
  // zeros) in the keystream plumbing.
  Drbg d(std::uint64_t{5});
  const Bytes sample = d.bytes(4096);
  std::size_t ones = 0;
  for (std::uint8_t byte : sample)
    ones += static_cast<std::size_t>(__builtin_popcount(byte));
  const double fraction = static_cast<double>(ones) / (4096.0 * 8.0);
  EXPECT_NEAR(fraction, 0.5, 0.02);
}

// -- GF(256) ----------------------------------------------------------------------

TEST(Gf256, MulAgreesWithKnownValues) {
  // 0x57 * 0x83 = 0xc1 (FIPS 197 §4.2 example).
  EXPECT_EQ(gf256::mul(0x57, 0x83), 0xc1);
  EXPECT_EQ(gf256::mul(0x57, 0x13), 0xfe);
}

TEST(Gf256, MulByZeroAndOne) {
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(gf256::mul(static_cast<std::uint8_t>(a), 0), 0);
    EXPECT_EQ(gf256::mul(static_cast<std::uint8_t>(a), 1), a);
  }
}

TEST(Gf256, MulCommutative) {
  for (int a = 1; a < 256; a += 7) {
    for (int b = 1; b < 256; b += 11) {
      EXPECT_EQ(gf256::mul(static_cast<std::uint8_t>(a),
                           static_cast<std::uint8_t>(b)),
                gf256::mul(static_cast<std::uint8_t>(b),
                           static_cast<std::uint8_t>(a)));
    }
  }
}

TEST(Gf256, InverseIsTwoSided) {
  for (int a = 1; a < 256; ++a) {
    const auto inv = gf256::inv(static_cast<std::uint8_t>(a));
    EXPECT_EQ(gf256::mul(static_cast<std::uint8_t>(a), inv), 1) << a;
  }
}

TEST(Gf256, InverseOfZeroThrows) {
  EXPECT_THROW(gf256::inv(0), emergence::PreconditionError);
  EXPECT_THROW(gf256::div(1, 0), emergence::PreconditionError);
}

TEST(Gf256, DivisionInvertsMultiplication) {
  for (int a = 0; a < 256; a += 5) {
    for (int b = 1; b < 256; b += 9) {
      const auto product = gf256::mul(static_cast<std::uint8_t>(a),
                                      static_cast<std::uint8_t>(b));
      EXPECT_EQ(gf256::div(product, static_cast<std::uint8_t>(b)), a);
    }
  }
}

TEST(Gf256, DistributiveLaw) {
  for (int a = 1; a < 256; a += 17) {
    for (int b = 0; b < 256; b += 13) {
      for (int c = 0; c < 256; c += 19) {
        const auto lhs = gf256::mul(
            static_cast<std::uint8_t>(a),
            gf256::add(static_cast<std::uint8_t>(b),
                       static_cast<std::uint8_t>(c)));
        const auto rhs =
            gf256::add(gf256::mul(static_cast<std::uint8_t>(a),
                                  static_cast<std::uint8_t>(b)),
                       gf256::mul(static_cast<std::uint8_t>(a),
                                  static_cast<std::uint8_t>(c)));
        EXPECT_EQ(lhs, rhs);
      }
    }
  }
}

TEST(Gf256, PowMatchesRepeatedMul) {
  for (int a : {2, 3, 0x53}) {
    std::uint8_t acc = 1;
    for (unsigned e = 0; e < 10; ++e) {
      EXPECT_EQ(gf256::pow(static_cast<std::uint8_t>(a), e), acc);
      acc = gf256::mul(acc, static_cast<std::uint8_t>(a));
    }
  }
}

}  // namespace
}  // namespace emergence::crypto
