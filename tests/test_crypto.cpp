// Known-answer and property tests for the from-scratch crypto substrate.
//
// Vectors: SHA-256 (FIPS 180-4 / NIST examples), HMAC-SHA256 (RFC 4231),
// HKDF (RFC 5869), ChaCha20 (RFC 8439 §2.3.2/§2.4.2).
#include <gtest/gtest.h>

#include <cstring>
#include <latch>
#include <thread>

#include "common/error.hpp"
#include "common/hex.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"
#include "crypto/aead.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/drbg.hpp"
#include "crypto/gf256.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_detail.hpp"

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

// -- SHA-256 compression paths -----------------------------------------------

constexpr std::uint32_t kSha256Iv[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                        0xa54ff53a, 0x510e527f, 0x9b05688c,
                                        0x1f83d9ab, 0x5be0cd19};

/// SHA-256 padded by hand and compressed with the portable function only.
Bytes portable_sha256(BytesView msg) {
  std::uint32_t state[8];
  std::memcpy(state, kSha256Iv, sizeof(state));
  Bytes padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0x00);
  const std::uint64_t bits = std::uint64_t{msg.size()} * 8;
  for (int i = 7; i >= 0; --i)
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  detail::sha256_blocks_portable(state, padded.data(), padded.size() / 64);
  Bytes digest;
  for (const std::uint32_t word : state)
    for (int i = 3; i >= 0; --i)
      digest.push_back(static_cast<std::uint8_t>(word >> (8 * i)));
  return digest;
}

TEST(Sha256Paths, ShaNiMatchesPortableOnRandomStatesAndBlocks) {
  if (!detail::sha256_shani_supported())
    GTEST_SKIP() << "CPU lacks SHA-NI (or SSSE3/SSE4.1); only the portable "
                    "compression function can run here";
  Rng rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    std::uint32_t portable[8], shani[8];
    for (std::uint32_t& w : portable) w = static_cast<std::uint32_t>(rng.bits());
    std::memcpy(shani, portable, sizeof(shani));
    const std::size_t blocks = 1 + rng.index(4);
    const Bytes data = rng.bytes(64 * blocks);
    detail::sha256_blocks_portable(portable, data.data(), blocks);
    detail::sha256_blocks_shani(shani, data.data(), blocks);
    ASSERT_EQ(0, std::memcmp(portable, shani, sizeof(shani)))
        << "trial " << trial << ", " << blocks << " blocks";
  }
}

TEST(Sha256Paths, OneShotMatchesPortableAtEveryLength) {
  Rng rng(8);
  for (std::size_t len = 0; len <= 300; ++len) {
    const Bytes msg = rng.bytes(len);
    ASSERT_EQ(sha256(msg), portable_sha256(msg)) << "len=" << len;
  }
  const Bytes mib = rng.bytes(std::size_t{1} << 20);
  EXPECT_EQ(sha256(mib), portable_sha256(mib));
}

TEST(Sha256Paths, BackendNamesTheDispatchedPath) {
  EXPECT_STREQ(sha256_backend(),
               detail::sha256_shani_supported() ? "sha-ni" : "portable");
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

TEST(Hmac, KeyReusedAcrossMessagesMatchesOneShot) {
  // The RFC 4231 keys: 20/4/20/25/20-byte keys and the 131-byte key of
  // cases 6 and 7, which is hashed before the pads are absorbed.
  Bytes counting(25);
  for (std::size_t i = 0; i < counting.size(); ++i)
    counting[i] = static_cast<std::uint8_t>(i + 1);
  const Bytes keys[] = {Bytes(20, 0x0b), bytes_of("Jefe"), Bytes(20, 0xaa),
                        counting, Bytes(20, 0x0c), Bytes(131, 0xaa)};
  for (const Bytes& key : keys) {
    const HmacKey reused(key);
    Bytes msg;
    for (int i = 0; i < 200; ++i) {
      const HmacKey::Tag tag = reused.mac(msg);
      EXPECT_EQ(Bytes(tag.begin(), tag.end()), hmac_sha256(key, msg))
          << "key of " << key.size() << " bytes, message of " << msg.size();
      msg.push_back(static_cast<std::uint8_t>(i * 13));
    }
    // The streaming form agrees when the message arrives in pieces.
    Sha256 h = reused.begin();
    h.update(BytesView(msg.data(), 70));
    h.update(BytesView(msg.data() + 70, msg.size() - 70));
    EXPECT_EQ(reused.finish(h), reused.mac(msg));
  }
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

struct AeadGolden {
  std::size_t plaintext_len;
  const char* sealed;   ///< sealed with empty aad
  const char* aad_tag;  ///< the tag when sealed with aad "layer/3"
};

// Ciphertexts of the construction as first shipped; any change to the key
// derivation, the stream or the tag input changes these bytes.
constexpr AeadGolden kAeadGoldens[] = {
    {0,
     "a0a1a2a3a4a5a6a7a8a9aaab3fa4edf5fc6d4fb3fda701af6c5446da20268132"
     "b7e2e4625fc73d70504134a8",
     "468320f16573d8a6cb8b3e111bf4b97250d6f0f9b9fca36b6656d8d48e1775d3"},
    {1,
     "a0a1a2a3a4a5a6a7a8a9aaabd843c3df1cf5e0c59af0ad34f748a12f1da27306"
     "de5aa9bd7188a6b60f12d2558d",
     "f0c7ef4109c185598ea7e21b07c795e6ed2767a124dce65c6300e1a40da02ac2"},
    {63,
     "a0a1a2a3a4a5a6a7a8a9aaabd8bea3bde4b494b59c90062eca3996ac0a4865c3"
     "3ee5f521baaf4ecafced47f56ca36ab8b322d63b8843b32310596e5f5be60862"
     "da0ec4007c78015a78513422e2b65d1cc6bc3ec682e8810334438f8982cd844b"
     "aad544cf254c750d246bff",
     "0155b4f5a1b53904c115d4af6009c08f57e191854ff8377b0fccdf261d0c480b"},
    {64,
     "a0a1a2a3a4a5a6a7a8a9aaabd8bea3bde4b494b59c90062eca3996ac0a4865c3"
     "3ee5f521baaf4ecafced47f56ca36ab8b322d63b8843b32310596e5f5be60862"
     "da0ec4007c78015a785134b0e7d3fee640940c763b4ec5bd02d4a47020960f96"
     "6632273b6f1622ba46bd772f",
     "e19348381f67603e05d4439aa47f71f2b4fb205c49094a8f8402eba1633c67c5"},
    {256,
     "a0a1a2a3a4a5a6a7a8a9aaabd8bea3bde4b494b59c90062eca3996ac0a4865c3"
     "3ee5f521baaf4ecafced47f56ca36ab8b322d63b8843b32310596e5f5be60862"
     "da0ec4007c78015a785134b04ce2f6e59d616afd3cc88502ea2f9336cd0f47db"
     "554d5a22e10d7aacb6ab9d649a945fefa7ee1230da34bad86aa738aceca61cb7"
     "25ae46e85aeb82922dc806b57479950eaec845285350d749ee693663dcb0e814"
     "cd8d6a157cbae7062eb9146f9ce82adfe079ff650f7bd5f9496e18a703037909"
     "49c74ef1bedc500d2af795fbb3e60bd46d99961999ab350cd2138d5737de5efd"
     "f71e0d2f2ce120bf8f757e1cb632079b42152bd8c311ac5c6d4a13a291de861f"
     "8e56d75cb60d83f5487097be1f7e4cad962654b9f73ba886be0ea97f655a7d21"
     "a393a5c697c18ed792ae47b5",
     "6f32e79b1bae810296f0ed6eae45e0e486fc293efc9ff53bd3c93c83763ea01b"},
    {1000,
     "a0a1a2a3a4a5a6a7a8a9aaabd8bea3bde4b494b59c90062eca3996ac0a4865c3"
     "3ee5f521baaf4ecafced47f56ca36ab8b322d63b8843b32310596e5f5be60862"
     "da0ec4007c78015a785134b04ce2f6e59d616afd3cc88502ea2f9336cd0f47db"
     "554d5a22e10d7aacb6ab9d649a945fefa7ee1230da34bad86aa738aceca61cb7"
     "25ae46e85aeb82922dc806b57479950eaec845285350d749ee693663dcb0e814"
     "cd8d6a157cbae7062eb9146f9ce82adfe079ff650f7bd5f9496e18a703037909"
     "49c74ef1bedc500d2af795fbb3e60bd46d99961999ab350cd2138d5737de5efd"
     "f71e0d2f2ce120bf8f757e1cb632079b42152bd8c311ac5c6d4a13a291de861f"
     "8e56d75cb60d83f5487097be60b89ac06e74665ce9e44a9a765692bd40600043"
     "65b707e23ea745233e165cbf997ecfabc1fc3c829977d6883fc0aa2f4944dfaf"
     "fd8ee7a633c2f85085ce76f582e85705ffb16cac81ff52f19f13ab5a4a3b2390"
     "1d98a7bc52c27f959024a2ab1615cdb8c680f1b04e16d96b37ed592b7ec361bf"
     "07152a185629d1a918a9d6e0fb56904c82ae601fc1e6ab61e582ccbddc86876d"
     "5c4a5d76070b3d53e0daea44d2e4373d24a2743109b06a7f77e755a3d0cc64fd"
     "69ae6cad84cc995662a3c80e920ee63596b0aa53b316635225593b80276790a2"
     "32eebfb0adcf1c88b0c29b0c8a8f6950375371197df26335486b9a1d979c7494"
     "73244e75fc46369c99f36598a05e00fbfba13d2c3a70c91d03a5209257fa1921"
     "a7ad16fdfc12272e0c77928d177d1325f052ae0990dbaea5a4b32a8edc045037"
     "97b997fc99d680ef047e4c4ee8a2663acf3a9fd09c163d954df540269fc0b423"
     "ec5fcd26489b09940f8c09d9db0a3bc79b773ef0d2551ea1a930322190d9543f"
     "04f9ee0fbed1ccad57f0ed48a3deee6b6d512c51b71eda49992866cb356fabaa"
     "a4a677fded61620b21505c78c27446665fb8ffb4a60cbc87e3a23df21021236a"
     "101ffe6822a6e4e3cb6f7f60db17c72173634e4a16deccc2f5a7d7961e8d51a9"
     "7bc5288891ed9855033efad664c35a3f3cb5ac5fc5c32aad44b817b22bcd35d4"
     "e7394f5c006e71159e1f9ab58a8315f6f5b0b7dd6f37f5adbfb02c149434cd5f"
     "23b496316b860910160fd80a6f0718e78539242c95c23d65e1f02f304008a217"
     "4201e2f39e439e8256d3486b6e69533e9467a700f0254013f98aa1622e3e5adc"
     "4eac43ee8e94506138736751242433f966e2efa30069b51d6532765bf8d530f9"
     "44716a4c7ef9f23b39c5822ffa147122a966d6374c00946d9e18a073ef08c957"
     "b324ed92592676160730e3eda317159e45657c34e42e9f1decb0fffa9537d7bb"
     "7b276d25f3a21fe22c07be9de085eb254c0dde0c76a5554bed9aed5168cafe8a"
     "8d84ce936f3919526f86a21ab4ca7377eac7230979b3b66b7da5b0055456161b"
     "b8c5cb45ec2dbc893e3a33bde6b3989704514fc8",
     "3227f350510e75f50a20fc713f3deba596719e77789d4bba92ba83156fe0fd47"},
};

SymmetricKey golden_key() {
  Bytes raw(32);
  for (std::size_t i = 0; i < raw.size(); ++i)
    raw[i] = static_cast<std::uint8_t>(i * 7 + 1);
  return SymmetricKey::from_bytes(raw);
}

Bytes golden_nonce() {
  Bytes nonce(12);
  for (std::size_t i = 0; i < nonce.size(); ++i)
    nonce[i] = static_cast<std::uint8_t>(0xa0 + i);
  return nonce;
}

Bytes golden_plaintext(std::size_t len) {
  Bytes pt(len);
  for (std::size_t i = 0; i < len; ++i)
    pt[i] = static_cast<std::uint8_t>(i * 31 + 5);
  return pt;
}

TEST(Aead, CiphertextsMatchPinnedGoldens) {
  const SymmetricKey key = golden_key();
  const Bytes nonce = golden_nonce();
  const Bytes aad = bytes_of("layer/3");
  for (const AeadGolden& g : kAeadGoldens) {
    const Bytes pt = golden_plaintext(g.plaintext_len);
    const Bytes sealed = aead_seal(key, nonce, pt, {});
    EXPECT_EQ(to_hex(sealed), g.sealed) << "len=" << g.plaintext_len;
    EXPECT_EQ(aead_open(key, from_hex(g.sealed), {}), pt);

    // The aad only enters the tag: same nonce and body, pinned tag.
    const Bytes with_aad = aead_seal(key, nonce, pt, aad);
    const std::size_t tag_at = with_aad.size() - 32;
    EXPECT_EQ(Bytes(with_aad.begin(), with_aad.begin() + tag_at),
              Bytes(sealed.begin(), sealed.begin() + tag_at));
    EXPECT_EQ(to_hex(BytesView(with_aad).subspan(tag_at)), g.aad_tag)
        << "len=" << g.plaintext_len;
    EXPECT_EQ(aead_open(key, with_aad, aad), pt);
  }
}

TEST(Aead, ConcurrentFirstUseMatchesSerial) {
  // Eight threads seal at once; in a fresh process this is the first use of
  // the compression dispatch and the static zero-salt key.
  constexpr int kThreads = 8;
  const SymmetricKey key = golden_key();
  const Bytes nonce = golden_nonce();
  std::vector<Bytes> concurrent(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      concurrent[t] = aead_seal(key, nonce, golden_plaintext(64 * t + 1),
                                bytes_of("thread"));
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(concurrent[t], aead_seal(key, nonce, golden_plaintext(64 * t + 1),
                                       bytes_of("thread")))
        << "thread " << t;
  }
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
