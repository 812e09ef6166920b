// The api facade (src/api/api.hpp): SubmitRequest/EmergeEvent codecs, the
// SessionHandle builder vs the legacy positional constructor, and the
// LocalClient end-to-end over a simulated world.
#include <gtest/gtest.h>

#include <memory>

#include "api/api.hpp"
#include "cloud/cloud_store.hpp"
#include "common/error.hpp"
#include "common/serial.hpp"
#include "dht/chord_network.hpp"
#include "sim/simulator.hpp"

namespace emergence::api {
namespace {

struct World {
  sim::Simulator sim;
  Rng rng{2024};
  dht::NetworkConfig net_config;
  std::unique_ptr<dht::ChordNetwork> net;
  cloud::CloudStore cloud;

  explicit World(std::size_t nodes = 64) {
    net_config.run_maintenance = false;
    net = std::make_unique<dht::ChordNetwork>(sim, rng, net_config);
    net->bootstrap(nodes);
  }
};

SubmitRequest sample_request() {
  SubmitRequest request;
  request.message = bytes_of("the emerged secret");
  request.receiver_token = "bob-token";
  request.scheme = core::SchemeKind::kShare;
  request.shape = core::PathShape{2, 3};
  request.carriers_n = 3;
  request.threshold_m = 2;
  request.emerging_time = 3600.0;
  request.assembly_delay = 0.5;
  request.seed = 0x1234;
  return request;
}

TEST(ApiCodec, SubmitRequestRoundTripsByteIdentical) {
  const SubmitRequest request = sample_request();
  const Bytes encoded = encode_submit_request(request);
  const SubmitRequest back = decode_submit_request(encoded);
  EXPECT_EQ(back.message, request.message);
  EXPECT_EQ(back.receiver_token, request.receiver_token);
  EXPECT_EQ(back.scheme, request.scheme);
  EXPECT_EQ(back.shape.k, request.shape.k);
  EXPECT_EQ(back.shape.l, request.shape.l);
  EXPECT_EQ(back.carriers_n, request.carriers_n);
  EXPECT_EQ(back.threshold_m, request.threshold_m);
  EXPECT_EQ(back.emerging_time, request.emerging_time);
  EXPECT_EQ(back.assembly_delay, request.assembly_delay);
  EXPECT_EQ(back.seed, request.seed);
  EXPECT_EQ(encode_submit_request(back), encoded);
}

TEST(ApiCodec, SubmitRequestRejectsUnknownCipherId) {
  // The cipher id byte sits just before the trailing u64 seed. ChaCha20
  // (id 0) is the only cipher; any other id is refused, not misread.
  Bytes encoded = encode_submit_request(sample_request());
  const std::size_t cipher_at = encoded.size() - 8 - 1;
  ASSERT_EQ(encoded[cipher_at], crypto::kChaCha20CipherId);
  for (const std::uint8_t id : {std::uint8_t{1}, std::uint8_t{0xFF}}) {
    encoded[cipher_at] = id;
    EXPECT_THROW(decode_submit_request(encoded), PreconditionError);
  }
}

TEST(ApiCodec, EmergeEventRoundTripsByteIdentical) {
  EmergeEvent event;
  event.session_nonce = 0xABCDEF0123456789ull;
  event.release_time = 1754650123.5;
  event.delivery_time = 1754650123.875;
  event.secret = bytes_of("released");
  const Bytes encoded = encode_emerge_event(event);
  const EmergeEvent back = decode_emerge_event(encoded);
  EXPECT_EQ(back.session_nonce, event.session_nonce);
  EXPECT_EQ(back.release_time, event.release_time);
  EXPECT_EQ(back.delivery_time, event.delivery_time);
  EXPECT_EQ(back.secret, event.secret);
  EXPECT_EQ(encode_emerge_event(back), encoded);
}

TEST(ApiCodec, MalformedPayloadsThrowInsteadOfCrashing) {
  EXPECT_THROW(decode_submit_request(Bytes{}), Error);
  EXPECT_THROW(decode_emerge_event(Bytes{1, 2, 3}), Error);
  // A valid encoding with a corrupted scheme byte must be rejected.
  Bytes encoded = encode_submit_request(sample_request());
  Bytes truncated(encoded.begin(), encoded.end() - 1);
  EXPECT_THROW(decode_submit_request(truncated), Error);
}

TEST(ApiCodec, SubmitRequestResolvesToSessionConfig) {
  const SubmitRequest request = sample_request();
  const core::SessionConfig config = request.to_config();
  EXPECT_EQ(config.kind, request.scheme);
  EXPECT_EQ(config.shape.k, request.shape.k);
  EXPECT_EQ(config.shape.l, request.shape.l);
  EXPECT_EQ(config.carriers_n, request.carriers_n);
  EXPECT_EQ(config.threshold_m, request.threshold_m);
  EXPECT_EQ(config.emerging_time, request.emerging_time);
}

// The builder and the legacy positional constructor must produce the same
// session: same nonce stream, same protocol run, same delivery instant.
TEST(SessionBuilder, MatchesPositionalConstructorBitForBit) {
  const Bytes secret = bytes_of("builder-equivalence");
  core::SessionConfig config;
  config.kind = core::SchemeKind::kJoint;
  config.shape = core::PathShape{2, 3};
  config.emerging_time = 3600.0;

  World positional_world;
  core::TimedReleaseSession positional(*positional_world.net,
                                       positional_world.cloud, nullptr,
                                       config, 7);
  positional.send(secret, "bob");
  positional_world.sim.run_until(positional.release_time() + 1.0);

  World builder_world;
  SessionHandle built = SessionHandle::Builder()
                            .network(*builder_world.net)
                            .cloud(builder_world.cloud)
                            .scheme(core::SchemeKind::kJoint)
                            .shape(core::PathShape{2, 3})
                            .emerging_time(3600.0)
                            .seed(7)
                            .build();
  built->send(secret, "bob");
  builder_world.sim.run_until(built->release_time() + 1.0);

  EXPECT_EQ(built->session_nonce(), positional.session_nonce());
  EXPECT_EQ(built->release_time(), positional.release_time());
  ASSERT_TRUE(positional.secret_released());
  ASSERT_TRUE(built->secret_released());
  EXPECT_EQ(*built->first_delivery_time(), *positional.first_delivery_time());
  EXPECT_EQ(*built->receiver_decrypt("bob"), *positional.receiver_decrypt("bob"));
}

TEST(SessionBuilder, RejectsMissingWorld) {
  EXPECT_THROW(SessionHandle::Builder().build(), PreconditionError);
}

TEST(LocalClient, SubmitPollAndDecryptEndToEnd) {
  World world;
  LocalClient client(*world.net, world.cloud);

  SubmitRequest request;
  request.message = bytes_of("meet me at the bridge");
  request.receiver_token = "bob-token";
  request.scheme = core::SchemeKind::kJoint;
  request.shape = core::PathShape{2, 3};
  request.emerging_time = 3600.0;
  request.seed = 7;

  const SubmitReceipt receipt = client.submit(request);
  EXPECT_NE(receipt.session_nonce, 0u);
  EXPECT_DOUBLE_EQ(receipt.release_time,
                   receipt.start_time + request.emerging_time);

  // Nothing before tr.
  world.sim.run_until(receipt.release_time - 1.0);
  EXPECT_FALSE(client.poll(receipt.session_nonce).has_value());

  world.sim.run_until(receipt.release_time + 1.0);
  const auto event = client.poll(receipt.session_nonce);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->session_nonce, receipt.session_nonce);
  EXPECT_DOUBLE_EQ(event->delivery_time, receipt.release_time);

  const auto plaintext =
      client.receiver_decrypt(receipt.session_nonce, "bob-token");
  ASSERT_TRUE(plaintext.has_value());
  EXPECT_EQ(*plaintext, bytes_of("meet me at the bridge"));

  EXPECT_FALSE(client.poll(receipt.session_nonce + 1).has_value());
  EXPECT_EQ(client.find(receipt.session_nonce + 1), nullptr);
  ASSERT_NE(client.find(receipt.session_nonce), nullptr);
}

}  // namespace
}  // namespace emergence::api
