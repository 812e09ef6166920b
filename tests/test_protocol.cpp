// End-to-end integration tests: the full protocol stack (Chord DHT + real
// crypto + simulator) for all schemes, including the attack walkthroughs of
// the paper's Figs. 2-5.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "cloud/cloud_store.hpp"
#include "common/error.hpp"
#include "common/serial.hpp"
#include "dht/chord_network.hpp"
#include "dht/kademlia.hpp"
#include "emerge/protocol.hpp"
#include "emerge/session_dispatcher.hpp"
#include "sim/simulator.hpp"

namespace emergence::core {
namespace {

/// A `nodes`-node Chord ring with maintenance off (deterministic tests).
std::unique_ptr<dht::ChordNetwork> quiet_chord(sim::Simulator& sim, Rng& rng,
                                               std::size_t nodes) {
  dht::NetworkConfig config;
  config.run_maintenance = false;
  auto net = std::make_unique<dht::ChordNetwork>(sim, rng, config);
  net->bootstrap(nodes);
  return net;
}

struct World {
  sim::Simulator sim;
  Rng rng{2024};
  std::unique_ptr<dht::ChordNetwork> net;
  SessionDispatcher dispatcher;
  cloud::CloudStore cloud;

  explicit World(std::size_t nodes = 64)
      : net(quiet_chord(sim, rng, nodes)), dispatcher(*net) {}
};

SessionConfig joint_config() {
  SessionConfig c;
  c.kind = SchemeKind::kJoint;
  c.shape = PathShape{2, 3};
  c.emerging_time = 3600.0;
  return c;
}

SessionConfig disjoint_config() {
  SessionConfig c = joint_config();
  c.kind = SchemeKind::kDisjoint;
  return c;
}

SessionConfig share_config() {
  // The Fig. 5 example: k = 2 onion paths, l = 3 columns, n = 3 carriers
  // per column, m = 2-of-3 shares.
  SessionConfig c;
  c.kind = SchemeKind::kShare;
  c.shape = PathShape{2, 3};
  c.carriers_n = 3;
  c.threshold_m = 2;
  c.emerging_time = 3600.0;
  return c;
}

SessionConfig config_for(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kDisjoint:
      return disjoint_config();
    case SchemeKind::kShare:
      return share_config();
    default:
      return joint_config();
  }
}

// Parameterised on the scheme kind, not the whole SessionConfig: gtest prints
// a struct param as its raw bytes, padding included, so the listed case names
// picked up leftover heap bytes and changed from run to run.
class SchemeEndToEnd : public ::testing::TestWithParam<SchemeKind> {};

TEST_P(SchemeEndToEnd, SecretEmergesExactlyAtReleaseTime) {
  World w;
  TimedReleaseSession session(SessionArgs{.dispatcher = w.dispatcher,
                                          .cloud = w.cloud,
                                          .config = config_for(GetParam()),
                                          .seed = 7});
  session.send(bytes_of("meet me at the bridge"), "bob-token");

  // Not released before tr.
  w.sim.run_until(session.release_time() - 1.0);
  EXPECT_FALSE(session.secret_released());
  EXPECT_FALSE(session.receiver_decrypt("bob-token").has_value());

  w.sim.run_until(session.release_time() + 1.0);
  ASSERT_TRUE(session.secret_released());
  EXPECT_DOUBLE_EQ(*session.first_delivery_time(), session.release_time());

  const auto plaintext = session.receiver_decrypt("bob-token");
  ASSERT_TRUE(plaintext.has_value());
  EXPECT_EQ(*plaintext, bytes_of("meet me at the bridge"));
}

TEST_P(SchemeEndToEnd, WrongReceiverTokenRejectedByCloud) {
  World w;
  TimedReleaseSession session(SessionArgs{.dispatcher = w.dispatcher,
                                          .cloud = w.cloud,
                                          .config = config_for(GetParam()),
                                          .seed = 8});
  session.send(bytes_of("msg"), "bob-token");
  w.sim.run();
  ASSERT_TRUE(session.secret_released());
  EXPECT_FALSE(session.receiver_decrypt("eve-token").has_value());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeEndToEnd,
                         ::testing::Values(SchemeKind::kJoint,
                                           SchemeKind::kDisjoint,
                                           SchemeKind::kShare),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

// -- substrate independence: the same protocol over Kademlia -----------------

std::unique_ptr<dht::KademliaNetwork> quiet_kademlia(sim::Simulator& sim,
                                                     Rng& rng,
                                                     std::size_t nodes) {
  dht::KademliaConfig config;
  config.run_maintenance = false;
  auto net = std::make_unique<dht::KademliaNetwork>(sim, rng, config);
  net->bootstrap(nodes);
  return net;
}

struct KademliaWorld {
  sim::Simulator sim;
  Rng rng{2024};
  std::unique_ptr<dht::KademliaNetwork> net;
  SessionDispatcher dispatcher;
  cloud::CloudStore cloud;

  explicit KademliaWorld(std::size_t nodes = 64)
      : net(quiet_kademlia(sim, rng, nodes)), dispatcher(*net) {}
};

class SchemeOnKademlia : public ::testing::TestWithParam<SchemeKind> {};

TEST_P(SchemeOnKademlia, EndToEndOverXorMetricDht) {
  KademliaWorld w;
  TimedReleaseSession session(SessionArgs{.dispatcher = w.dispatcher,
                                          .cloud = w.cloud,
                                          .config = config_for(GetParam()),
                                          .seed = 7});
  session.send(bytes_of("substrate-independent"), "bob");
  w.sim.run_until(session.release_time() - 1.0);
  EXPECT_FALSE(session.secret_released());
  w.sim.run();
  ASSERT_TRUE(session.secret_released());
  const auto plaintext = session.receiver_decrypt("bob");
  ASSERT_TRUE(plaintext.has_value());
  EXPECT_EQ(*plaintext, bytes_of("substrate-independent"));
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeOnKademlia,
                         ::testing::Values(SchemeKind::kJoint,
                                           SchemeKind::kDisjoint,
                                           SchemeKind::kShare),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

TEST(Protocol, CentralizedStyleSingleHop) {
  World w;
  SessionConfig c;
  c.kind = SchemeKind::kJoint;  // 1x1 joint == centralized storage
  c.shape = PathShape{1, 1};
  c.emerging_time = 600.0;
  TimedReleaseSession session(SessionArgs{.dispatcher = w.dispatcher,
                                          .cloud = w.cloud,
                                          .config = c,
                                          .seed = 9});
  session.send(bytes_of("short"), "t");
  w.sim.run();
  ASSERT_TRUE(session.secret_released());
  EXPECT_DOUBLE_EQ(*session.first_delivery_time(), session.release_time());
}

TEST(Protocol, HoldersAreDistinctNodes) {
  World w;
  TimedReleaseSession session(SessionArgs{.dispatcher = w.dispatcher,
                                          .cloud = w.cloud,
                                          .config = share_config(),
                                          .seed = 10});
  session.send(bytes_of("m"), "t");
  const PathLayout& layout = session.layout();
  std::set<dht::NodeId> seen;
  std::size_t total = 0;
  for (const auto& column : layout.columns) {
    for (const dht::NodeId& id : column) {
      seen.insert(id);
      ++total;
    }
  }
  EXPECT_EQ(seen.size(), total);
  // Fig. 5 geometry: 3 + 3 + 2 holders.
  EXPECT_EQ(total, 8u);
  w.sim.run();
}

TEST(Protocol, ReportCountsPlausible) {
  World w;
  TimedReleaseSession session(SessionArgs{.dispatcher = w.dispatcher,
                                          .cloud = w.cloud,
                                          .config = joint_config(),
                                          .seed = 11});
  session.send(bytes_of("m"), "t");
  w.sim.run();
  const SessionReport& report = session.report();
  // Column 1: 2 sends from the sender; columns 2..3: 2 holders x 2 hops.
  EXPECT_EQ(report.packages_sent, 2u + 4u + 4u);
  EXPECT_EQ(report.key_assignments, 6u);  // all 2x3 holders pre-assigned
  EXPECT_EQ(report.deliveries, 2u);       // both terminal holders deliver
  EXPECT_EQ(report.holders_stuck, 0u);
}

TEST(Protocol, ShareSchemeKeyAssignmentsOnlyColumnOne) {
  World w;
  TimedReleaseSession session(SessionArgs{.dispatcher = w.dispatcher,
                                          .cloud = w.cloud,
                                          .config = share_config(),
                                          .seed = 12});
  session.send(bytes_of("m"), "t");
  w.sim.run();
  EXPECT_EQ(session.report().key_assignments, 3u);  // n carriers of column 1
  EXPECT_TRUE(session.secret_released());
}

// -- drop attacks (Figs. 2(c), 3, 4) ---------------------------------------------

TEST(DropAttack, JointSurvivesOneMaliciousHolderPerColumn) {
  // Fig. 4's point: (H1,1 H2,2 H1,3) malicious cannot cut the node-joint
  // hop graph -- the path through the other holders stays alive.
  World w;
  Adversary adv(Adversary::Config{AttackMode::kDropping, 2, 1});
  TimedReleaseSession session(SessionArgs{w.dispatcher, w.cloud, &adv,
                                          joint_config(), 13});
  session.send(bytes_of("m"), "t");
  const PathLayout& layout = session.layout();
  adv.mark_malicious(layout.columns[0][0]);  // H1,1
  adv.mark_malicious(layout.columns[1][1]);  // H2,2
  adv.mark_malicious(layout.columns[2][0]);  // H1,3
  w.sim.run();
  EXPECT_TRUE(session.secret_released());
}

TEST(DropAttack, DisjointDiesWithOneMaliciousHolderPerPath) {
  // Same malicious pattern kills the node-disjoint scheme (Fig. 3 vs 4).
  World w;
  Adversary adv(Adversary::Config{AttackMode::kDropping, 2, 1});
  TimedReleaseSession session(SessionArgs{w.dispatcher, w.cloud, &adv,
                                          disjoint_config(), 13});
  session.send(bytes_of("m"), "t");
  const PathLayout& layout = session.layout();
  adv.mark_malicious(layout.columns[0][0]);  // path 1 cut at column 1
  adv.mark_malicious(layout.columns[1][1]);  // path 2 cut at column 2
  w.sim.run();
  EXPECT_FALSE(session.secret_released());
  EXPECT_GT(session.report().packages_dropped_malicious, 0u);
}

TEST(DropAttack, JointDiesWhenAFullColumnIsMalicious) {
  World w;
  Adversary adv(Adversary::Config{AttackMode::kDropping, 2, 1});
  TimedReleaseSession session(SessionArgs{w.dispatcher, w.cloud, &adv,
                                          joint_config(), 14});
  session.send(bytes_of("m"), "t");
  adv.mark_malicious(session.layout().columns[1][0]);
  adv.mark_malicious(session.layout().columns[1][1]);
  w.sim.run();
  EXPECT_FALSE(session.secret_released());
}

TEST(DropAttack, ShareSchemeToleratesMinorityCarrierDrop) {
  // One dropped carrier per column leaves m = 2 of n = 3 shares: enough.
  // Share-scheme holders carry individual keys, so onion_slots_k = 0.
  World w;
  Adversary adv(Adversary::Config{AttackMode::kDropping, 0, 2});
  TimedReleaseSession session(SessionArgs{w.dispatcher, w.cloud, &adv,
                                          share_config(), 15});
  session.send(bytes_of("m"), "t");
  adv.mark_malicious(session.layout().columns[0][2]);  // extra carrier H3,1
  adv.mark_malicious(session.layout().columns[1][2]);  // extra carrier H3,2
  w.sim.run();
  EXPECT_TRUE(session.secret_released());
}

TEST(DropAttack, ShareSchemeDiesWhenMajorityDrops) {
  World w;
  Adversary adv(Adversary::Config{AttackMode::kDropping, 0, 2});
  TimedReleaseSession session(SessionArgs{w.dispatcher, w.cloud, &adv,
                                          share_config(), 16});
  session.send(bytes_of("m"), "t");
  adv.mark_malicious(session.layout().columns[0][0]);
  adv.mark_malicious(session.layout().columns[0][1]);  // 2 of 3 carriers drop
  w.sim.run();
  EXPECT_FALSE(session.secret_released());
}

// -- release-ahead attacks (Fig. 2(b)) -----------------------------------------

TEST(ReleaseAhead, AllColumnsCompromisedRestoresAtStart) {
  // The K4 case: a malicious holder in every column (keys pre-assigned at
  // ts) plus the captured package restores the secret before tr.
  World w;
  Adversary adv(Adversary::Config{AttackMode::kCovert, 2, 1});
  TimedReleaseSession session(SessionArgs{w.dispatcher, w.cloud, &adv,
                                          joint_config(), 17});
  session.send(bytes_of("exam questions"), "t");
  const PathLayout& layout = session.layout();
  adv.mark_malicious(layout.columns[0][0]);
  adv.mark_malicious(layout.columns[1][0]);
  adv.mark_malicious(layout.columns[2][1]);
  session.refresh_adversary_exposure();  // coalition held the keys since ts

  // Give the column-1 package time to reach the malicious holder.
  w.sim.run_until(session.start_time() + 10.0);
  const auto stolen = adv.attempt_restore(w.sim.now());
  ASSERT_TRUE(stolen.has_value());
  EXPECT_LT(w.sim.now(), session.release_time());

  // The stolen key decrypts the cloud blob: confidentiality is fully broken.
  w.sim.run();
  ASSERT_TRUE(session.secret_released());
  EXPECT_EQ(*stolen, *session.released_secret());
}

TEST(ReleaseAhead, GapInColumnsBlocksEarlyRestore) {
  // The K3 case of Fig. 2(b): head and tail compromised, middle intact.
  World w;
  Adversary adv(Adversary::Config{AttackMode::kCovert, 2, 1});
  TimedReleaseSession session(SessionArgs{w.dispatcher, w.cloud, &adv,
                                          joint_config(), 18});
  session.send(bytes_of("m"), "t");
  const PathLayout& layout = session.layout();
  adv.mark_malicious(layout.columns[0][0]);
  adv.mark_malicious(layout.columns[2][0]);  // column 2 stays clean
  session.refresh_adversary_exposure();

  w.sim.run_until(session.start_time() + 10.0);
  EXPECT_FALSE(adv.attempt_restore(w.sim.now()).has_value());

  // Even at the end of the run the adversary only ever saw the terminal
  // secret via its terminal holder -- one holding period early, never at ts.
  w.sim.run();
  EXPECT_TRUE(session.secret_released());
  ASSERT_TRUE(adv.earliest_secret_time().has_value());
  const double leak_margin =
      session.release_time() - *adv.earliest_secret_time();
  EXPECT_LE(leak_margin, session.holding_period() + 1.0);
  EXPECT_GT(leak_margin, 0.0);
}

TEST(ReleaseAhead, CleanPathsLeakNothing) {
  // The K1 case: no malicious holder anywhere.
  World w;
  Adversary adv(Adversary::Config{AttackMode::kCovert, 2, 1});
  TimedReleaseSession session(SessionArgs{w.dispatcher, w.cloud, &adv,
                                          joint_config(), 19});
  session.send(bytes_of("m"), "t");
  w.sim.run();
  EXPECT_TRUE(session.secret_released());
  EXPECT_FALSE(adv.earliest_secret_time().has_value());
  EXPECT_EQ(adv.captured_packages(), 0u);
}

TEST(ReleaseAhead, ShareSchemeNeedsThresholdPerColumn) {
  // One malicious carrier per column captures one share per key: below the
  // m = 2 threshold, so no early restore; the protocol still completes.
  World w;
  Adversary adv(Adversary::Config{AttackMode::kCovert, 0, 2});
  TimedReleaseSession session(SessionArgs{w.dispatcher, w.cloud, &adv,
                                          share_config(), 20});
  session.send(bytes_of("m"), "t");
  const PathLayout& layout = session.layout();
  adv.mark_malicious(layout.columns[0][2]);
  adv.mark_malicious(layout.columns[1][2]);
  session.refresh_adversary_exposure();
  w.sim.run_until(session.release_time() - 1.0);
  EXPECT_FALSE(adv.attempt_restore(w.sim.now()).has_value());
  w.sim.run();
  EXPECT_TRUE(session.secret_released());
}

TEST(ReleaseAhead, ShareSchemeThresholdInOneColumnCascades) {
  // m = 2 of n = 3 carriers malicious in column 1 *alone*: their
  // pre-assigned keys open their envelopes of the captured onion, each of
  // which carries one share of every column-2 key — threshold reached, all
  // column-2 keys reconstruct, and the unwrapped inner onion then yields
  // every later column's shares in turn (the fixpoint cascade). The
  // coalition holds the secret right after ts, two full holding periods
  // before tr. Algorithm 1's per-column release tails model exactly this
  // any-column event; the stat engine's share release semantics were fixed
  // to match (stat_engine.cpp) after the e2e cross-validation sweep
  // flagged the divergence.
  World w;
  Adversary adv(Adversary::Config{AttackMode::kCovert, 0, 2});
  TimedReleaseSession session(SessionArgs{w.dispatcher, w.cloud, &adv,
                                          share_config(), 21});
  session.send(bytes_of("m"), "t");
  const PathLayout& layout = session.layout();
  adv.mark_malicious(layout.columns[0][0]);
  adv.mark_malicious(layout.columns[0][1]);
  session.refresh_adversary_exposure();
  w.sim.run_until(session.start_time() + 10.0);
  const auto stolen = adv.attempt_restore(w.sim.now());
  ASSERT_TRUE(stolen.has_value());
  EXPECT_LT(w.sim.now(), session.release_time());

  // The stolen secret is the real message key.
  w.sim.run();
  ASSERT_TRUE(session.secret_released());
  EXPECT_EQ(*stolen, *session.released_secret());
}

// -- churn at the protocol level ------------------------------------------------

TEST(ProtocolChurn, JointSurvivesHolderDeathMidHold) {
  World w;
  TimedReleaseSession session(SessionArgs{.dispatcher = w.dispatcher,
                                          .cloud = w.cloud,
                                          .config = joint_config(),
                                          .seed = 22});
  session.send(bytes_of("m"), "t");
  const dht::NodeId victim = session.layout().columns[1][0];
  // Kill one column-2 holder while it is holding the package.
  w.sim.schedule_at(session.start_time() + 1.5 * session.holding_period(),
                    [&] { w.net->kill_node(victim); });
  w.sim.run();
  EXPECT_TRUE(session.secret_released());  // the replica column survives
}

TEST(ProtocolChurn, DisjointLosesPathOnHolderDeath) {
  World w;
  TimedReleaseSession session(SessionArgs{.dispatcher = w.dispatcher,
                                          .cloud = w.cloud,
                                          .config = disjoint_config(),
                                          .seed = 23});
  session.send(bytes_of("m"), "t");
  // Kill one holder per path mid-hold: both paths die, nothing emerges.
  const dht::NodeId victim1 = session.layout().columns[1][0];
  const dht::NodeId victim2 = session.layout().columns[0][1];
  w.sim.schedule_at(session.start_time() + 0.5 * session.holding_period(),
                    [&] { w.net->kill_node(victim2); });
  w.sim.schedule_at(session.start_time() + 1.5 * session.holding_period(),
                    [&] { w.net->kill_node(victim1); });
  w.sim.run();
  EXPECT_FALSE(session.secret_released());
}

TEST(ProtocolChurn, TerminalHolderDeathBeforeReleaseLosesItsCopy) {
  World w;
  TimedReleaseSession session(SessionArgs{.dispatcher = w.dispatcher,
                                          .cloud = w.cloud,
                                          .config = joint_config(),
                                          .seed = 24});
  session.send(bytes_of("m"), "t");
  // Kill one terminal holder after it peeled but before tr: the other
  // terminal holder still delivers.
  const dht::NodeId victim = session.layout().columns[2][0];
  w.sim.schedule_at(session.release_time() - 10.0,
                    [&] { w.net->kill_node(victim); });
  w.sim.run();
  EXPECT_TRUE(session.secret_released());
  EXPECT_EQ(session.report().deliveries, 1u);
}

TEST(Protocol, ConfigValidation) {
  World w;
  SessionConfig bad = share_config();
  bad.threshold_m = 5;  // > carriers_n
  EXPECT_THROW(TimedReleaseSession(SessionArgs{.dispatcher = w.dispatcher,
                                               .cloud = w.cloud,
                                               .config = bad,
                                               .seed = 1}),
               PreconditionError);
  SessionConfig tiny = joint_config();
  tiny.emerging_time = 0.5;  // holding period shorter than assembly delay
  EXPECT_THROW(TimedReleaseSession(SessionArgs{.dispatcher = w.dispatcher,
                                               .cloud = w.cloud,
                                               .config = tiny,
                                               .seed = 1}),
               PreconditionError);
}

TEST(Protocol, MalformedPackagesAreDiscarded) {
  // A hostile node spams holders with garbage; the protocol must neither
  // crash nor stall.
  World w;
  TimedReleaseSession session(SessionArgs{.dispatcher = w.dispatcher,
                                          .cloud = w.cloud,
                                          .config = joint_config(),
                                          .seed = 26});
  session.send(bytes_of("m"), "t");
  const dht::NodeId target = session.layout().columns[0][0];
  const dht::NodeId attacker = w.net->alive_ids().front();
  w.net->send_message(attacker, target, bytes_of("complete garbage"));
  w.net->send_message(attacker, target, Bytes{0x01});  // truncated header
  // The session's own nonce, then a body cut short after the column.
  BinaryWriter truncated;
  truncated.u8(1);  // kMsgPackage
  truncated.u64(session.session_nonce());
  truncated.u16(1);
  w.net->send_message(attacker, target, truncated.take());
  w.sim.run();
  // Payloads that do not start like a package never reach a session; the
  // dispatcher counts them. The nonce-prefixed one is the session's to count.
  EXPECT_EQ(w.dispatcher.malformed_packages(), 2u);
  EXPECT_EQ(session.report().malformed_packages, 1u);
  EXPECT_TRUE(session.secret_released());
}

TEST(Protocol, ForgedSessionPackagesCannotHijackHolderSlots) {
  // An attacker forges a syntactically valid package (wrong session nonce)
  // and races it to a column-2 holder before the real one arrives. The
  // session must ignore it: the slot is not claimed, the genuine package
  // processes normally, and the secret emerges on time.
  World w;
  TimedReleaseSession session(SessionArgs{.dispatcher = w.dispatcher,
                                          .cloud = w.cloud,
                                          .config = disjoint_config(),
                                          .seed = 27});
  session.send(bytes_of("m"), "t");
  const dht::NodeId victim = session.layout().columns[1][1];
  Bytes fake;
  {
    BinaryWriter wtr;
    wtr.u8(1);                            // kMsgPackage
    wtr.u64(0xdeadbeefdeadbeefULL);       // forged session nonce
    wtr.u16(2);                           // column
    wtr.u16(1);                           // holder index
    wtr.u16(0);                           // no shares
    wtr.blob(bytes_of("not a column onion"));
    fake = wtr.take();
  }
  w.net->send_message(victim, victim, fake);
  w.sim.run();
  EXPECT_EQ(session.report().holders_stuck, 0u);
  EXPECT_TRUE(session.secret_released());
}

TEST(Protocol, TwoConcurrentSessionsCoexist) {
  // The world's dispatcher routes by session nonce: two messages with
  // different release times travel the same DHT independently.
  World w(96);
  TimedReleaseSession early(SessionArgs{.dispatcher = w.dispatcher,
                                        .cloud = w.cloud,
                                        .config = joint_config(),
                                        .seed = 28});
  SessionConfig late_config = joint_config();
  late_config.emerging_time = 7200.0;
  TimedReleaseSession late(SessionArgs{.dispatcher = w.dispatcher,
                                       .cloud = w.cloud,
                                       .config = late_config,
                                       .seed = 29});

  early.send(bytes_of("first"), "t1");
  late.send(bytes_of("second"), "t2");

  w.sim.run_until(early.release_time() + 1.0);
  EXPECT_TRUE(early.secret_released());
  EXPECT_FALSE(late.secret_released());

  w.sim.run();
  ASSERT_TRUE(late.secret_released());
  EXPECT_EQ(*early.receiver_decrypt("t1"), bytes_of("first"));
  EXPECT_EQ(*late.receiver_decrypt("t2"), bytes_of("second"));
  EXPECT_EQ(early.report().holders_stuck, 0u);
  EXPECT_EQ(late.report().holders_stuck, 0u);
}

TEST(Protocol, SendTwiceRejected) {
  World w;
  TimedReleaseSession session(SessionArgs{.dispatcher = w.dispatcher,
                                          .cloud = w.cloud,
                                          .config = joint_config(),
                                          .seed = 25});
  session.send(bytes_of("m"), "t");
  EXPECT_THROW(session.send(bytes_of("again"), "t"), PreconditionError);
  w.sim.run();
}

// -- dispatcher-managed sessions ----------------------------------------------

TEST(Protocol, DispatchedSessionsDeliverLikeChainedOnes) {
  World w;
  auto first = std::make_unique<TimedReleaseSession>(
      SessionArgs{.dispatcher = w.dispatcher,
                  .cloud = w.cloud,
                  .config = joint_config(),
                  .seed = 91});
  auto second = std::make_unique<TimedReleaseSession>(
      SessionArgs{.dispatcher = w.dispatcher,
                  .cloud = w.cloud,
                  .config = joint_config(),
                  .seed = 92});
  first->send(bytes_of("one"), "t1");
  second->send(bytes_of("two"), "t2");
  EXPECT_EQ(w.dispatcher.live_sessions(), 2u);
  EXPECT_GT(w.dispatcher.tracked_storage_keys(), 0u);

  w.sim.run();
  ASSERT_TRUE(first->secret_released());
  ASSERT_TRUE(second->secret_released());
  EXPECT_EQ(*first->receiver_decrypt("t1"), bytes_of("one"));
  EXPECT_EQ(*second->receiver_decrypt("t2"), bytes_of("two"));
  EXPECT_EQ(w.dispatcher.stray_packages(), 0u);
}

TEST(Protocol, RetireErasesStoredKeysAndDeregisters) {
  World w;
  auto session = std::make_unique<TimedReleaseSession>(
      SessionArgs{.dispatcher = w.dispatcher,
                  .cloud = w.cloud,
                  .config = joint_config(),
                  .seed = 93});
  session->send(bytes_of("m"), "t");
  w.sim.run();
  ASSERT_TRUE(session->secret_released());

  // The pre-assigned layer keys live under the slots' ring points.
  const PathLayout& layout = session->layout();
  const dht::NodeId stored_key = layout.ring_points[0][0];
  EXPECT_NE(w.net->get(stored_key), nullptr);

  session->retire();
  EXPECT_EQ(w.dispatcher.live_sessions(), 0u);
  EXPECT_EQ(w.dispatcher.tracked_storage_keys(), 0u);
  EXPECT_EQ(w.net->get(stored_key), nullptr);
  session->retire();  // idempotent
  // Destroying the retired session must not disturb the dispatcher.
  session.reset();
  EXPECT_EQ(w.dispatcher.live_sessions(), 0u);
}

TEST(Protocol, StrayPackagesForRetiredSessionsAreCountedNotDelivered) {
  World w;
  auto session = std::make_unique<TimedReleaseSession>(
      SessionArgs{.dispatcher = w.dispatcher,
                  .cloud = w.cloud,
                  .config = joint_config(),
                  .seed = 94});
  session->send(bytes_of("m"), "t");
  // Capture a genuine column-1 package off the wire by replaying what the
  // sender emitted: simplest is to let the world run, retire, then poke a
  // fabricated package at the (now unregistered) nonce via a copy of the
  // default handler path — a foreign well-formed package with an unknown
  // nonce exercises the same branch.
  w.sim.run();
  session->retire();
  session.reset();

  BinaryWriter forged;
  forged.u8(1);                 // kMsgPackage
  forged.u64(0xDEADBEEF);       // no such session
  forged.u16(1);
  forged.u16(0);
  forged.u16(0);                // zero shares
  forged.blob(bytes_of("xx"));  // onion bytes (never decoded)
  const std::vector<dht::NodeId>& alive = w.net->alive_ids();
  w.net->send_message(alive[0], alive[1], forged.take());
  w.sim.run();
  EXPECT_EQ(w.dispatcher.stray_packages(), 1u);
}

TEST(Protocol, DispatcherRefusesANetworkWithHandlersInstalled) {
  // One dispatcher per network and nothing chained: a second dispatcher,
  // or one over a network that already has a store observer, is refused.
  World w;
  EXPECT_THROW(SessionDispatcher{*w.net}, PreconditionError);

  sim::Simulator sim;
  Rng rng{7};
  std::unique_ptr<dht::ChordNetwork> net = quiet_chord(sim, rng, 8);
  net->set_store_observer([](const dht::NodeId&, const dht::NodeId&,
                             BytesView) {});
  EXPECT_THROW(SessionDispatcher{*net}, PreconditionError);
}

TEST(Protocol, DestroyingASessionMidFlightIsSafe) {
  // A sent session destroyed without retire() halfway through its first
  // hold: its column-1 forwards are still pending at ts + th. Nothing may
  // touch the freed session — the pending timers resolve to nothing, and
  // traffic still addressed to its nonce becomes a counted stray.
  World w;
  auto session = std::make_unique<TimedReleaseSession>(
      SessionArgs{.dispatcher = w.dispatcher,
                  .cloud = w.cloud,
                  .config = joint_config(),
                  .seed = 95});
  session->send(bytes_of("m"), "t");
  const std::uint64_t nonce = session->session_nonce();
  const dht::NodeId holder = session->layout().columns[1][0];
  w.sim.run_until(session->start_time() + session->holding_period() / 2.0);
  ASSERT_GT(w.sim.pending(), 0u);
  session.reset();
  EXPECT_EQ(w.dispatcher.live_sessions(), 0u);
  EXPECT_EQ(w.dispatcher.tracked_storage_keys(), 0u);

  // A column-2 package for the dead session, as a late forward would be.
  const std::uint64_t sent_before = w.net->transport_stats().messages;
  w.net->send_message(holder, holder,
                      encode_protocol_package(nonce, 2, 0, bytes_of("onion"),
                                              {}));
  w.sim.run();
  EXPECT_GT(w.dispatcher.stray_packages(), 0u);
  // The destroyed session's pending forwards sent nothing.
  EXPECT_EQ(w.net->transport_stats().messages, sent_before + 1);
}

}  // namespace
}  // namespace emergence::core
