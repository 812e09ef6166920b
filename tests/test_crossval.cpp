// Tests for the full-stack vs stat-engine cross-validation
// (workload/crossval.hpp): thread-count invariance of the full-stack
// tallies of small SessionFleet worlds, cross-validation gates at smoke
// scale, and the regression coverage for the divergences the comparison
// flagged (share-scheme release cascade, stored-key replication placement,
// delivery timing). "E2eRunner" names the full-stack side: run_scenario
// over crossval rows.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "workload/crossval.hpp"

namespace emergence::workload {
namespace {

using core::AttackMode;
using core::DhtBackend;
using core::SchemeKind;
using core::SweepOptions;
using core::SweepRunner;

ScenarioSpec smoke_scenario(std::size_t worlds = 24,
                            std::size_t sessions_per_world = 1) {
  ScenarioSpec s = crossval_scenario("smoke", worlds, sessions_per_world);
  s.population = 48;
  s.malicious_p = 0.3;
  s.seed = 0x5E2E;
  return s;
}

void expect_tallies_identical(const FleetTally& a, const FleetTally& b) {
  EXPECT_EQ(a.tally.release.successes(), b.tally.release.successes());
  EXPECT_EQ(a.tally.drop.successes(), b.tally.drop.successes());
  EXPECT_EQ(a.tally.suffix_histogram, b.tally.suffix_histogram);
  EXPECT_EQ(a.churn_deaths, b.churn_deaths);
  // Every exact field, including latency bins and protocol counters.
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.transport.fingerprint(), b.transport.fingerprint());
}

void expect_all_pass(const CrossValResult& result) {
  ASSERT_FALSE(result.metrics.empty());
  for (const CrossValMetric& m : result.metrics) {
    EXPECT_TRUE(m.pass) << m.metric << " fs=" << m.full_stack
                        << " stat=" << m.stat_engine << " bound=" << m.bound;
  }
}

TEST(E2eRunner, TalliesBitIdenticalAt1And2And8Threads) {
  // A row's result is a pure function of the spec, never of the thread
  // count; two sessions per world exercise the multi-session path.
  const ScenarioSpec scenario = smoke_scenario(24, 2);

  SweepRunner one(SweepOptions{1, 64});
  SweepRunner two(SweepOptions{2, 64});
  SweepRunner eight(SweepOptions{8, 64});
  const FleetTally t1 = run_scenario(one, scenario);
  const FleetTally t2 = run_scenario(two, scenario);
  const FleetTally t8 = run_scenario(eight, scenario);

  EXPECT_EQ(t1.trials(), 48u);
  EXPECT_EQ(t1.worlds, 24u);
  expect_tallies_identical(t1, t2);
  expect_tallies_identical(t1, t8);
}

TEST(E2eRunner, ChurnTalliesBitIdenticalAcrossThreads) {
  // Churn worlds replay maintenance, repair and replacement joins from the
  // world seed alone; address-dependent state anywhere would break this.
  ScenarioSpec scenario = smoke_scenario(10);
  scenario.churn = true;

  SweepRunner one(SweepOptions{1, 64});
  SweepRunner eight(SweepOptions{8, 64});
  const FleetTally t1 = run_scenario(one, scenario);
  const FleetTally t8 = run_scenario(eight, scenario);
  EXPECT_GT(t1.churn_deaths, 0u);
  expect_tallies_identical(t1, t8);
}

TEST(E2eRunner, RepeatedEvaluationIsDeterministic) {
  SweepRunner sweeps(SweepOptions{0, 64});
  const FleetTally a = run_scenario(sweeps, smoke_scenario());
  const FleetTally b = run_scenario(sweeps, smoke_scenario());
  expect_tallies_identical(a, b);
}

// -- cross-validation gates at smoke scale ------------------------------------

TEST(E2eCrossVal, CovertJointReleaseMatchesStatEngine) {
  SweepRunner sweeps(SweepOptions{0, 64});
  const CrossValResult result =
      cross_validate(sweeps, smoke_scenario(80), 4000);
  expect_all_pass(result);
  // Covert, no churn: every session delivers, exactly at tr.
  EXPECT_EQ(result.full_stack.sessions_delivered, result.full_stack.trials());
  EXPECT_EQ(result.full_stack.delivered_on_time,
            result.full_stack.sessions_delivered);
  EXPECT_EQ(result.full_stack.max_delivery_offset_ns, 0);
}

TEST(E2eCrossVal, ShareSchemeCascadeReleaseMatchesStatEngine) {
  // Regression for a divergence this comparison flagged: the stat engine
  // used to require the coalition to reach the Shamir threshold in *every*
  // column, while the attack engine's fixpoint cascades from any one
  // column. Both engines now score the any-column event.
  SweepRunner sweeps(SweepOptions{0, 64});
  ScenarioSpec scenario = smoke_scenario(80);
  scenario.scheme = SchemeKind::kShare;
  scenario.carriers_n = 4;
  scenario.threshold_m = 2;
  const CrossValResult result = cross_validate(sweeps, scenario, 4000);
  expect_all_pass(result);
  // The cascade event is frequent at p = 0.3 (any column with >= 2 of 4
  // malicious carriers); the old all-columns semantics put the stat rate
  // several bounds below the full stack.
  EXPECT_GT(result.stat.release.rate(), 0.3);
}

TEST(E2eCrossVal, DroppingAdversaryDropRateMatchesStatEngine) {
  SweepRunner sweeps(SweepOptions{0, 64});
  ScenarioSpec scenario = smoke_scenario(80);
  scenario.attack_mode = AttackMode::kDropping;
  expect_all_pass(cross_validate(sweeps, scenario, 4000));
}

TEST(E2eCrossVal, ChurnAvailabilityMatchesRenewalModel) {
  // Regression for the replication divergence this comparison flagged:
  // stored layer keys used to live under a hashed storage key unrelated to
  // the holder's ring point, so replica repair pushed copies to the wrong
  // nodes and churn replacements could never reconstruct — drop rates sat
  // far above the stat engine's renewal model.
  SweepRunner sweeps(SweepOptions{0, 64});
  ScenarioSpec scenario = smoke_scenario(60);
  scenario.malicious_p = 0.0;
  scenario.churn = true;
  const CrossValResult result = cross_validate(sweeps, scenario, 4000);
  expect_all_pass(result);
  EXPECT_GT(result.full_stack.churn_deaths, 0u);
}

TEST(E2eCrossVal, KademliaBackendPasses) {
  SweepRunner sweeps(SweepOptions{0, 64});
  ScenarioSpec scenario = smoke_scenario(60);
  scenario.backend = DhtBackend::kKademlia;
  expect_all_pass(cross_validate(sweeps, scenario, 4000));
}

// -- plumbing -----------------------------------------------------------------

TEST(E2eRunner, RestoreMarginPeriods) {
  // tr = 300, th = 100, l = 3.
  EXPECT_EQ(SessionFleet::restore_margin_periods(0.5, 300.0, 100.0, 3), 3u);
  EXPECT_EQ(SessionFleet::restore_margin_periods(100.5, 300.0, 100.0, 3), 2u);
  EXPECT_EQ(SessionFleet::restore_margin_periods(201.1, 300.0, 100.0, 3), 1u);
  EXPECT_EQ(SessionFleet::restore_margin_periods(299.9, 300.0, 100.0, 3), 0u);
  // Clamped to the path length even for possession at (or fractionally
  // before) ts.
  EXPECT_EQ(SessionFleet::restore_margin_periods(-20.0, 300.0, 100.0, 3), 3u);
}

TEST(E2eRunner, RejectsDegenerateScenarios) {
  SweepRunner sweeps(SweepOptions{1, 64});
  EXPECT_THROW(run_scenario(sweeps, smoke_scenario(0)), PreconditionError);
  ScenarioSpec bad_p = smoke_scenario();
  bad_p.malicious_p = 1.5;
  EXPECT_THROW(run_scenario(sweeps, bad_p), PreconditionError);
  ScenarioSpec bad_share = smoke_scenario();
  bad_share.scheme = SchemeKind::kShare;
  bad_share.carriers_n = 3;
  bad_share.threshold_m = 5;
  EXPECT_THROW(run_scenario(sweeps, bad_share), PreconditionError);
  ScenarioSpec bad_repair = smoke_scenario();
  bad_repair.repair_interval = 0.0;
  EXPECT_THROW(run_scenario(sweeps, bad_repair), PreconditionError);
}

TEST(E2eRunner, DefaultMatrixCoversTheAdvertisedAxes) {
  const std::vector<ScenarioSpec> matrix = crossval_matrix(10);
  bool schemes[4] = {false, false, false, false};
  bool kademlia = false, churn = false, dropping = false, multi = false;
  bool lossy = false;
  for (const ScenarioSpec& s : matrix) {
    schemes[static_cast<std::size_t>(s.scheme)] = true;
    kademlia = kademlia || s.backend == DhtBackend::kKademlia;
    churn = churn || s.churn;
    dropping = dropping || s.attack_mode == AttackMode::kDropping;
    multi = multi || s.sessions > s.worlds;
    lossy = lossy || s.transport.can_drop();
    EXPECT_EQ(s.worlds, 10u);
    EXPECT_EQ(s.repair_interval, 30.0) << s.name;
  }
  for (bool scheme : schemes) EXPECT_TRUE(scheme);
  EXPECT_TRUE(kademlia);
  EXPECT_TRUE(churn);
  EXPECT_TRUE(dropping);
  EXPECT_TRUE(multi);
  EXPECT_TRUE(lossy);
}

TEST(E2eCrossVal, MatrixRowsValidateAndOnlyChurnRowsChurn) {
  // ScenarioSpec defaults to churn=true for service fleets; a crossval row
  // that forgot to clear it would silently compare churned worlds against
  // a churn-free stat engine. Every row must validate, and a row's worlds
  // must see node deaths exactly when the row asks for churn.
  SweepRunner sweeps(SweepOptions{0, 64});
  for (const ScenarioSpec& s : crossval_matrix(2)) {
    EXPECT_NO_THROW(s.validate()) << s.name;
    const FleetTally t = run_scenario(sweeps, s);
    if (s.churn) {
      EXPECT_GT(t.churn_deaths, 0u) << s.name;
    } else {
      EXPECT_EQ(t.churn_deaths, 0u) << s.name;
    }
  }
}

}  // namespace
}  // namespace emergence::workload
