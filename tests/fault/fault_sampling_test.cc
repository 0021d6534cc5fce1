/**
 * @file
 * Tests for the injector's ahead-of-time firing schedule: geometric
 * sampling keeps each probabilistic rule's firing rate, rules sharing
 * a site keep plan-order precedence, caps hold, unarmed sites only
 * count, and a reset replays the identical trace.
 */

#include <gtest/gtest.h>

#include <vector>

#include "src/fault/fault_injector.h"

namespace rhtm
{
namespace
{

FaultRule
rule(FaultSite site, FaultKind kind, uint64_t first_hit, uint64_t period,
     double probability = 1.0)
{
    FaultRule r;
    r.site = site;
    r.kind = kind;
    r.firstHit = first_hit;
    r.period = period;
    r.probability = probability;
    return r;
}

TEST(FaultSamplingTest, BenchCalibrationFiresAtItsRate)
{
    // The bench's 5e-4 per-access calibration over 8 Mi hits: 4194
    // fires expected, one standard deviation is ~65, so +/-5% is a
    // margin of more than 3 deviations at any seed.
    FaultPlan plan;
    plan.seed = 11;
    plan.add(rule(FaultSite::kTxRead, FaultKind::kAbortOther, 1, 1, 5e-4));
    FaultInjector inj(plan, 0);
    constexpr uint64_t kHits = uint64_t(1) << 23;
    uint64_t fires = 0;
    for (uint64_t i = 0; i < kHits; ++i) {
        if (inj.fire(FaultSite::kTxRead) != FaultKind::kNone)
            ++fires;
    }
    const double expected = 5e-4 * kHits;
    EXPECT_NEAR(static_cast<double>(fires), expected, expected * 0.05);
    EXPECT_EQ(inj.fires(FaultSite::kTxRead), fires);
    EXPECT_EQ(inj.hits(FaultSite::kTxRead), kHits);
}

TEST(FaultSamplingTest, PeriodicProbabilisticFiresOnlyOnMatches)
{
    FaultPlan plan;
    plan.seed = 3;
    plan.recordTrace = true;
    plan.add(rule(FaultSite::kTxWrite, FaultKind::kAbortConflict, 4, 3,
                  0.2));
    FaultInjector inj(plan, 0);
    constexpr uint64_t kHits = 300000;
    for (uint64_t i = 0; i < kHits; ++i)
        inj.fire(FaultSite::kTxWrite);
    for (const FaultEvent &e : inj.trace()) {
        ASSERT_GE(e.hit, 4u);
        ASSERT_EQ((e.hit - 4) % 3, 0u) << e.hit;
    }
    const double expected = 0.2 * (kHits - 4) / 3;
    EXPECT_NEAR(static_cast<double>(inj.trace().size()), expected,
                expected * 0.05);
}

TEST(FaultSamplingTest, FirstRuleInPlanOrderWinsASharedHit)
{
    FaultPlan plan;
    plan.recordTrace = true;
    plan.add(rule(FaultSite::kPreCommit, FaultKind::kAbortConflict, 3, 0));
    FaultRule delay = rule(FaultSite::kPreCommit, FaultKind::kDelay, 3, 1);
    delay.delaySpins = 7;
    delay.maxFires = 1;
    plan.add(delay);
    FaultInjector inj(plan, 0);

    uint32_t spins = 0;
    EXPECT_EQ(inj.fire(FaultSite::kPreCommit, &spins), FaultKind::kNone);
    EXPECT_EQ(inj.fire(FaultSite::kPreCommit, &spins), FaultKind::kNone);
    // Hit 3 is due for both; the abort comes first in the plan.
    EXPECT_EQ(inj.fire(FaultSite::kPreCommit, &spins),
              FaultKind::kAbortConflict);
    EXPECT_EQ(spins, 0u);
    EXPECT_EQ(inj.fires(FaultSite::kPreCommit), 1u);
    // The delay lost hit 3 without spending its single firing: it
    // fires on its next match instead, then never again.
    EXPECT_EQ(inj.fire(FaultSite::kPreCommit, &spins), FaultKind::kDelay);
    EXPECT_EQ(spins, 7u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(inj.fire(FaultSite::kPreCommit), FaultKind::kNone);
    ASSERT_EQ(inj.trace().size(), 2u);
    EXPECT_EQ(inj.trace()[0].kind, FaultKind::kAbortConflict);
    EXPECT_EQ(inj.trace()[0].hit, 3u);
    EXPECT_EQ(inj.trace()[1].kind, FaultKind::kDelay);
    EXPECT_EQ(inj.trace()[1].hit, 4u);
    EXPECT_EQ(inj.totalFires(), 2u);
}

TEST(FaultSamplingTest, ShadowedProbabilisticRuleKeepsItsDistribution)
{
    // Two p = 0.5 rules on every hit: the first fires on half the
    // hits, the second on half of the hits the first leaves free.
    FaultPlan plan;
    plan.seed = 21;
    plan.recordTrace = true;
    plan.add(rule(FaultSite::kTxRead, FaultKind::kAbortConflict, 1, 1,
                  0.5));
    plan.add(rule(FaultSite::kTxRead, FaultKind::kAbortOther, 1, 1, 0.5));
    FaultInjector inj(plan, 0);
    constexpr uint64_t kHits = 200000;
    uint64_t first = 0, second = 0;
    for (uint64_t i = 0; i < kHits; ++i) {
        FaultKind k = inj.fire(FaultSite::kTxRead);
        first += k == FaultKind::kAbortConflict;
        second += k == FaultKind::kAbortOther;
    }
    EXPECT_NEAR(double(first) / kHits, 0.5, 0.01);
    EXPECT_NEAR(double(second) / kHits, 0.25, 0.01);
    EXPECT_EQ(inj.trace().size(), first + second);
}

TEST(FaultSamplingTest, OneShotProbabilisticFiresOnlyOnItsHit)
{
    // One draw per injector: across seeds the rule fires at hit 5 with
    // probability 0.3, and at no other hit.
    constexpr unsigned kSeeds = 4000;
    unsigned fired = 0;
    for (unsigned seed = 1; seed <= kSeeds; ++seed) {
        FaultPlan plan;
        plan.seed = seed;
        plan.recordTrace = true;
        plan.add(rule(FaultSite::kTxRead, FaultKind::kAbortOther, 5, 0,
                      0.3));
        FaultInjector inj(plan, 0);
        for (int i = 0; i < 20; ++i)
            inj.fire(FaultSite::kTxRead);
        ASSERT_LE(inj.trace().size(), 1u);
        if (!inj.trace().empty()) {
            EXPECT_EQ(inj.trace()[0].hit, 5u);
            ++fired;
        }
    }
    EXPECT_NEAR(double(fired) / kSeeds, 0.3, 0.03);
}

TEST(FaultSamplingTest, MaxFiresCapsAProbabilisticRule)
{
    FaultPlan plan;
    plan.seed = 8;
    FaultRule r = rule(FaultSite::kTxRead, FaultKind::kAbortOther, 1, 1,
                       0.01);
    r.maxFires = 3;
    plan.add(r);
    FaultInjector inj(plan, 0);
    uint64_t fires = 0;
    for (int i = 0; i < 100000; ++i) {
        if (inj.fire(FaultSite::kTxRead) != FaultKind::kNone)
            ++fires;
    }
    EXPECT_EQ(fires, 3u);
    EXPECT_EQ(inj.fires(FaultSite::kTxRead), 3u);
    EXPECT_EQ(inj.hits(FaultSite::kTxRead), 100000u);
}

TEST(FaultSamplingTest, UnarmedSiteNeverFiresButCountsHits)
{
    FaultPlan plan;
    plan.add(rule(FaultSite::kTxRead, FaultKind::kAbortConflict, 1, 1));
    plan.add(rule(FaultSite::kTxWrite, FaultKind::kNone, 1, 1));
    FaultInjector inj(plan, 0);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(inj.fire(FaultSite::kPreCommit), FaultKind::kNone);
        EXPECT_EQ(inj.fire(FaultSite::kTxWrite), FaultKind::kNone);
    }
    EXPECT_EQ(inj.hits(FaultSite::kPreCommit), 1000u);
    EXPECT_EQ(inj.hits(FaultSite::kTxWrite), 1000u);
    EXPECT_EQ(inj.fires(FaultSite::kPreCommit), 0u);
    EXPECT_EQ(inj.fires(FaultSite::kTxWrite), 0u);
    EXPECT_EQ(inj.totalFires(), 0u);

    FaultInjector empty(FaultPlan{}, 0);
    EXPECT_EQ(empty.fire(FaultSite::kHtmBegin), FaultKind::kNone);
    EXPECT_EQ(empty.hits(FaultSite::kHtmBegin), 1u);
}

TEST(FaultSamplingTest, ResetForTestReplaysTheIdenticalTrace)
{
    FaultPlan plan;
    plan.seed = 77;
    plan.recordTrace = true;
    plan.add(rule(FaultSite::kTxRead, FaultKind::kAbortOther, 1, 1, 0.01));
    plan.add(rule(FaultSite::kTxRead, FaultKind::kDelay, 2, 5, 0.3));
    plan.add(rule(FaultSite::kPreCommit, FaultKind::kAbortConflict, 1, 1,
                  0.05));
    FaultInjector inj(plan, 2);

    auto drive = [&inj] {
        for (int i = 0; i < 20000; ++i) {
            inj.fire(FaultSite::kTxRead);
            if (i % 7 == 0)
                inj.fire(FaultSite::kPreCommit);
        }
        return inj.trace();
    };
    const std::vector<FaultEvent> first = drive();
    const uint64_t firstFires = inj.totalFires();
    ASSERT_GT(first.size(), 100u);
    inj.resetForTest();
    EXPECT_EQ(inj.hits(FaultSite::kTxRead), 0u);
    EXPECT_TRUE(inj.trace().empty());
    const std::vector<FaultEvent> second = drive();
    EXPECT_EQ(inj.totalFires(), firstFires);
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].site, second[i].site);
        EXPECT_EQ(first[i].kind, second[i].kind);
        EXPECT_EQ(first[i].hit, second[i].hit);
    }
}

} // namespace
} // namespace rhtm
