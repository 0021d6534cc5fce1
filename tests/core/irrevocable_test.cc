/**
 * @file
 * Irrevocability white-box tests: the grant barrier (a transaction
 * may be unwound only BEFORE becomeIrrevocable() returns, never
 * after), survival of scripted conflicts and capacity squeezes at the
 * upgrade window, FIFO serialization of concurrent upgraders on the
 * serial ticket lock, and zero side-effect replay under the full
 * irrevocable-storm chaos schedule (docs/LIFECYCLE.md).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "src/api/runtime.h"
#include "src/core/engine/fault_points.h"
#include "src/fault/schedules.h"
#include "tests/test_support.h"

namespace rhtm
{
namespace
{

alignas(64) uint64_t g_word;
alignas(64) uint64_t g_array[16];

/** Every coordination word must be free and every ticket served. */
void
expectQuiescent(TmRuntime &rt, const char *algo)
{
    TmGlobals &g = rt.globals();
    EXPECT_FALSE(clockIsLocked(rt.peek(&g.clock)))
        << algo << ": clock lock leaked";
    EXPECT_EQ(rt.peek(&g.htmLock), 0u) << algo << ": HTM lock leaked";
    EXPECT_EQ(rt.peek(&g.fallbacks), 0u)
        << algo << ": fallback registration leaked";
    EXPECT_EQ(rt.peek(&g.serialLock), 0u)
        << algo << ": serial lock leaked";
    EXPECT_EQ(rt.peek(&g.globalLock), 0u)
        << algo << ": global lock leaked";
    EXPECT_EQ(rt.peek(&g.serialNextTicket), rt.peek(&g.serialServing))
        << algo << ": serial ticket imbalance";
    EXPECT_TRUE(g.watchdog.healthy())
        << algo << ": watchdog left unhealthy";
}

TEST(IrrevocableTest, UpgradeGrantsCommitsAndCountsOnEveryAlgorithm)
{
    for (AlgoKind kind : allAlgoKinds()) {
        const char *algo = algoKindName(kind);
        TmRuntime rt(kind);
        ThreadCtx &ctx = rt.registerThread();
        g_word = 0;

        unsigned effects = 0;
        rt.run(ctx, [&](Txn &tx) {
            tx.becomeIrrevocable();
            EXPECT_TRUE(tx.isIrrevocable()) << algo;
            ++effects; // Simulated external side effect.
            tx.store(&g_word, tx.load(&g_word) + 1);
        });
        EXPECT_EQ(effects, 1u)
            << algo << ": the side effect ran after the grant, so any "
            << "replay would be a grant-barrier violation";
        EXPECT_EQ(rt.peek(&g_word), 1u) << algo;
        EXPECT_GE(rt.stats().get(Counter::kIrrevocableUpgrades), 1u)
            << algo;
        expectQuiescent(rt, algo);

        // Irrevocability is per-transaction: the next one starts
        // revocable.
        rt.run(ctx, [&](Txn &tx) {
            EXPECT_FALSE(tx.isIrrevocable()) << algo;
            tx.store(&g_word, tx.load(&g_word) + 1);
        });
        EXPECT_EQ(rt.peek(&g_word), 2u) << algo;
    }
}

TEST(IrrevocableTest, PreGrantConflictsReplayWithoutSideEffects)
{
    // Script conflict aborts at the kIrrevocableUpgrade window: the
    // first two upgrade attempts are killed BEFORE the grant, the
    // third goes through. The side effect (bumped only after
    // becomeIrrevocable() returns) must run exactly once.
    for (AlgoKind kind :
         {AlgoKind::kHybridNOrec, AlgoKind::kHybridNOrecLazy,
          AlgoKind::kRhNOrec, AlgoKind::kRhTl2}) {
        const char *algo = algoKindName(kind);
        RuntimeConfig cfg;
        FaultRule rule;
        rule.site = FaultSite::kIrrevocableUpgrade;
        rule.kind = FaultKind::kAbortConflict;
        rule.firstHit = 1;
        rule.period = 1;
        rule.maxFires = 2;
        cfg.fault.add(rule);
        TmRuntime rt(kind, cfg);
        ThreadCtx &ctx = rt.registerThread();
        g_word = 0;

        unsigned effects = 0;
        rt.run(ctx, [&](Txn &tx) {
            tx.becomeIrrevocable();
            ++effects;
            tx.store(&g_word, tx.load(&g_word) + 1);
        });
        EXPECT_EQ(effects, 1u)
            << algo << ": pre-grant aborts must replay the body, not "
            << "the side effect";
        EXPECT_EQ(rt.peek(&g_word), 1u) << algo;
        ASSERT_NE(ctx.injector(), nullptr) << algo;
        EXPECT_EQ(ctx.injector()->fires(FaultSite::kIrrevocableUpgrade),
                  2u)
            << algo << ": both scripted aborts must actually fire";
        EXPECT_EQ(rt.stats().get(Counter::kIrrevocableUpgrades), 1u)
            << algo << ": aborted upgrade attempts must not count";
        expectQuiescent(rt, algo);
    }
}

TEST(IrrevocableTest, UpgradeSurvivesACapacitySqueeze)
{
    // A standing one-line capacity squeeze forces the read set out of
    // every hardware attempt (fast path and RH prefix), so the upgrade
    // request arrives on the software mixed path mid-read-phase -- the
    // validate-then-lock branch -- and must still be granted exactly
    // once.
    for (AlgoKind kind : {AlgoKind::kRhNOrec, AlgoKind::kHybridNOrec}) {
        const char *algo = algoKindName(kind);
        RuntimeConfig cfg;
        FaultRule squeeze;
        squeeze.site = FaultSite::kHtmBegin;
        squeeze.kind = FaultKind::kCapacitySqueeze;
        squeeze.firstHit = 1;
        squeeze.squeezeReadLines = 1;
        squeeze.squeezeWriteLines = 1;
        squeeze.squeezeTxns = 0; // Forever.
        cfg.fault.add(squeeze);
        TmRuntime rt(kind, cfg);
        ThreadCtx &ctx = rt.registerThread();
        for (uint64_t i = 0; i < 16; ++i)
            rt.poke(&g_array[i], i);

        unsigned effects = 0;
        uint64_t sum = 0;
        rt.run(ctx, [&](Txn &tx) {
            sum = 0;
            for (uint64_t i = 0; i < 16; ++i)
                sum += tx.load(&g_array[i]);
            tx.becomeIrrevocable();
            ++effects;
            tx.store(&g_array[0], sum);
        });
        EXPECT_EQ(effects, 1u) << algo;
        EXPECT_EQ(sum, 120u) << algo;
        EXPECT_EQ(rt.peek(&g_array[0]), 120u) << algo;
        EXPECT_EQ(rt.stats().get(Counter::kIrrevocableUpgrades), 1u)
            << algo;
        expectQuiescent(rt, algo);
    }
}

TEST(IrrevocableTest, PostGrantFaultSitesAbsorbScriptedAborts)
{
    // Every software write is scripted to abort. Before the grant that
    // would restart the attempt; after the grant the session must
    // absorb the fault (sessionFaultPointNoAbort) -- an unwind there
    // would replay the side effect.
    RuntimeConfig cfg;
    FaultRule rule;
    rule.site = FaultSite::kSoftwareWrite;
    rule.kind = FaultKind::kAbortConflict;
    rule.firstHit = 1;
    rule.period = 1;
    cfg.fault.add(rule);
    TmRuntime rt(AlgoKind::kRhNOrec, cfg);
    ThreadCtx &ctx = rt.registerThread();
    for (uint64_t i = 0; i < 3; ++i)
        rt.poke(&g_array[i], 0);

    unsigned effects = 0;
    rt.run(ctx, [&](Txn &tx) {
        tx.becomeIrrevocable();
        ++effects;
        for (uint64_t i = 0; i < 3; ++i)
            tx.store(&g_array[i], i + 1);
    });
    EXPECT_EQ(effects, 1u)
        << "a post-grant scripted abort must be absorbed, not unwound";
    for (uint64_t i = 0; i < 3; ++i)
        EXPECT_EQ(rt.peek(&g_array[i]), i + 1);
    ASSERT_NE(ctx.injector(), nullptr);
    EXPECT_GE(ctx.injector()->fires(FaultSite::kSoftwareWrite), 3u)
        << "the faults must actually fire inside the granted window";
    expectQuiescent(rt, "rh-norec");
}

TEST(IrrevocableTest, ConcurrentUpgradersSerializeInTicketOrder)
{
    // Several threads upgrade at once: the serial ticket lock must
    // grant them strictly FIFO. Each upgrader records the serving
    // ticket while it holds the grant (the serial lock makes the
    // vector effectively single-threaded), so the recorded sequence
    // must be strictly increasing.
    for (AlgoKind kind : {AlgoKind::kHybridNOrec, AlgoKind::kRhNOrec}) {
        const char *algo = algoKindName(kind);
        RuntimeConfig cfg;
        cfg.retry.stallBudgetTicks = 512;
        cfg.retry.stallYieldPhase = 32;
        cfg.retry.stallSleepMinUs = 1;
        cfg.retry.stallSleepMaxUs = 100;
        TmRuntime rt(kind, cfg);
        TmGlobals &g = rt.globals();
        g_word = 0;

        constexpr unsigned kThreads = 6;
        std::vector<uint64_t> grant_order; // Guarded by the serial lock.
        std::atomic<uint64_t> effects{0};
        test::runThreads(rt, kThreads, [&](unsigned, ThreadCtx &ctx) {
            rt.run(ctx, [&](Txn &tx) {
                tx.becomeIrrevocable();
                effects.fetch_add(1);
                grant_order.push_back(rt.peek(&g.serialServing));
                tx.store(&g_word, tx.load(&g_word) + 1);
            });
        });

        EXPECT_EQ(effects.load(), kThreads)
            << algo << ": one side effect per granted upgrade";
        EXPECT_EQ(rt.peek(&g_word), uint64_t(kThreads)) << algo;
        ASSERT_EQ(grant_order.size(), kThreads) << algo;
        for (unsigned i = 1; i < kThreads; ++i)
            EXPECT_LT(grant_order[i - 1], grant_order[i])
                << algo << ": upgraders must be served in ticket order";
        EXPECT_EQ(rt.stats().get(Counter::kIrrevocableUpgrades),
                  uint64_t(kThreads))
            << algo;
        expectQuiescent(rt, algo);
    }
}

TEST(IrrevocableTest, ZeroSideEffectReplayUnderIrrevocableStorm)
{
    // The acceptance scenario: the full irrevocable-storm schedule
    // (pre-grant delays and aborts, stretched post-grant clock holds,
    // sprinkled user exceptions) over several threads, a quarter of
    // whose operations upgrade. Every granted upgrade must run its
    // side effect exactly once and commit; the shared counter must
    // account exactly for the committed operations.
    for (AlgoKind kind :
         {AlgoKind::kRhNOrec, AlgoKind::kHybridNOrecLazy}) {
        const char *algo = algoKindName(kind);
        RuntimeConfig cfg;
        ASSERT_TRUE(makeChaosSchedule("irrevocable-storm", 7, cfg.fault));
        cfg.retry.stallBudgetTicks = 512;
        cfg.retry.stallYieldPhase = 32;
        cfg.retry.stallSleepMinUs = 1;
        cfg.retry.stallSleepMaxUs = 100;
        TmRuntime rt(kind, cfg);
        g_word = 0;

        constexpr unsigned kThreads = 6;
        constexpr unsigned kIters = 20;
        std::atomic<uint64_t> committed{0};
        std::atomic<uint64_t> upgraded{0};
        std::atomic<uint64_t> effects{0};
        std::atomic<uint64_t> exceptions{0};
        test::runThreads(rt, kThreads, [&](unsigned, ThreadCtx &ctx) {
            for (unsigned i = 0; i < kIters; ++i) {
                // Decided outside the transaction, as a real caller
                // with a non-replayable side effect would.
                bool upgrade = (i % 4 == 0);
                try {
                    rt.run(ctx, [&](Txn &tx) {
                        userExceptionFaultPoint(ctx.injector());
                        if (upgrade) {
                            tx.becomeIrrevocable();
                            effects.fetch_add(1);
                        }
                        tx.store(&g_word, tx.load(&g_word) + 1);
                    });
                    committed.fetch_add(1);
                    if (upgrade)
                        upgraded.fetch_add(1);
                } catch (const InjectedUserException &) {
                    exceptions.fetch_add(1);
                }
            }
        });

        EXPECT_EQ(committed.load() + exceptions.load(),
                  uint64_t(kThreads) * kIters)
            << algo;
        EXPECT_EQ(rt.peek(&g_word), committed.load()) << algo;
        EXPECT_GT(upgraded.load(), 0u)
            << algo << ": the storm must actually exercise upgrades";
        EXPECT_EQ(effects.load(), upgraded.load())
            << algo << ": side effects ran " << effects.load()
            << " times for " << upgraded.load()
            << " upgraded commits (replayed grant)";
        EXPECT_EQ(rt.stats().get(Counter::kIrrevocableUpgrades),
                  upgraded.load())
            << algo << ": every grant must commit exactly once";
        expectQuiescent(rt, algo);
    }
}

} // namespace
} // namespace rhtm
