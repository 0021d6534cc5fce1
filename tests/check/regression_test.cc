/**
 * @file
 * Reverted-fix regression programs (docs/CHECKING.md): three past bugs
 * ported into checker programs. Each must fail when its fix is
 * reverted -- with a minimized replay token that still fails -- and
 * pass with the fix in place. All run on kHybridNOrec, the kind the
 * original bugs shipped under.
 *
 * The minimized token may legitimately be EMPTY: for the two
 * schedule-independent bugs every prefix fails, and the empty prefix
 * is the honest minimum. What matters is that replaying the token
 * reproduces the failure.
 */

#include <gtest/gtest.h>

#include "src/api/runtime.h"
#include "src/check/explorer.h"
#include "src/check/program.h"

namespace rhtm::check
{
namespace
{

constexpr AlgoKind kKind = AlgoKind::kHybridNOrec;

TEST(RegressionTest, FirstTryBudgetBugFailsWhenReverted)
{
    // Schedule-independent: any schedule exposes the stuck score.
    Explorer broken(kKind, makeFirstTryBudgetProgram(true));
    ExploreOptions opts;
    opts.mode = ExploreMode::kRandom;
    opts.runs = 8;
    ExploreResult res = broken.explore(opts);
    ASSERT_TRUE(res.failed);
    EXPECT_FALSE(res.failure.invariantOk);
    EXPECT_FALSE(res.failure.invariantWhy.empty());
    // The minimized token must still reproduce the failure.
    RunOutcome re = broken.replay(res.minimizedToken);
    EXPECT_TRUE(re.failed()) << "minimized token no longer fails";

    Explorer fixed(kKind, makeFirstTryBudgetProgram(false));
    ExploreResult ok = fixed.explore(opts);
    EXPECT_FALSE(ok.failed)
        << ok.failure.invariantWhy << ' ' << ok.failure.check.detail;
}

TEST(RegressionTest, PolicySnapshotBugFailsWhenReverted)
{
    // Schedule-independent: the frozen policy snapshot ignores the
    // live budget change on every schedule.
    Explorer broken(kKind, makePolicySnapshotProgram(true));
    ExploreOptions opts;
    opts.mode = ExploreMode::kRandom;
    opts.runs = 8;
    ExploreResult res = broken.explore(opts);
    ASSERT_TRUE(res.failed);
    EXPECT_FALSE(res.failure.invariantOk);
    EXPECT_FALSE(res.failure.invariantWhy.empty());
    RunOutcome re = broken.replay(res.minimizedToken);
    EXPECT_TRUE(re.failed()) << "minimized token no longer fails";

    Explorer fixed(kKind, makePolicySnapshotProgram(false));
    ExploreResult ok = fixed.explore(opts);
    EXPECT_FALSE(ok.failed)
        << ok.failure.invariantWhy << ' ' << ok.failure.check.detail;
}

TEST(RegressionTest, DeadlineUnwindBugFailsWhenReverted)
{
    // Schedule-independent: the injected faults are keyed to thread
    // 0's own program order, so every schedule walks it through
    // fast-abort, slow-restart, and out at the attempt boundary with
    // its fallback registration still published.
    Explorer broken(kKind, makeDeadlineUnwindProgram(true));
    ExploreOptions opts;
    opts.mode = ExploreMode::kRandom;
    opts.runs = 8;
    ExploreResult res = broken.explore(opts);
    ASSERT_TRUE(res.failed);
    EXPECT_FALSE(res.failure.invariantOk);
    EXPECT_FALSE(res.failure.invariantWhy.empty());
    RunOutcome re = broken.replay(res.minimizedToken);
    EXPECT_TRUE(re.failed()) << "minimized token no longer fails";

    Explorer fixed(kKind, makeDeadlineUnwindProgram(false));
    ExploreResult ok = fixed.explore(opts);
    EXPECT_FALSE(ok.failed)
        << ok.failure.invariantWhy << ' ' << ok.failure.check.detail;
}

/**
 * The schedule-DEPENDENT one: only schedules that park the stale
 * decayer across the reopen and the prober's first failure expose the
 * wiped streak. Random walks essentially never find it; PCT with
 * depth 3 does (the pinned seed reaches it at run 18508).
 */
TEST(RegressionTest, KillSwitchStreakBugFailsUnderPctWhenReverted)
{
    Explorer broken(kKind, makeKillSwitchStreakProgram(true));
    ExploreOptions opts;
    opts.mode = ExploreMode::kPct;
    opts.seed = 1;
    opts.pctDepth = 3;
    opts.runs = 20000;
    opts.maxStepsPerRun = 3000;
    ExploreResult res = broken.explore(opts);
    ASSERT_TRUE(res.failed) << "PCT never reached the streak wipe";
    EXPECT_FALSE(res.failure.invariantOk);
    EXPECT_FALSE(res.failure.invariantWhy.empty());
    // This failure needs a real parked-decayer schedule, so the
    // minimized token cannot be empty here.
    EXPECT_FALSE(res.minimizedToken.empty());
    RunOutcome re = broken.replay(res.minimizedToken);
    EXPECT_TRUE(re.failed()) << "minimized token no longer fails";

    // The fix survives both the failing schedule and the same
    // exploration that found it.
    Explorer fixed(kKind, makeKillSwitchStreakProgram(false));
    RunOutcome fixedRe = fixed.replay(res.minimizedToken);
    EXPECT_FALSE(fixedRe.failed())
        << fixedRe.invariantWhy << ' ' << fixedRe.check.detail;
    ExploreResult ok = fixed.explore(opts);
    EXPECT_FALSE(ok.failed)
        << ok.failure.invariantWhy << ' ' << ok.failure.check.detail;
}

/**
 * Schedule-DEPENDENT: only interleavings that park the reader's
 * extension inside the writer's clock-held writeback window expose the
 * zombie read (docs/COMMIT_PATH.md front 3). Runs on the eager kinds
 * the extension ships on -- pure-STM NOrec and the hybrid, which the
 * program's scripted hardware aborts pin to the same software phase.
 */
TEST(RegressionTest, TsExtensionZombieFailsWhenReverted)
{
    for (AlgoKind kind : {AlgoKind::kNOrec, AlgoKind::kHybridNOrec}) {
        Explorer broken(kind, makeTsExtensionProgram(true));
        ExploreOptions opts;
        opts.mode = ExploreMode::kRandom;
        opts.seed = 1;
        opts.runs = 512;
        ExploreResult res = broken.explore(opts);
        ASSERT_TRUE(res.failed)
            << algoKindName(kind)
            << ": exploration never parked the reader mid-writeback";
        EXPECT_FALSE(res.failure.check.ok())
            << algoKindName(kind)
            << ": the zombie must fail the history checker";
        // A real mid-writeback schedule is required, so the minimized
        // token cannot be empty -- and must still reproduce.
        EXPECT_FALSE(res.minimizedToken.empty()) << algoKindName(kind);
        RunOutcome re = broken.replay(res.minimizedToken);
        EXPECT_TRUE(re.failed())
            << algoKindName(kind) << ": minimized token no longer fails";

        // The fix survives both the failing schedule and the same
        // exploration that found it.
        Explorer fixed(kind, makeTsExtensionProgram(false));
        RunOutcome fixedRe = fixed.replay(res.minimizedToken);
        EXPECT_FALSE(fixedRe.failed())
            << algoKindName(kind) << ": " << fixedRe.invariantWhy << ' '
            << fixedRe.check.detail;
        ExploreResult ok = fixed.explore(opts);
        EXPECT_FALSE(ok.failed)
            << algoKindName(kind) << ": " << ok.failure.invariantWhy
            << ' ' << ok.failure.check.detail;
    }
}

} // namespace
} // namespace rhtm::check
