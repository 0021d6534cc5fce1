/**
 * @file
 * Self-tests for the serializability/opacity history checker against
 * golden hand-written histories (docs/CHECKING.md): known-serializable
 * and known-non-serializable committed sets, the classic NOrec zombie
 * read (an aborted attempt observing a mixed snapshot), and malformed
 * event streams.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "src/check/history.h"

namespace rhtm::check
{
namespace
{

TEST(HistoryCheckerTest, EmptyHistoryIsOk)
{
    History h;
    CheckResult res = checkHistory(h, {});
    EXPECT_TRUE(res.ok());
    EXPECT_TRUE(res.witnessOrder.empty());
}

TEST(HistoryCheckerTest, SerialReadAfterWriteIsOk)
{
    History h;
    h.push(0, HistKind::kBegin);
    h.push(0, HistKind::kAttempt);
    h.push(0, HistKind::kWrite, 0, 1);
    h.push(0, HistKind::kCommit);
    h.push(1, HistKind::kBegin);
    h.push(1, HistKind::kAttempt);
    h.push(1, HistKind::kRead, 0, 1);
    h.push(1, HistKind::kCommit);
    CheckResult res = checkHistory(h, {0});
    EXPECT_TRUE(res.ok()) << res.detail;
    ASSERT_EQ(res.witnessOrder.size(), 2u);
    // Real time forces the writer first.
    EXPECT_EQ(res.witnessOrder[0], 0u);
    EXPECT_EQ(res.witnessOrder[1], 1u);
}

TEST(HistoryCheckerTest, InterleavedSnapshotReadersAreOk)
{
    // Both readers see the pre-write snapshot while the writer is
    // live: serializable with the readers ordered first.
    History h;
    h.push(0, HistKind::kBegin);
    h.push(0, HistKind::kAttempt);
    h.push(1, HistKind::kBegin);
    h.push(1, HistKind::kAttempt);
    h.push(1, HistKind::kRead, 0, 0);
    h.push(0, HistKind::kWrite, 0, 7);
    h.push(1, HistKind::kRead, 1, 0);
    h.push(0, HistKind::kWrite, 1, 7);
    h.push(0, HistKind::kCommit);
    h.push(1, HistKind::kCommit);
    CheckResult res = checkHistory(h, {0, 0});
    EXPECT_TRUE(res.ok()) << res.detail;
}

TEST(HistoryCheckerTest, EarlyWriterIsPrunedNotPermuted)
{
    // t0 begins first and overwrites v0, which t1 read as 0; twelve
    // readers of untouched vars overlap both. Every valid order puts
    // t1 before t0. A search that tries t0 first must see at once
    // that t1 can no longer replay, not after trying all 12! orders
    // of the other readers.
    const unsigned kReaders = 12;
    History h;
    h.push(0, HistKind::kBegin);
    for (unsigned r = 0; r < kReaders; ++r)
        h.push(2 + r, HistKind::kBegin);
    h.push(1, HistKind::kBegin);
    h.push(1, HistKind::kAttempt);
    h.push(1, HistKind::kRead, 0, 0);
    h.push(1, HistKind::kCommit);
    for (unsigned r = 0; r < kReaders; ++r) {
        h.push(2 + r, HistKind::kAttempt);
        h.push(2 + r, HistKind::kRead, 1 + r, 0);
        h.push(2 + r, HistKind::kCommit);
    }
    h.push(0, HistKind::kAttempt);
    h.push(0, HistKind::kWrite, 0, 1);
    h.push(0, HistKind::kCommit);
    CheckResult res =
        checkHistory(h, std::vector<uint64_t>(kReaders + 1, 0));
    EXPECT_TRUE(res.ok()) << res.detail;
    const std::vector<unsigned> &w = res.witnessOrder;
    ASSERT_EQ(w.size(), kReaders + 2);
    EXPECT_LT(std::find(w.begin(), w.end(), 1u) - w.begin(),
              std::find(w.begin(), w.end(), 0u) - w.begin());
}

TEST(HistoryCheckerTest, CommittedWriteSkewIsNotSerializable)
{
    // Both transactions read the OTHER variable's initial value and
    // commit: neither order replays both reads.
    History h;
    h.push(0, HistKind::kBegin);
    h.push(1, HistKind::kBegin);
    h.push(0, HistKind::kAttempt);
    h.push(1, HistKind::kAttempt);
    h.push(0, HistKind::kRead, 1, 0);
    h.push(1, HistKind::kRead, 0, 0);
    h.push(0, HistKind::kWrite, 0, 1);
    h.push(1, HistKind::kWrite, 1, 1);
    h.push(0, HistKind::kCommit);
    h.push(1, HistKind::kCommit);
    CheckResult res = checkHistory(h, {0, 0});
    EXPECT_EQ(res.verdict, CheckVerdict::kNotSerializable);
    EXPECT_FALSE(res.detail.empty());
}

TEST(HistoryCheckerTest, NorecZombieReadIsAnOpacityViolation)
{
    // The classic NOrec zombie: T1 commits v0=1, v1=1 atomically; an
    // aborted T0 attempt observed v0 AFTER the commit but v1 from
    // BEFORE it. No serialization prefix explains {v0=1, v1=0}, so
    // even though the attempt aborted, opacity is violated.
    History h;
    h.push(1, HistKind::kBegin);
    h.push(1, HistKind::kAttempt);
    h.push(1, HistKind::kWrite, 0, 1);
    h.push(1, HistKind::kWrite, 1, 1);
    h.push(1, HistKind::kCommit);
    h.push(0, HistKind::kBegin);
    h.push(0, HistKind::kAttempt);
    h.push(0, HistKind::kRead, 0, 1);
    h.push(0, HistKind::kRead, 1, 0); // Impossible mixed snapshot.
    h.push(0, HistKind::kAttempt);    // Retry after the abort ...
    h.push(0, HistKind::kRead, 0, 1);
    h.push(0, HistKind::kRead, 1, 1); // ... sees a consistent state
    h.push(0, HistKind::kCommit);     // and commits.
    CheckResult res = checkHistory(h, {0, 0});
    EXPECT_EQ(res.verdict, CheckVerdict::kZombieRead);
    EXPECT_FALSE(res.detail.empty());
}

TEST(HistoryCheckerTest, AbortedPrefixOfACommitIsNotAZombie)
{
    // An aborted attempt that saw the PRE-commit state throughout is
    // a plain conflict abort, not an opacity violation.
    History h;
    h.push(0, HistKind::kBegin);
    h.push(0, HistKind::kAttempt);
    h.push(0, HistKind::kRead, 0, 0);
    h.push(0, HistKind::kRead, 1, 0);
    h.push(1, HistKind::kBegin);
    h.push(1, HistKind::kAttempt);
    h.push(1, HistKind::kWrite, 0, 1);
    h.push(1, HistKind::kWrite, 1, 1);
    h.push(1, HistKind::kCommit);
    h.push(0, HistKind::kAttempt);
    h.push(0, HistKind::kRead, 0, 1);
    h.push(0, HistKind::kRead, 1, 1);
    h.push(0, HistKind::kCommit);
    CheckResult res = checkHistory(h, {0, 0});
    EXPECT_TRUE(res.ok()) << res.detail;
}

TEST(HistoryCheckerTest, CommitWithoutBeginIsMalformed)
{
    History h;
    h.push(0, HistKind::kCommit);
    CheckResult res = checkHistory(h, {});
    EXPECT_EQ(res.verdict, CheckVerdict::kMalformed);
    EXPECT_FALSE(res.detail.empty());
}

TEST(HistoryCheckerTest, ReadOutsideAnAttemptIsMalformed)
{
    History h;
    h.push(0, HistKind::kBegin);
    h.push(0, HistKind::kRead, 0, 0); // No kAttempt yet.
    h.push(0, HistKind::kCommit);
    CheckResult res = checkHistory(h, {0});
    EXPECT_EQ(res.verdict, CheckVerdict::kMalformed);
}

TEST(HistoryTest, FormatIsStableOneLinePerEvent)
{
    History h;
    h.push(0, HistKind::kBegin);
    h.push(0, HistKind::kAttempt);
    h.push(0, HistKind::kRead, 1, 7);
    h.push(0, HistKind::kWrite, 2, 9);
    h.push(0, HistKind::kCommit);
    std::string text = h.format();
    EXPECT_NE(text.find("t0 read v1=7"), std::string::npos) << text;
    EXPECT_NE(text.find("t0 write v2=9"), std::string::npos) << text;
    EXPECT_EQ(static_cast<size_t>(
                  std::count(text.begin(), text.end(), '\n')),
              h.size());
}

} // namespace
} // namespace rhtm::check
