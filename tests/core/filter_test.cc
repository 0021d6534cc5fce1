/**
 * @file
 * Property tests for the commit-path Bloom summaries (front 1,
 * docs/COMMIT_PATH.md): TxFilter must never produce a false negative
 * (that would be a lost conflict -- a safety bug), must keep its
 * false-positive rate within the design bound (a perf property: FPs
 * only cost spurious revalidations), and the CommitFilterRing must
 * answer "covered and disjoint" only when every version in the window
 * has a live slot whose published bits are disjoint from the reader's.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/core/engine/filter.h"
#include "src/util/rng.h"

namespace rhtm
{
namespace
{

/** Distinct fake addresses, well spread (heap-like 8-byte spacing). */
std::vector<uint64_t *>
makeAddrs(size_t n, Rng &rng)
{
    std::set<uint64_t> seen;
    std::vector<uint64_t *> out;
    while (out.size() < n) {
        uint64_t raw = (rng.next() << 3) | 0x10000;
        if (seen.insert(raw).second)
            out.push_back(reinterpret_cast<uint64_t *>(raw));
    }
    return out;
}

TEST(TxFilterTest, NeverForgetsAnAddedAddress)
{
    Rng rng(42);
    for (int round = 0; round < 100; ++round) {
        TxFilter f;
        auto addrs = makeAddrs(1 + rng.nextBounded(64), rng);
        for (uint64_t *a : addrs) {
            f.add(a);
            // No false negatives EVER, including mid-stream.
            ASSERT_TRUE(f.mightContain(a));
        }
        for (uint64_t *a : addrs)
            ASSERT_TRUE(f.mightContain(a));
    }
}

TEST(TxFilterTest, FalsePositiveRateBounded)
{
    Rng rng(7);
    // A typical transaction write set (16 words) against 10k foreign
    // probes: with 256 bits and 2 probes per key the analytic FP rate
    // is ~1.5%; assert an order-of-magnitude safety margin.
    unsigned fps = 0;
    constexpr unsigned kProbes = 10000;
    TxFilter f;
    auto member = makeAddrs(16, rng);
    for (uint64_t *a : member)
        f.add(a);
    auto foreign = makeAddrs(kProbes, rng);
    for (uint64_t *a : foreign) {
        if (f.mightContain(a))
            ++fps;
    }
    EXPECT_LT(fps, kProbes / 10) << "false-positive rate above 10%";
}

TEST(TxFilterTest, IntersectionHasNoFalseNegatives)
{
    Rng rng(99);
    for (int round = 0; round < 200; ++round) {
        TxFilter a, b;
        auto addrs = makeAddrs(24, rng);
        for (size_t i = 0; i < 12; ++i)
            a.add(addrs[i]);
        for (size_t i = 11; i < 24; ++i) // addrs[11] shared.
            b.add(addrs[i]);
        ASSERT_TRUE(a.intersects(b))
            << "a shared address must always intersect";
        ASSERT_TRUE(b.intersects(a));
    }
}

TEST(TxFilterTest, DisjointSetsMostlyDontIntersect)
{
    // The ring-skip scenario that has to pay off: a small committer
    // write set (2 words) probed against a reader's 8-word read
    // summary. Analytically ~23% of disjoint pairs collide at these
    // sizes (256 bits, 2 probes/key); assert under 40%. A collision is
    // only a perf loss (spurious revalidate), never a safety issue.
    Rng rng(123);
    unsigned collisions = 0;
    constexpr int kRounds = 500;
    for (int round = 0; round < kRounds; ++round) {
        TxFilter reads, writes;
        auto addrs = makeAddrs(10, rng);
        for (size_t i = 0; i < 8; ++i)
            reads.add(addrs[i]);
        for (size_t i = 8; i < 10; ++i)
            writes.add(addrs[i]);
        if (reads.intersects(writes))
            ++collisions;
    }
    EXPECT_LT(collisions, kRounds * 4 / 10);
}

TEST(TxFilterTest, ClearEmpties)
{
    Rng rng(5);
    TxFilter a;
    auto addrs = makeAddrs(20, rng);
    for (uint64_t *p : addrs)
        a.add(p);
    EXPECT_FALSE(a.empty());
    a.clear();
    EXPECT_TRUE(a.empty());
    for (uint64_t *p : addrs)
        EXPECT_FALSE(a.mightContain(p));
}

TEST(TxFilterTest, SaturateIsTheUniversalSet)
{
    Rng rng(6);
    TxFilter f;
    f.saturate();
    for (uint64_t *p : makeAddrs(100, rng))
        EXPECT_TRUE(f.mightContain(p));
    TxFilter other;
    other.add(makeAddrs(1, rng)[0]);
    EXPECT_TRUE(f.intersects(other));
}

//
// CommitFilterRing
//

struct RingFixture : public ::testing::Test
{
    CommitFilterRing ring;
    Rng rng{2026};
};

TEST_F(RingFixture, CoveredDisjointWalksPublishedWindow)
{
    auto addrs = makeAddrs(12, rng);
    TxFilter read;
    read.add(addrs[0]);
    read.add(addrs[1]);
    // Publish versions 2..8 (even), each with a disjoint write set.
    for (uint64_t v = 2; v <= 8; v += 2) {
        TxFilter w;
        w.add(addrs[2 + v / 2]);
        ring.publish(v, w);
    }
    EXPECT_TRUE(ring.coveredDisjoint(0, 8, read));
    EXPECT_TRUE(ring.coveredDisjoint(4, 8, read));
}

TEST_F(RingFixture, IntersectingCommitDefeatsTheSkip)
{
    auto addrs = makeAddrs(4, rng);
    TxFilter read;
    read.add(addrs[0]);
    TxFilter disjoint, overlapping;
    disjoint.add(addrs[1]);
    overlapping.add(addrs[0]); // Same address the reader logged.
    ring.publish(2, disjoint);
    ring.publish(4, overlapping);
    ring.publish(6, disjoint);
    EXPECT_TRUE(ring.coveredDisjoint(0, 2, read));
    EXPECT_FALSE(ring.coveredDisjoint(0, 4, read))
        << "an intersecting commit inside the window must fail the skip";
    EXPECT_FALSE(ring.coveredDisjoint(2, 6, read));
    EXPECT_TRUE(ring.coveredDisjoint(4, 6, read));
}

TEST_F(RingFixture, UnpublishedVersionFailsConservatively)
{
    auto addrs = makeAddrs(2, rng);
    TxFilter read, w;
    read.add(addrs[0]);
    w.add(addrs[1]);
    ring.publish(2, w);
    // Version 4 never published (e.g. a hardware fast-path bump).
    EXPECT_FALSE(ring.coveredDisjoint(0, 4, read));
    // Degenerate/overflow windows fail too.
    EXPECT_FALSE(ring.coveredDisjoint(4, 4, read));
    EXPECT_FALSE(ring.coveredDisjoint(8, 4, read));
    EXPECT_FALSE(ring.coveredDisjoint(
        0, CommitFilterRing::kSlots * 2 + 2, read));
}

TEST_F(RingFixture, WrapOverwriteInvalidatesOldWindow)
{
    auto addrs = makeAddrs(2, rng);
    TxFilter read, w;
    read.add(addrs[0]);
    w.add(addrs[1]);
    for (uint64_t v = 2; v <= CommitFilterRing::kSlots * 2 + 2; v += 2)
        ring.publish(v, w);
    // Version 2's slot now holds kSlots*2 + 2: the old window is gone.
    EXPECT_FALSE(ring.coveredDisjoint(0, 2, read));
    // The most recent window is still walkable.
    uint64_t to = CommitFilterRing::kSlots * 2 + 2;
    EXPECT_TRUE(ring.coveredDisjoint(to - 4, to, read));
}

TEST_F(RingFixture, ResetForTestClearsEverySlot)
{
    auto addrs = makeAddrs(2, rng);
    TxFilter read, w;
    read.add(addrs[0]);
    w.add(addrs[1]);
    ring.publish(2, w);
    ASSERT_TRUE(ring.coveredDisjoint(0, 2, read));
    ring.resetForTest();
    EXPECT_FALSE(ring.coveredDisjoint(0, 2, read));
}

} // namespace
} // namespace rhtm
