/**
 * @file
 * Unit tests for the simulated best-effort HTM.
 *
 * Cross-transaction interleavings are driven deterministically by using
 * two HtmTxn objects from one thread; the engine only cares about the
 * order of API calls, so these tests pin down exact conflict semantics.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/htm/htm_txn.h"

namespace rhtm
{
namespace
{

struct HtmFixture : public ::testing::Test
{
    HtmFixture()
        : eng(makeConfig()), stats0(), stats1(),
          txa(eng, 0, &stats0), txb(eng, 1, &stats1)
    {}

    static HtmConfig
    makeConfig()
    {
        HtmConfig cfg;
        cfg.stripeCountLog2 = 16;
        return cfg;
    }

    HtmEngine eng;
    ThreadStats stats0, stats1;
    HtmTxn txa, txb;
    // Spread words across distinct cache lines.
    alignas(64) uint64_t x = 0;
    alignas(64) uint64_t y = 0;
    alignas(64) uint64_t z = 0;
};

TEST_F(HtmFixture, ReadSeesInitialValue)
{
    x = 17;
    txa.begin();
    EXPECT_EQ(txa.read(&x), 17u);
    txa.commit();
}

TEST_F(HtmFixture, WriteInvisibleUntilCommit)
{
    txa.begin();
    txa.write(&x, 42);
    EXPECT_EQ(eng.directLoad(&x), 0u) << "buffered write leaked";
    txa.commit();
    EXPECT_EQ(eng.directLoad(&x), 42u);
}

TEST_F(HtmFixture, ReadYourOwnWrite)
{
    txa.begin();
    txa.write(&x, 7);
    EXPECT_EQ(txa.read(&x), 7u);
    txa.write(&x, 8);
    EXPECT_EQ(txa.read(&x), 8u);
    txa.commit();
    EXPECT_EQ(eng.directLoad(&x), 8u);
}

TEST_F(HtmFixture, DirectStoreAbortsReader)
{
    txa.begin();
    txa.read(&x);
    eng.directStore(&x, 1);
    EXPECT_THROW(txa.read(&y), HtmAbort);
    EXPECT_FALSE(txa.active());
    EXPECT_EQ(stats0.get(Counter::kHtmConflictAborts), 1u);
}

TEST_F(HtmFixture, DirectStoreAbortsReaderAtCommit)
{
    txa.begin();
    txa.read(&x);
    txa.write(&y, 5);
    eng.directStore(&x, 1);
    EXPECT_THROW(txa.commit(), HtmAbort);
    EXPECT_EQ(eng.directLoad(&y), 0u) << "aborted commit must not publish";
}

TEST_F(HtmFixture, CommittingWriterAbortsConcurrentReader)
{
    txa.begin();
    txa.read(&x);

    txb.begin();
    txb.write(&x, 9);
    txb.commit();

    EXPECT_THROW(txa.read(&y), HtmAbort);
}

TEST_F(HtmFixture, DisjointTransactionsBothCommit)
{
    txa.begin();
    txa.read(&x);
    txa.write(&x, 1);

    txb.begin();
    txb.read(&y);
    txb.write(&y, 2);

    txb.commit();
    txa.commit();
    EXPECT_EQ(eng.directLoad(&x), 1u);
    EXPECT_EQ(eng.directLoad(&y), 2u);
}

TEST_F(HtmFixture, UnrelatedDirectStoreDoesNotAbort)
{
    txa.begin();
    txa.read(&x);
    eng.directStore(&z, 3);
    EXPECT_EQ(txa.read(&y), 0u);
    txa.commit();
}

TEST_F(HtmFixture, AbortedTransactionCanRestart)
{
    txa.begin();
    txa.read(&x);
    eng.directStore(&x, 1);
    EXPECT_THROW(txa.read(&y), HtmAbort);
    txa.begin();
    EXPECT_EQ(txa.read(&x), 1u);
    txa.commit();
}

TEST_F(HtmFixture, ConflictAbortSetsRetryHint)
{
    txa.begin();
    txa.read(&x);
    eng.directStore(&x, 1);
    try {
        txa.read(&y);
        FAIL() << "expected abort";
    } catch (const HtmAbort &a) {
        EXPECT_EQ(a.cause, HtmAbortCause::kConflict);
        EXPECT_TRUE(a.retryOk);
    }
}

TEST_F(HtmFixture, ExplicitAbortCarriesCode)
{
    txa.begin();
    try {
        txa.abortExplicit(0xab);
        FAIL() << "expected abort";
    } catch (const HtmAbort &a) {
        EXPECT_EQ(a.cause, HtmAbortCause::kExplicit);
        EXPECT_EQ(a.code, 0xab);
    }
    EXPECT_EQ(stats0.get(Counter::kHtmExplicitAborts), 1u);
}

TEST_F(HtmFixture, SubscriptionIdiom)
{
    // Fast-path subscription: read a lock word at start; a later store
    // to it must doom the transaction before it can commit writes.
    uint64_t lock_word = 0;
    txa.begin();
    if (txa.read(&lock_word) != 0)
        FAIL() << "lock should start free";
    txa.write(&x, 77);
    eng.directStore(&lock_word, 1); // Slow path takes the lock.
    EXPECT_THROW(txa.commit(), HtmAbort);
    EXPECT_EQ(eng.directLoad(&x), 0u);
}

TEST_F(HtmFixture, ReadOnlyCommitAlwaysSucceedsWhenConsistent)
{
    txa.begin();
    txa.read(&x);
    txa.read(&y);
    txa.commit();
    SUCCEED();
}

TEST_F(HtmFixture, OpacityWithinBody)
{
    // Invariant: x == y at every commit point. A transaction that has
    // read x must never observe a y from a later snapshot.
    eng.directStore(&x, 10);
    eng.directStore(&y, 10);

    txa.begin();
    uint64_t saw_x = txa.read(&x);

    txb.begin();
    txb.write(&x, 11);
    txb.write(&y, 11);
    txb.commit();

    // txa is doomed; it must abort rather than return y == 11 while it
    // already returned x == 10.
    try {
        uint64_t saw_y = txa.read(&y);
        EXPECT_EQ(saw_x, saw_y) << "opacity violated";
        txa.commit();
    } catch (const HtmAbort &) {
        SUCCEED();
    }
}

TEST_F(HtmFixture, DirectCasSemantics)
{
    uint64_t expected = 0;
    EXPECT_TRUE(eng.directCas(&x, expected, 5));
    EXPECT_EQ(eng.directLoad(&x), 5u);
    expected = 0;
    EXPECT_FALSE(eng.directCas(&x, expected, 9));
    EXPECT_EQ(expected, 5u) << "failed CAS must report the observed value";
}

TEST_F(HtmFixture, DirectCasAbortsSubscribedTxn)
{
    txa.begin();
    txa.read(&x);
    uint64_t expected = 0;
    EXPECT_TRUE(eng.directCas(&x, expected, 5));
    EXPECT_THROW(txa.read(&y), HtmAbort);
}

TEST_F(HtmFixture, FailedCasDoesNotAbortReaders)
{
    eng.directStore(&x, 5);
    txa.begin();
    txa.read(&x);
    uint64_t expected = 0;
    EXPECT_FALSE(eng.directCas(&x, expected, 9));
    EXPECT_EQ(txa.read(&y), 0u) << "failed CAS wrote nothing";
    txa.commit();
}

TEST_F(HtmFixture, DirectFetchAddReturnsOld)
{
    eng.directStore(&x, 41);
    EXPECT_EQ(eng.directFetchAdd(&x, 1), 41u);
    EXPECT_EQ(eng.directLoad(&x), 42u);
}

TEST_F(HtmFixture, StatsCountReadWriteLines)
{
    txa.begin();
    txa.read(&x);
    txa.read(&x); // Same line: not counted twice.
    txa.read(&y);
    txa.write(&z, 1);
    EXPECT_EQ(txa.readLines(), 2u);
    EXPECT_EQ(txa.writeLines(), 1u);
    txa.commit();
}

TEST(HtmCapacityTest, WriteCapacityAbortIsNoRetry)
{
    HtmConfig cfg;
    cfg.writeCapacityLines = 4;
    HtmEngine eng(cfg);
    ThreadStats stats;
    HtmTxn tx(eng, 0, &stats);

    std::vector<uint64_t> arr(1024, 0);
    tx.begin();
    try {
        for (size_t i = 0; i < arr.size(); i += 8)
            tx.write(&arr[i], i);
        FAIL() << "expected capacity abort";
    } catch (const HtmAbort &a) {
        EXPECT_EQ(a.cause, HtmAbortCause::kCapacity);
        EXPECT_FALSE(a.retryOk);
    }
    EXPECT_EQ(stats.get(Counter::kHtmCapacityAborts), 1u);
}

TEST(HtmCapacityTest, ReadCapacityAbort)
{
    HtmConfig cfg;
    cfg.readCapacityLines = 4;
    HtmEngine eng(cfg);
    HtmTxn tx(eng, 0, nullptr);

    std::vector<uint64_t> arr(1024, 0);
    tx.begin();
    EXPECT_THROW(
        {
            for (size_t i = 0; i < arr.size(); i += 8)
                tx.read(&arr[i]);
        },
        HtmAbort);
}

TEST(HtmCapacityTest, HyperThreadScalingHalvesCapacity)
{
    HtmConfig cfg;
    cfg.writeCapacityLines = 8;
    cfg.capacityScale = 2;
    cfg.scaledThreadsFrom = 4;
    HtmEngine eng(cfg);

    std::vector<uint64_t> arr(1024, 0);

    auto lines_before_abort = [&](unsigned tid) {
        HtmTxn tx(eng, tid, nullptr);
        tx.begin();
        size_t n = 0;
        try {
            for (size_t i = 0; i < arr.size(); i += 8, ++n)
                tx.write(&arr[i], 1);
        } catch (const HtmAbort &) {
            return n;
        }
        tx.commit();
        return n;
    };

    EXPECT_EQ(lines_before_abort(0), 8u);
    EXPECT_EQ(lines_before_abort(4), 4u);
}

TEST(HtmCapacityTest, TablesHoldCapacitiesAboveTheirOldFixedSizes)
{
    // Tracking tables are bounded by the configured caps, so caps
    // above 12288 read lines / 3072 written lines are reachable.
    HtmConfig cfg;
    cfg.readCapacityLines = 16384;
    cfg.writeCapacityLines = 4096;
    HtmEngine eng(cfg);
    ThreadStats stats;
    HtmTxn tx(eng, 0, &stats);

    constexpr size_t kWordsPerLine = 8;
    std::vector<uint64_t> arr(16000 * kWordsPerLine, 0);
    tx.begin();
    for (size_t line = 0; line < 16000; ++line)
        tx.read(&arr[line * kWordsPerLine]);
    for (size_t line = 0; line < 4000; ++line)
        tx.write(&arr[line * kWordsPerLine + 1], line + 1);
    EXPECT_EQ(tx.readLines(), 16000u);
    EXPECT_EQ(tx.writeLines(), 4000u);
    tx.commit();
    EXPECT_EQ(stats.get(Counter::kHtmCapacityAborts), 0u);
    EXPECT_EQ(eng.directLoad(&arr[3999 * kWordsPerLine + 1]), 4000u);
}

TEST(HtmInjectionTest, ProbabilityOneAlwaysAborts)
{
    HtmConfig cfg;
    cfg.randomAbortProb = 1.0;
    HtmEngine eng(cfg);
    ThreadStats stats;
    HtmTxn tx(eng, 0, &stats);
    uint64_t w = 0;

    tx.begin();
    try {
        tx.read(&w);
        FAIL() << "expected injected abort";
    } catch (const HtmAbort &a) {
        EXPECT_EQ(a.cause, HtmAbortCause::kOther);
        EXPECT_FALSE(a.retryOk);
    }
}

TEST(HtmInjectionTest, ProbabilityZeroNeverAborts)
{
    HtmConfig cfg;
    cfg.randomAbortProb = 0.0;
    HtmEngine eng(cfg);
    HtmTxn tx(eng, 0, nullptr);
    uint64_t w = 0;
    for (int i = 0; i < 1000; ++i) {
        tx.begin();
        tx.read(&w);
        tx.write(&w, i);
        tx.commit();
    }
    EXPECT_EQ(eng.directLoad(&w), 999u);
}

} // namespace
} // namespace rhtm
