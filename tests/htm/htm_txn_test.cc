/**
 * @file
 * Unit tests for the simulated best-effort HTM.
 *
 * Cross-transaction interleavings are driven deterministically by using
 * two HtmTxn objects from one thread; the engine only cares about the
 * order of API calls, so these tests pin down exact conflict semantics.
 * The HtmStripeLockTest cases use real threads: they hold a commit in
 * its publication window with a delay fault and check what other
 * threads may do meanwhile.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstdint>
#include <thread>
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

TEST_F(HtmFixture, FailedDirectCasLeavesStripeVersionUnchanged)
{
    eng.directStore(&x, 5);
    const size_t stripe = eng.stripeOf(&x);
    const uint64_t ver = eng.stripeVersion(stripe);
    const uint64_t seq = eng.seq();
    uint64_t expected = 0;
    EXPECT_FALSE(eng.directCas(&x, expected, 9));
    EXPECT_EQ(eng.stripeVersion(stripe), ver) << "failed CAS bumped";
    EXPECT_EQ(eng.seq(), seq) << "failed CAS announced a publication";
    EXPECT_TRUE(eng.directCas(&x, expected, 9));
    EXPECT_EQ(eng.stripeVersion(stripe), ver + 2);
}

/** A word alone in its cache line. */
struct alignas(64) PaddedWord
{
    uint64_t value = 0;
};

/** Spins long enough (~0.1 s) to outlast a read and a direct load. */
constexpr uint32_t kLongDelaySpins = 1u << 28;

/** A plan that delays every commit inside its publication window. */
FaultPlan
publishDelayPlan(uint32_t spins)
{
    FaultRule r;
    r.site = FaultSite::kPublishWindow;
    r.kind = FaultKind::kDelay;
    r.period = 1;
    r.delaySpins = spins;
    FaultPlan plan;
    plan.add(r);
    return plan;
}

/** Spin until a writer first locks @p eng's (fresh) stripe @p stripe. */
void
waitForWriter(const HtmEngine &eng, size_t stripe)
{
    while (eng.stripeVersion(stripe) == 0)
        std::this_thread::yield();
}

/**
 * One run of ParkedCommitterDoesNotBlockOtherLines: a committer parks
 * in its publication window for @p spins while this thread reads
 * another line. Returns true once this thread finished while the
 * committer still held its stripe; false when the window had closed
 * first (a reader that waited for it, or this thread descheduled for
 * the whole window).
 */
bool
readWhileCommitterParked(uint32_t spins)
{
    HtmEngine eng;
    PaddedWord words[3];
    uint64_t *x = &words[0].value;
    // A line whose stripe differs from x's (stripes are hashed).
    uint64_t *y = eng.stripeOf(&words[1]) != eng.stripeOf(x)
        ? &words[1].value
        : &words[2].value;
    EXPECT_NE(eng.stripeOf(x), eng.stripeOf(y));
    *y = 7;

    FaultInjector fault(publishDelayPlan(spins), 0);
    HtmTxn writer(eng, 0, nullptr, 1, &fault);
    std::thread committer([&] {
        writer.begin();
        writer.write(x, 1);
        writer.commit();
    });
    const size_t sx = eng.stripeOf(x);
    waitForWriter(eng, sx);
    const uint64_t held = eng.stripeVersion(sx);

    HtmTxn reader(eng, 1, nullptr);
    reader.begin();
    EXPECT_EQ(reader.read(y), 7u);
    reader.commit();
    EXPECT_EQ(eng.directLoad(y), 7u);
    const bool parked = (held & 1) && eng.stripeVersion(sx) == held;

    committer.join();
    EXPECT_EQ(eng.stripeVersion(sx), 2u); // One commit, published.
    EXPECT_EQ(eng.directLoad(x), 1u);
    return parked;
}

TEST(HtmStripeLockTest, ParkedCommitterDoesNotBlockOtherLines)
{
    // A reader that waited for the unrelated commit finishes only
    // after the window closes, every time; a loaded host may close it
    // early now and then, so a longer window gets another try.
    bool parked = false;
    for (int attempt = 0; attempt < 4 && !parked; ++attempt)
        parked = readWhileCommitterParked(kLongDelaySpins << attempt);
    EXPECT_TRUE(parked)
        << "the reader waited for an unrelated commit to finish";
}

TEST(HtmStripeLockTest, ReaderOfHeldStripeSeesWholeOldOrWholeNewState)
{
    HtmEngine eng;
    PaddedWord words[2];
    uint64_t *x = &words[0].value;
    uint64_t *y = &words[1].value;
    constexpr uint64_t kCommits = 2000;

    // Every commit writes x == y == i and lingers in its publication
    // window; the first one lingers long enough to be caught there.
    FaultPlan plan = publishDelayPlan(2000);
    FaultRule first = plan.rules[0];
    first.period = 0;
    first.delaySpins = 1u << 26;
    plan.rules.insert(plan.rules.begin(), first);
    FaultInjector fault(plan, 0);
    HtmTxn writer(eng, 0, nullptr, 1, &fault);
    std::thread committer([&] {
        for (uint64_t i = 1; i <= kCommits; ++i) {
            writer.begin();
            writer.write(x, i);
            writer.write(y, i);
            writer.commit();
        }
    });

    HtmTxn reader(eng, 1, nullptr);
    waitForWriter(eng, eng.stripeOf(x));
    uint64_t last = 0;
    while (last < kCommits) {
        try {
            reader.begin();
            const uint64_t a = reader.read(x);
            const uint64_t b = reader.read(y);
            reader.commit();
            ASSERT_EQ(a, b) << "transaction saw a half-published commit";
            ASSERT_GE(a, last);
            last = a;
        } catch (const HtmAbort &) {
            // A later commit doomed the snapshot: retry.
        }
        // Non-transactional loads in order: a new x implies its y.
        const uint64_t a = eng.directLoad(x);
        const uint64_t b = eng.directLoad(y);
        ASSERT_GE(b, a) << "direct loads saw a half-published commit";
    }
    committer.join();
}

TEST(HtmStripeLockTest, OverlappingCommittersDoNotDeadlock)
{
    HtmEngine eng;
    PaddedWord words[2];
    uint64_t *x = &words[0].value;
    uint64_t *y = &words[1].value;
    constexpr int kRounds = 200;
    std::barrier sync(2);
    std::atomic<int> published{0};

    // Both transactions read x and y, then write them in opposite
    // orders; each commit lingers while it holds its stripes.
    auto run = [&](unsigned tid) {
        FaultInjector fault(publishDelayPlan(1u << 14), tid);
        HtmTxn tx(eng, tid, nullptr, 1, &fault);
        for (int round = 0; round < kRounds; ++round) {
            tx.begin();
            const uint64_t vx = tx.read(x);
            const uint64_t vy = tx.read(y);
            sync.arrive_and_wait(); // Both have read before either commits.
            uint64_t *first = tid == 0 ? x : y;
            uint64_t *second = tid == 0 ? y : x;
            tx.write(first, vx + 1);
            tx.write(second, vy + 1);
            try {
                tx.commit();
                published.fetch_add(1);
            } catch (const HtmAbort &a) {
                EXPECT_EQ(a.cause, HtmAbortCause::kConflict);
            }
            sync.arrive_and_wait(); // The round is over for both.
        }
    };
    std::thread t0(run, 0);
    std::thread t1(run, 1);
    t0.join();
    t1.join();

    // At most one publication per round: each round raises x and y by
    // exactly the number of commits that got through.
    const uint64_t fx = eng.directLoad(x);
    EXPECT_EQ(fx, eng.directLoad(y));
    EXPECT_EQ(fx, static_cast<uint64_t>(published.load()));
    EXPECT_LE(published.load(), kRounds);
}

TEST(HtmStripeLockTest, CommitAbortsOnAReadStripeAnotherWriterHolds)
{
    // Write skew: both transactions read x and y, and each writes the
    // other's line. The second committer finds the line it read locked
    // by the first, at the version it read; only its own locks may
    // pass validation that way.
    HtmEngine eng;
    PaddedWord words[3];
    uint64_t *x = &words[0].value;
    uint64_t *y = eng.stripeOf(&words[1]) != eng.stripeOf(x)
        ? &words[1].value
        : &words[2].value;
    ASSERT_NE(eng.stripeOf(x), eng.stripeOf(y));

    HtmTxn tx0(eng, 0, nullptr);
    tx0.begin();
    EXPECT_EQ(tx0.read(x) + tx0.read(y), 0u);

    FaultInjector fault(publishDelayPlan(kLongDelaySpins), 1);
    HtmTxn tx1(eng, 1, nullptr, 1, &fault);
    std::thread committer([&] {
        tx1.begin();
        if (tx1.read(x) + tx1.read(y) == 0)
            tx1.write(y, 1);
        tx1.commit();
    });
    waitForWriter(eng, eng.stripeOf(y));
    tx0.write(x, 1);
    try {
        tx0.commit();
        ADD_FAILURE() << "both halves of a write skew committed";
    } catch (const HtmAbort &a) {
        EXPECT_EQ(a.cause, HtmAbortCause::kConflict);
    }
    committer.join();
    EXPECT_EQ(eng.directLoad(x), 0u);
    EXPECT_EQ(eng.directLoad(y), 1u);
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
