/**
 * @file
 * The paper benchmark program (perfbench/NOTES.md).
 *
 * One process runs one workload for three algorithms -- rh-norec (the
 * paper's), hy-norec (its baseline) and norec (the all-software
 * control) -- each on its own runtime and its own populated structure.
 * Two closed-loop worker threads serve the algorithms in short timed
 * slots; every round gives each algorithm one slot and rotates which
 * one goes first, so host speed drift lands on all three alike. Each
 * round also moves the workers to another pair of CPUs. The run is cut
 * into epochs; each starts from a fresh build of all three structures,
 * timed on another CPU, after the previous build passed its output
 * checks. A run so averages over every vCPU and several heap layouts.
 * Latencies and counters pool all of an algorithm's slots; throughput
 * is the median of its slot rates. End-to-end times are scaled to the
 * host's usual speed by a library-independent probe (HostProbe).
 *
 *   paperbench --workload rbtree-read|rbtree-write|store-oltp
 *              --seed N --seconds S --trace 0|1 [--spans FILE]
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 alternates traced
 * and untraced rounds and prints the per-layer metrics, measured only
 * at the library's public boundaries: TmRuntime::run, the transaction
 * body, the ShardedStore calls, and ThreadCtx/StatsSummary counters.
 * The last stdout line is one JSON object; the process exits nonzero
 * when an output check fails.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#include <vector>

#include "src/api/runtime.h"
#include "src/store/sharded_store.h"
#include "src/structures/tx_rbtree.h"
#include "src/util/barrier.h"
#include "src/util/rng.h"
#include "src/util/zipf.h"

namespace
{

using namespace rhtm;
using Clock = std::chrono::steady_clock;

constexpr unsigned kWorkers = 2;    // Half of the 4-vCPU reference host.
constexpr unsigned kSetupReps = 15; // setup_s is the median of these.
constexpr double kSlotSeconds = 0.25;

constexpr unsigned kNumAlgos = 3;
constexpr AlgoKind kAlgos[kNumAlgos] = {
    AlgoKind::kRhNOrec, AlgoKind::kHybridNOrec, AlgoKind::kNOrec};

// Figure 4 red-black tree: 10,000 nodes over a 2x key range.
constexpr uint64_t kTreeSize = 10000;
constexpr uint64_t kTreeRange = 2 * kTreeSize;

// OLTP store: 4 shards, 8,192 Zipf(0.8) keys, 50/25/10/15 mix.
constexpr unsigned kShards = 4;
constexpr uint64_t kStoreKeys = 8192;
constexpr double kZipfTheta = 0.8;
constexpr uint64_t kSeedValue = 1000;
constexpr unsigned kRmwKeys = 3;
constexpr uint64_t kRmwStride = 8; // Keys k % 8 == 0: multiRmw only.
constexpr uint64_t kScanWidth = 64;
constexpr size_t kScanLimit = 32;
constexpr auto kDeadline = std::chrono::milliseconds(100);

enum OpClass : unsigned { kGet, kPut, kScan, kRmw, kNumClasses };
const char *const kClassName[kNumClasses] = {"get", "put", "scan", "rmw"};

// Spans of every kSpanEvery-th op are kept, up to kSpanCap per worker.
constexpr uint64_t kSpanEvery = 64;
constexpr size_t kSpanCap = size_t(1) << 16;

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

uint64_t
mixSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 31)) * 0x94d049bb133111ebull;
    return z ^ (z >> 29);
}

/**
 * Log-linear latency histogram: exact below 128 ns, then 128 linear
 * buckets per power of two, so no bucket is wider than 0.8% of its
 * values. Percentiles report the bucket midpoint.
 */
class FineHistogram
{
  public:
    void
    record(uint64_t ns)
    {
        ++count_;
        ++buckets_[indexOf(ns)];
    }

    void
    merge(const FineHistogram &other)
    {
        count_ += other.count_;
        for (unsigned i = 0; i < kBuckets; ++i)
            buckets_[i] += other.buckets_[i];
    }

    uint64_t count() const { return count_; }

    /** Value in ns at percentile @p pct in (0, 100]; 0 when empty. */
    double
    percentileNs(double pct) const
    {
        if (count_ == 0)
            return 0.0;
        double want = pct / 100.0 * static_cast<double>(count_);
        uint64_t rank = std::max<uint64_t>(1, static_cast<uint64_t>(want));
        if (static_cast<double>(rank) < want)
            ++rank;
        uint64_t seen = 0;
        for (unsigned i = 0; i < kBuckets; ++i) {
            seen += buckets_[i];
            if (seen >= rank)
                return midpointOf(i);
        }
        return midpointOf(kBuckets - 1);
    }

  private:
    static constexpr unsigned kSubBits = 7;
    static constexpr uint64_t kSub = uint64_t(1) << kSubBits;
    static constexpr unsigned kMaxOctave = 40; // ~18 minutes.
    static constexpr unsigned kBuckets =
        kSub + (kMaxOctave - kSubBits + 1) * kSub;

    static unsigned
    indexOf(uint64_t v)
    {
        if (v < kSub)
            return static_cast<unsigned>(v);
        unsigned octave = 63 - static_cast<unsigned>(__builtin_clzll(v));
        if (octave > kMaxOctave)
            return kBuckets - 1;
        unsigned shift = octave - kSubBits;
        return static_cast<unsigned>(kSub + shift * kSub +
                                     ((v >> shift) - kSub));
    }

    static double
    midpointOf(unsigned i)
    {
        if (i < kSub)
            return i;
        unsigned shift = static_cast<unsigned>(i / kSub - 1);
        uint64_t low = (kSub + i % kSub) << shift;
        return static_cast<double>(low) +
               static_cast<double>(uint64_t(1) << shift) / 2.0;
    }

    uint64_t count_ = 0;
    std::array<uint64_t, kBuckets> buckets_{};
};

/** One recorded span: an op, or one invocation of its body. */
struct Span
{
    uint64_t seq;     //!< Op sequence number within (worker, algo).
    int64_t startNs;
    int64_t endNs;
    uint16_t algo;
    uint16_t attempt; //!< 0 for the op span, k for the k-th body call.
    uint16_t path;    //!< Op spans: 0 fast, 1 fallback, 2 other.
};

/**
 * What one worker measured for one algorithm. side[0] holds untraced
 * slots, side[1] traced ones; the remaining fields are traced only.
 */
struct Tally
{
    struct Side
    {
        uint64_t attempted = 0;
        uint64_t committed = 0;
        uint64_t failed = 0;
        FineHistogram op;
    } side[2];

    uint64_t seq = 0;
    uint64_t attempts = 0;       // Body invocations.
    uint64_t opNs = 0;           // Sum of op span durations.
    uint64_t wastedNs = 0;       // Op time outside the committed body.
    uint64_t fastNs = 0;         // Body time of first-try fast ops ...
    uint64_t fastAccesses = 0;   // ... and their fast reads+writes.
    uint64_t slowNs = 0;         // Body time of one-try software
    uint64_t slowAccesses = 0;   // commits, and their slow accesses.
    uint64_t firstTryOps = 0;    // Ops that committed on the first
    uint64_t firstTryAccesses = 0; // attempt, and their accesses.
    FineHistogram overhead;      // Op self time, first-attempt ops.
    FineHistogram fastOp;        // Ops committed on the fast path.
    FineHistogram fallbackOp;    // Ops that fell back.
    FineHistogram cls[kNumClasses];
};

/**
 * Per-worker fixed span buffer, written out when the run ends. It is
 * allocated and zeroed before the timed rounds, so filling it does not
 * show up as RSS growth.
 */
class SpanBuffer
{
  public:
    void allocate() { spans_.assign(kSpanCap, Span{}); }

    void
    push(const Span &s)
    {
        if (used_ < spans_.size())
            spans_[used_++] = s;
    }

    const Span *begin() const { return spans_.data(); }
    const Span *end() const { return spans_.data() + used_; }

  private:
    std::vector<Span> spans_;
    size_t used_ = 0;
};

RuntimeConfig
runtimeConfig(uint64_t seed)
{
    // The calibration of bench/harness.cc: interrupt-style aborts,
    // HT capacity halving from thread 8, and the default 64-cycle
    // software access penalty.
    RuntimeConfig cfg;
    cfg.rngSeed = seed;
    cfg.htm.randomAbortProb = 5e-4;
    cfg.htm.scaledThreadsFrom = 8;
    cfg.htm.capacityScale = 2;
    return cfg;
}

uint64_t
fastAccesses(const ThreadStats &st)
{
    return st.get(Counter::kFastPathReads) + st.get(Counter::kFastPathWrites);
}

uint64_t
slowAccesses(const ThreadStats &st)
{
    return st.get(Counter::kSlowPathReads) + st.get(Counter::kSlowPathWrites);
}

/**
 * Spans and counter deltas of one traced TmRuntime::run call. The
 * body wrapper opens an attempt per invocation; the attempt closes on
 * return or when an abort unwinds through it. The library flushes its
 * access counts once per transaction, so accesses are op deltas and
 * are attributed to one attempt only where the op has just one
 * attempt of that kind.
 */
class OpTrace
{
  public:
    OpTrace(const ThreadStats &st, Tally &t, SpanBuffer &spans,
            uint16_t algo)
        : st_(st), t_(t), spans_(spans), algo_(algo),
          seq_(t.seq++), sampled_(seq_ % kSpanEvery == 0),
          fastCommits0_(st.get(Counter::kCommitsFastPath)),
          fallbacks0_(st.get(Counter::kFallbacks)),
          restarts0_(st.get(Counter::kSlowPathRestarts)),
          fast0_(fastAccesses(st)), slow0_(slowAccesses(st))
    {}

    class Attempt
    {
      public:
        explicit Attempt(OpTrace &op) : op_(op), start_(nowNs())
        {
            ++op_.attempts_;
        }

        ~Attempt()
        {
            int64_t end = nowNs();
            op_.lastNs_ = static_cast<uint64_t>(end - start_);
            if (op_.sampled_)
                op_.spans_.push({op_.seq_, start_, end, op_.algo_,
                                 static_cast<uint16_t>(op_.attempts_), 0});
        }

        Attempt(const Attempt &) = delete;
        Attempt &operator=(const Attempt &) = delete;

      private:
        OpTrace &op_;
        int64_t start_;
    };

    void
    finish(int64_t start, int64_t end)
    {
        uint64_t dur = static_cast<uint64_t>(end - start);
        bool fast = st_.get(Counter::kCommitsFastPath) != fastCommits0_;
        bool fellBack = st_.get(Counter::kFallbacks) != fallbacks0_;
        bool restarted = st_.get(Counter::kSlowPathRestarts) != restarts0_;
        uint64_t fastAcc = fastAccesses(st_) - fast0_;
        uint64_t slowAcc = slowAccesses(st_) - slow0_;
        uint64_t self = dur - std::min(dur, lastNs_);
        Tally::Side &side = t_.side[1];
        ++side.attempted;
        ++side.committed;
        side.op.record(dur);
        t_.attempts += attempts_;
        t_.opNs += dur;
        t_.wastedNs += self;
        if (attempts_ == 1) {
            t_.overhead.record(self);
            t_.firstTryOps += 1;
            t_.firstTryAccesses += fastAcc + slowAcc;
            if (fast) {
                t_.fastNs += lastNs_;
                t_.fastAccesses += fastAcc;
            }
        }
        // One software attempt (no slow-path restart) that committed
        // off the fast path: its body time over its slow accesses.
        if (!fast && !restarted && slowAcc > 0) {
            t_.slowNs += lastNs_;
            t_.slowAccesses += slowAcc;
        }
        if (fast)
            t_.fastOp.record(dur);
        if (fellBack)
            t_.fallbackOp.record(dur);
        if (sampled_)
            spans_.push({seq_, start, end, algo_, 0,
                         static_cast<uint16_t>(fast ? 0 : fellBack ? 1 : 2)});
    }

  private:
    const ThreadStats &st_;
    Tally &t_;
    SpanBuffer &spans_;
    uint16_t algo_;
    uint64_t seq_;
    bool sampled_;
    uint64_t fastCommits0_;
    uint64_t fallbacks0_;
    uint64_t restarts0_;
    uint64_t fast0_;
    uint64_t slow0_;
    unsigned attempts_ = 0;
    uint64_t lastNs_ = 0;
};

/** Where a worker records the op it is about to run. */
struct Recorder
{
    Tally &tally;
    SpanBuffer &spans;
    uint16_t algo;
    bool traced;
    double speed; //!< Untraced latencies are scaled by this (HostProbe).
};

/** One algorithm's populated structure plus per-worker op streams. */
class Instance
{
  public:
    virtual ~Instance() = default;

    /** Register worker @p w; called on that worker's thread. */
    virtual void attach(unsigned w, uint64_t seed) = 0;

    /** Run one op as worker @p w. */
    virtual void op(unsigned w, Recorder &rec) = 0;

    /** Counter totals; workers must be quiescent. */
    virtual StatsSummary stats() const = 0;

    /** Check the structure after the run; quiescent use only. */
    virtual bool check(std::string &why) = 0;
};

/** The Figure 4 red-black tree at one mutation percentage. */
class TreeInstance final : public Instance
{
  public:
    TreeInstance(AlgoKind kind, unsigned mutationPct, uint64_t seed)
        : rt_(kind, runtimeConfig(seed)), mutationPct_(mutationPct)
    {
        ThreadCtx &ctx = rt_.registerThread();
        for (uint64_t k = 0; k < kTreeRange; k += 2) {
            rt_.run(ctx, [&](Txn &tx) {
                tree_.put(tx, static_cast<int64_t>(k),
                          static_cast<int64_t>(k));
            });
        }
    }

    void
    attach(unsigned w, uint64_t seed) override
    {
        Worker &me = workers_[w];
        me.ctx = &rt_.registerThread();
        me.rng = Rng(mixSeed(seed, w + 1));
    }

    void
    op(unsigned w, Recorder &rec) override
    {
        Worker &me = workers_[w];
        int64_t key = static_cast<int64_t>(me.rng.nextBounded(kTreeRange));
        if (me.rng.nextPercent(mutationPct_)) {
            if (me.rng.nextPercent(50)) {
                bool inserted = false;
                run(me, rec, TxnHint::kNone, [&](Txn &tx) {
                    inserted = tree_.put(tx, key, key);
                });
                me.inserted += inserted;
            } else {
                bool removed = false;
                run(me, rec, TxnHint::kNone, [&](Txn &tx) {
                    removed = tree_.remove(tx, key);
                });
                me.removed += removed;
            }
        } else {
            bool found = false;
            int64_t value = 0;
            run(me, rec, TxnHint::kReadOnly, [&](Txn &tx) {
                found = tree_.get(tx, key, value);
            });
            me.badReads += found && value != key;
        }
    }

    StatsSummary stats() const override { return rt_.stats(); }

    bool
    check(std::string &why) override
    {
        if (!tree_.validateStructure(&why))
            return false;
        uint64_t inserted = 0, removed = 0, badReads = 0;
        for (const Worker &w : workers_) {
            inserted += w.inserted;
            removed += w.removed;
            badReads += w.badReads;
        }
        uint64_t size = tree_.sizeUnsync();
        // Puts and removes are drawn uniformly over a 2x key range,
        // so the size reverts to kTreeSize; 10% is many standard
        // deviations of that walk.
        if (size != kTreeSize + inserted - removed ||
            size < kTreeSize * 9 / 10 || size > kTreeSize * 11 / 10) {
            why = "tree size " + std::to_string(size) + " != " +
                  std::to_string(kTreeSize) + " + " +
                  std::to_string(inserted) + " inserted - " +
                  std::to_string(removed) + " removed, or outside +-10%";
            return false;
        }
        if (badReads != 0) {
            why = std::to_string(badReads) + " lookups read a wrong value";
            return false;
        }
        return true;
    }

  private:
    struct alignas(64) Worker
    {
        ThreadCtx *ctx = nullptr;
        Rng rng;
        uint64_t inserted = 0;
        uint64_t removed = 0;
        uint64_t badReads = 0;
    };

    template <typename Body>
    void
    run(Worker &me, Recorder &rec, TxnHint hint, Body &&body)
    {
        ThreadCtx &ctx = *me.ctx;
        if (!rec.traced) {
            int64_t start = nowNs();
            rt_.run(ctx, body, hint);
            Tally::Side &side = rec.tally.side[0];
            side.op.record(static_cast<uint64_t>(
                static_cast<double>(nowNs() - start) * rec.speed));
            ++side.attempted;
            ++side.committed;
            return;
        }
        OpTrace trace(ctx.stats(), rec.tally, rec.spans, rec.algo);
        int64_t start = nowNs();
        rt_.run(ctx,
                [&](Txn &tx) {
                    OpTrace::Attempt attempt(trace);
                    body(tx);
                },
                hint);
        trace.finish(start, nowNs());
    }

    TmRuntime rt_;
    TxRbTree tree_;
    unsigned mutationPct_;
    std::array<Worker, kWorkers> workers_;
};

/** ShardedStore under the mixed OLTP load. */
class StoreInstance final : public Instance
{
  public:
    StoreInstance(AlgoKind kind, uint64_t seed)
        : store_(storeConfig(kind, seed)), seeder_(store_.registerWorker())
    {
        store_.seed(seeder_, kStoreKeys, kSeedValue);
    }

    void
    attach(unsigned w, uint64_t seed) override
    {
        Worker &me = workers_[w];
        me.sw = &store_.registerWorker();
        me.rng = Rng(mixSeed(seed, w + 1));
        me.zipf = std::make_unique<ZipfGenerator>(
            kStoreKeys, kZipfTheta, mixSeed(seed, w + 101));
        me.rmwKeys.resize(kRmwKeys);
        me.scanOut.reserve(kScanLimit);
    }

    void
    op(unsigned w, Recorder &rec) override
    {
        Worker &me = workers_[w];
        StoreOpts opts;
        opts.deadline = kDeadline;
        unsigned draw = static_cast<unsigned>(me.rng.nextBounded(100));
        OpClass cls = draw < 50 ? kGet : draw < 75 ? kPut
                    : draw < 85 ? kScan : kRmw;
        uint64_t key = me.zipf->next();
        TxnOutcome out = TxnOutcome::kCommitted;
        int64_t start = nowNs();
        switch (cls) {
        case kGet: {
            uint64_t value = 0;
            bool found = false;
            out = store_.get(*me.sw, key, value, found, opts);
            me.badReads += out == TxnOutcome::kCommitted && !found;
            break;
        }
        case kPut:
            if (key % kRmwStride == 0)
                ++key; // The multiRmw-only keys never see a put.
            out = store_.put(*me.sw, key, me.rng.next() >> 1, opts);
            break;
        case kScan: {
            unsigned shard =
                static_cast<unsigned>(me.rng.nextBounded(kShards));
            uint64_t hi = std::min(key + kScanWidth - 1, kStoreKeys - 1);
            out = store_.scan(*me.sw, shard, key, hi, kScanLimit,
                              me.scanOut, opts);
            break;
        }
        default:
            me.rmwKeys[0] = key - key % kRmwStride;
            for (unsigned k = 1; k < kRmwKeys; ++k) {
                uint64_t other = me.zipf->next();
                me.rmwKeys[k] = other - other % kRmwStride;
            }
            out = store_.multiRmw(*me.sw, me.rmwKeys, 1, opts);
            me.rmwCommitted += out == TxnOutcome::kCommitted;
            break;
        }
        int64_t end = nowNs();
        uint64_t dur = static_cast<uint64_t>(end - start);
        bool ok = out == TxnOutcome::kCommitted;
        Tally::Side &side = rec.tally.side[rec.traced];
        side.op.record(rec.traced ? dur
                                  : static_cast<uint64_t>(
                                        static_cast<double>(dur) * rec.speed));
        ++side.attempted;
        side.committed += ok;
        side.failed += !ok;
        if (rec.traced) {
            Tally &t = rec.tally;
            t.cls[cls].record(dur);
            uint64_t seq = t.seq++;
            if (seq % kSpanEvery == 0)
                rec.spans.push({seq, start, end, rec.algo, 0, 2});
        }
    }

    StatsSummary stats() const override { return store_.stats(); }

    bool
    check(std::string &why) override
    {
        uint64_t badReads = 0, rmwCommitted = 0;
        for (const Worker &w : workers_) {
            badReads += w.badReads;
            rmwCommitted += w.rmwCommitted;
        }
        if (badReads != 0) {
            why = std::to_string(badReads) + " gets missed a seeded key";
            return false;
        }
        std::vector<uint64_t> byGet(kStoreKeys);
        uint64_t rmwSum = 0, rmwSetSize = 0;
        for (uint64_t k = 0; k < kStoreKeys; ++k) {
            bool found = false;
            if (store_.get(seeder_, k, byGet[k], found) !=
                    TxnOutcome::kCommitted || !found) {
                why = "get misses key " + std::to_string(k);
                return false;
            }
            if (k % kRmwStride == 0) {
                rmwSum += byGet[k];
                ++rmwSetSize;
            }
        }
        uint64_t want = rmwSetSize * kSeedValue + kRmwKeys * rmwCommitted;
        if (rmwSum != want) {
            why = "multiRmw key sum " + std::to_string(rmwSum) +
                  " != " + std::to_string(want);
            return false;
        }
        std::vector<bool> scanned(kStoreKeys, false);
        std::vector<std::pair<uint64_t, uint64_t>> out;
        for (unsigned s = 0; s < kShards; ++s) {
            out.clear();
            if (store_.scan(seeder_, s, 0, kStoreKeys - 1, 0, out) !=
                TxnOutcome::kCommitted) {
                why = "scan of shard " + std::to_string(s) + " failed";
                return false;
            }
            for (const auto &[k, v] : out) {
                if (k >= kStoreKeys || scanned[k] ||
                    store_.shardOf(k) != s || v != byGet[k]) {
                    why = "scan of shard " + std::to_string(s) +
                          " disagrees with get at key " + std::to_string(k);
                    return false;
                }
                scanned[k] = true;
            }
        }
        uint64_t missing = static_cast<uint64_t>(
            std::count(scanned.begin(), scanned.end(), false));
        if (missing != 0) {
            why = std::to_string(missing) + " keys missing from the scans";
            return false;
        }
        return true;
    }

  private:
    struct alignas(64) Worker
    {
        StoreWorker *sw = nullptr;
        Rng rng;
        std::unique_ptr<ZipfGenerator> zipf;
        std::vector<uint64_t> rmwKeys;
        std::vector<std::pair<uint64_t, uint64_t>> scanOut;
        uint64_t badReads = 0;
        uint64_t rmwCommitted = 0;
    };

    static StoreConfig
    storeConfig(AlgoKind kind, uint64_t seed)
    {
        StoreConfig sc;
        sc.shards = kShards;
        sc.kind = kind;
        sc.runtime = runtimeConfig(seed);
        return sc;
    }

    ShardedStore store_;
    StoreWorker &seeder_;
    std::array<Worker, kWorkers> workers_;
};

struct Workload
{
    const char *name;
    bool store;
    unsigned mutationPct;
};

const Workload kWorkloads[] = {
    {"rbtree-read", false, 4},
    {"rbtree-write", false, 40},
    {"store-oltp", true, 0},
};

std::unique_ptr<Instance>
makeInstance(const Workload &wl, AlgoKind kind, uint64_t seed)
{
    if (wl.store)
        return std::make_unique<StoreInstance>(kind, seed);
    return std::make_unique<TreeInstance>(kind, wl.mutationPct, seed);
}

/**
 * Host speed probe. On a shared virtual host the same code runs 20-40%
 * slower for minutes at a time, on one vCPU or all of them, as
 * neighbours come and go. The probe times a fixed job that does not
 * touch the library: build a std::map of kProbeKeys keys, look each up,
 * and free it, which is the pointer chasing and allocation the
 * workloads do. speed() is kProbeNominalS over that time: about 1 at
 * the reference host's usual speed (a 4-vCPU KVM guest on an Intel
 * Xeon), below 1 when the host is slow. Each worker probes its CPU at
 * the start of every slot, and set-up probes its CPU before each build.
 * The end-to-end times are scaled by that speed, so they read as if the
 * host ran at its usual speed; the per-layer metrics stay raw.
 */
class HostProbe
{
  public:
    static constexpr unsigned kProbeKeys = 2000;
    static constexpr double kProbeNominalS = 650e-6;

    static double
    speed()
    {
        auto t0 = Clock::now();
        std::map<uint64_t, uint64_t> m;
        uint64_t key = 0;
        for (unsigned i = 0; i < kProbeKeys; ++i)
            m.emplace(key = mixSeed(key, i), i);
        uint64_t sum = 0;
        key = 0;
        for (unsigned i = 0; i < kProbeKeys; ++i)
            sum += m.find(key = mixSeed(key, i))->second;
        m.clear();
        sink_.fetch_add(sum, std::memory_order_relaxed);
        return kProbeNominalS /
               std::chrono::duration<double>(Clock::now() - t0).count();
    }

  private:
    static inline std::atomic<uint64_t> sink_{0}; // Keeps the job alive.
};

/** The CPUs this process may run on, in ascending order. */
std::vector<int>
allowedCpus()
{
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    return cpus;
}

/**
 * Restrict the calling thread to @p cpus. A failure only costs the
 * rotation's averaging, so it is ignored.
 */
void
pinTo(const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/**
 * Where the workers run in each round: every pair of allowed CPUs in
 * turn. On a shared virtual host each vCPU is fast or slow for seconds
 * at a time, and the cost of the workers' shared cache lines depends on
 * which two cores hold them; cycling through all pairs averages both
 * over the run instead of keeping whatever the scheduler chose first.
 * Empty when fewer than kWorkers CPUs are allowed.
 */
std::vector<std::array<int, kWorkers>>
workerPlacements(const std::vector<int> &cpus)
{
    static_assert(kWorkers == 2, "placements are CPU pairs");
    std::vector<std::array<int, kWorkers>> out;
    for (size_t i = 0; i < cpus.size(); ++i)
        for (size_t j = i + 1; j < cpus.size(); ++j)
            out.push_back({cpus[i], cpus[j]});
    return out;
}

/** Resident set size now, in MB (/proc/self/statm). */
double
rssMb()
{
    std::ifstream in("/proc/self/statm");
    uint64_t pages = 0, resident = 0;
    in >> pages >> resident;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/** Peak resident set size of the process, in MB (VmHWM). */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

StatsSummary
minus(const StatsSummary &a, const StatsSummary &b)
{
    StatsSummary d;
    for (unsigned i = 0; i < kNumCounters; ++i)
        d.totals[i] = a.totals[i] - b.totals[i];
    return d;
}

void
addInto(StatsSummary &acc, const StatsSummary &d)
{
    for (unsigned i = 0; i < kNumCounters; ++i)
        acc.totals[i] += d.totals[i];
}

double
ratio(double num, double den)
{
    return den == 0 ? 0.0 : num / den;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** What the main thread measured for one algorithm, per side. */
struct Window
{
    double seconds = 0;
    std::vector<double> slotRates; // Committed ops/s of each slot ...
    std::vector<double> scaledRates; // ... over the slot's host speed.
    std::vector<double> speeds;    // HostProbe::speed() of each slot.
    uint64_t committed = 0;        // Committed ops before the last slot.
    StatsSummary delta;            // Traced side only.
    double rssGrowthMb = 0;
};

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spansPath;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "paperbench: %s\nusage: paperbench --workload "
                 "rbtree-read|rbtree-write|store-oltp --seed N "
                 "--seconds S --trace 0|1 [--spans FILE]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i], value;
        size_t eq = flag.find('=');
        if (eq != std::string::npos) {
            value = flag.substr(eq + 1);
            flag.resize(eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            usage(("missing value for " + flag).c_str());
        }
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
            if (!(a.seconds > 0 && a.seconds <= 600))
                usage("--seconds must be in (0, 600]");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace must be 0 or 1");
            a.trace = value == "1";
        } else if (flag == "--spans") {
            a.spansPath = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("bad number for " + flag).c_str());
    }
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    const Workload *wl = nullptr;
    for (const Workload &w : kWorkloads)
        if (args.workload == w.name)
            wl = &w;
    if (wl == nullptr)
        usage(("unknown workload '" + args.workload + "'").c_str());

    // Set-up: build every algorithm's runtime and populated structure.
    // The run is split into kSetupReps epochs. Each epoch starts with
    // a fresh build, timed for setup_s; the build it replaces is checked
    // and destroyed first, so only one build is alive at a time. Build k
    // runs on the k-th allowed CPU, so the median sees every vCPU, and
    // the epochs average over as many heap layouts.
    const std::vector<int> cpus = allowedCpus();
    const auto placements = workerPlacements(cpus);
    std::vector<std::unique_ptr<Instance>> inst(kNumAlgos);
    std::vector<double> setupTimes, rawSetupTimes;
    bool correct = true;
    auto checkAll = [&] {
        for (unsigned a = 0; a < kNumAlgos; ++a) {
            std::string why;
            if (!inst[a]->check(why)) {
                correct = false;
                std::printf("# CHECK FAILED %s %s epoch %zu: %s\n",
                            wl->name, algoKindName(kAlgos[a]),
                            setupTimes.size(), why.c_str());
            }
        }
    };
    auto rebuild = [&] {
        if (inst[0] != nullptr) {
            checkAll();
            for (auto &p : inst)
                p.reset();
        }
        if (!cpus.empty())
            pinTo({cpus[setupTimes.size() % cpus.size()]});
        const double speed = HostProbe::speed();
        auto t0 = Clock::now();
        for (unsigned a = 0; a < kNumAlgos; ++a)
            inst[a] = makeInstance(*wl, kAlgos[a], args.seed);
        const double raw =
            std::chrono::duration<double>(Clock::now() - t0).count();
        rawSetupTimes.push_back(raw);
        setupTimes.push_back(raw * speed);
        pinTo(cpus);
    };
    rebuild();

    // Tallies: [worker][algo]; span buffers only when tracing.
    std::vector<std::unique_ptr<Tally>> tallies(kWorkers * kNumAlgos);
    for (auto &t : tallies)
        t = std::make_unique<Tally>();
    std::vector<SpanBuffer> spans(kWorkers);
    if (args.trace)
        for (SpanBuffer &b : spans)
            b.allocate();

    // Rounds: each gives every algorithm one slot (two when tracing:
    // traced and untraced), starting algorithm rotating per round.
    const unsigned slotsPerRound = kNumAlgos * (args.trace ? 2 : 1);
    const unsigned rounds = std::max<unsigned>(
        2, static_cast<unsigned>(args.seconds /
                                 (slotsPerRound * kSlotSeconds) + 0.5));
    const auto slot = std::chrono::duration<double>(
        args.seconds / (rounds * slotsPerRound));

    struct Phase
    {
        unsigned algo = 0;
        bool traced = false;
        unsigned round = 0;
        size_t epoch = 0; //!< Builds so far; workers attach to each.
    };
    Phase phase;
    std::array<double, kWorkers> slotSpeed{};
    bool quit = false;
    std::atomic<bool> stop{false};
    SenseBarrier startGate(kWorkers + 1), endGate(kWorkers + 1);

    std::vector<std::thread> pool;
    for (unsigned w = 0; w < kWorkers; ++w) {
        pool.emplace_back([&, w] {
            unsigned placedRound = ~0u;
            size_t attachedEpoch = 0;
            for (;;) {
                startGate.arriveAndWait();
                if (quit)
                    return;
                Phase p = phase;
                if (!placements.empty() && p.round != placedRound) {
                    pinTo({placements[p.round % placements.size()][w]});
                    placedRound = p.round;
                }
                if (p.epoch != attachedEpoch) {
                    for (unsigned a = 0; a < kNumAlgos; ++a)
                        inst[a]->attach(w, mixSeed(args.seed, p.epoch));
                    attachedEpoch = p.epoch;
                }
                slotSpeed[w] = HostProbe::speed();
                Recorder rec{*tallies[w * kNumAlgos + p.algo], spans[w],
                             static_cast<uint16_t>(p.algo), p.traced,
                             p.traced ? 1.0 : slotSpeed[w]};
                while (!stop.load(std::memory_order_relaxed))
                    inst[p.algo]->op(w, rec);
                endGate.arriveAndWait();
            }
        });
    }

    Window win[kNumAlgos][2];
    auto runSlot = [&](unsigned round, unsigned algo, bool traced,
                       Window *into) {
        phase = {algo, traced, round, setupTimes.size()};
        stop.store(false);
        StatsSummary before;
        double rss0 = 0;
        if (into != nullptr && traced) {
            before = inst[algo]->stats();
            rss0 = rssMb();
        }
        auto t0 = Clock::now();
        startGate.arriveAndWait();
        std::this_thread::sleep_for(slot);
        stop.store(true);
        endGate.arriveAndWait();
        auto t1 = Clock::now();
        if (into == nullptr)
            return;
        double seconds = std::chrono::duration<double>(t1 - t0).count();
        uint64_t committed = 0;
        for (unsigned w = 0; w < kWorkers; ++w)
            committed += tallies[w * kNumAlgos + algo]->side[traced].committed;
        double speed = 0;
        for (double v : slotSpeed)
            speed += v / kWorkers;
        double rate = (committed - into->committed) / seconds;
        into->seconds += seconds;
        into->slotRates.push_back(rate);
        into->scaledRates.push_back(rate / speed);
        into->speeds.push_back(speed);
        into->committed = committed;
        if (traced) {
            addInto(into->delta, minus(inst[algo]->stats(), before));
            into->rssGrowthMb += rssMb() - rss0;
        }
    };

    // Untimed warm-up round, then the timed rounds. The warm-up's ops
    // land in the tallies' untraced side, so clear them afterwards.
    for (unsigned a = 0; a < kNumAlgos; ++a)
        runSlot(0, a, false, nullptr);
    for (auto &t : tallies)
        t->side[0] = Tally::Side();
    for (unsigned r = 0; r < rounds; ++r) {
        if (setupTimes.size() < kSetupReps &&
            r == setupTimes.size() * rounds / kSetupReps)
            rebuild();
        for (unsigned i = 0; i < slotsPerRound; ++i) {
            unsigned a = (r + i) % kNumAlgos;
            bool traced = args.trace && (r + i / kNumAlgos) % 2 == 1;
            runSlot(r, a, traced, &win[a][traced]);
        }
    }
    quit = true;
    startGate.arriveAndWait();
    for (std::thread &t : pool)
        t.join();

    // Output checks of the last build; the earlier ones were checked
    // before they were replaced.
    checkAll();

    // Pool each algorithm's tallies over workers.
    std::vector<Metric> metrics;
    uint64_t attempted = 0, failed = 0;
    for (unsigned a = 0; a < kNumAlgos; ++a) {
        const std::string algo = algoKindName(kAlgos[a]);
        Tally t;
        for (unsigned w = 0; w < kWorkers; ++w) {
            const Tally &src = *tallies[w * kNumAlgos + a];
            for (int s = 0; s < 2; ++s) {
                t.side[s].attempted += src.side[s].attempted;
                t.side[s].committed += src.side[s].committed;
                t.side[s].failed += src.side[s].failed;
                t.side[s].op.merge(src.side[s].op);
            }
            t.attempts += src.attempts;
            t.opNs += src.opNs;
            t.wastedNs += src.wastedNs;
            t.fastNs += src.fastNs;
            t.fastAccesses += src.fastAccesses;
            t.slowNs += src.slowNs;
            t.slowAccesses += src.slowAccesses;
            t.firstTryOps += src.firstTryOps;
            t.firstTryAccesses += src.firstTryAccesses;
            t.overhead.merge(src.overhead);
            t.fastOp.merge(src.fastOp);
            t.fallbackOp.merge(src.fallbackOp);
            for (unsigned c = 0; c < kNumClasses; ++c)
                t.cls[c].merge(src.cls[c]);
        }
        const Tally::Side &plain = t.side[0];
        // The median slot rate shrugs off a slot or two slowed by a
        // neighbour on the host. The gated rate and latencies are scaled
        // to the usual host speed (HostProbe); the raw rates, pooled and
        // median, are printed beside them.
        const Window &uw = win[a][0];
        double opsPerS = median(uw.scaledRates);
        double rawOpsPerS = median(uw.slotRates);
        attempted += plain.attempted + t.side[1].attempted;
        failed += plain.failed + t.side[1].failed;
        std::printf("# %s %-8s untraced: %" PRIu64 " ops (%" PRIu64
                    " failed) in %.3f s; raw %.0f ops/s pooled, %.0f "
                    "median slot; host speed %.3f; scaled %.0f ops/s, "
                    "p50 %.3f us, p99 %.3f us over %" PRIu64 " samples\n",
                    wl->name, algo.c_str(), plain.attempted, plain.failed,
                    uw.seconds, ratio(plain.committed, uw.seconds),
                    rawOpsPerS, median(uw.speeds), opsPerS,
                    plain.op.percentileNs(50) / 1e3,
                    plain.op.percentileNs(99) / 1e3, plain.op.count());
        if (!args.trace) {
            metrics.push_back({"ops_per_s." + algo, opsPerS, "1/s"});
            metrics.push_back(
                {"p99_us." + algo, plain.op.percentileNs(99) / 1e3, "us"});
            continue;
        }

        // Per-layer metrics from the traced slots.
        const Tally::Side &tr = t.side[1];
        const Window &tw = win[a][1];
        const StatsSummary &d = tw.delta;
        const double ops = static_cast<double>(tr.committed);
        const double tmCommits = static_cast<double>(d.operations());
        auto per = [&](Counter c) { return ratio(d.get(c), ops); };
        const bool hybrid = kAlgos[a] != AlgoKind::kNOrec;
        auto add = [&](const std::string &name, double v, const char *unit) {
            metrics.push_back({name + "." + algo, v, unit});
        };
        // Attempts are body invocations where the body is ours (the
        // tree); the store runs its own bodies, so there they come from
        // the begin/commit/restart counters.
        double attemptsPerOp =
            wl->store
                ? ratio(d.get(Counter::kFastPathAttempts) +
                            d.get(Counter::kCommitsMixedPath) +
                            d.get(Counter::kCommitsSoftwarePath) +
                            d.get(Counter::kCommitsSerialPath) +
                            d.get(Counter::kSlowPathRestarts) +
                            d.get(Counter::kCrossShardCommits) +
                            d.get(Counter::kCrossShardRestarts),
                        ops)
                : ratio(t.attempts, ops);
        add("api.p50_us", tr.op.percentileNs(50) / 1e3, "us");
        add("api.overhead_ns", t.overhead.percentileNs(50), "ns");
        add("api.attempts_per_op", attemptsPerOp, "count");
        add("api.wasted_share", ratio(t.wastedNs, t.opNs), "share");
        if (hybrid) {
            add("htm.fast_commit_share",
                ratio(d.get(Counter::kCommitsFastPath), tmCommits), "share");
            add("htm.fast_op_p50_us", t.fastOp.percentileNs(50) / 1e3, "us");
            add("htm.ns_per_fast_access", ratio(t.fastNs, t.fastAccesses),
                "ns");
            add("htm.conflict_aborts_per_op",
                per(Counter::kHtmConflictAborts), "count");
            add("htm.subscription_aborts_per_op",
                per(Counter::kHtmSubscriptionAborts), "count");
            add("fault.injected_aborts_per_op",
                per(Counter::kHtmInjectedAborts), "count");
            add("core.fallback_share",
                ratio(d.get(Counter::kFallbacks), tmCommits), "share");
            add("core.fallback_op_p50_us",
                t.fallbackOp.percentileNs(50) / 1e3, "us");
        }
        add("core.restarts_per_fallback", d.restartsPerSlowPath(), "count");
        add("core.serial_share",
            ratio(d.get(Counter::kCommitsSerialPath), tmCommits), "share");
        if (kAlgos[a] == AlgoKind::kRhNOrec) {
            add("core.prefix_success", d.prefixSuccessRatio(), "share");
            add("core.postfix_success", d.postfixSuccessRatio(), "share");
        }
        add("core.revalidations_per_op", per(Counter::kRevalidations),
            "count");
        add("core.revalidation_skip_share",
            ratio(d.get(Counter::kRevalidationsSkipped),
                  d.get(Counter::kRevalidations) +
                      d.get(Counter::kRevalidationsSkipped)),
            "share");
        add("core.ts_extensions_per_op", per(Counter::kTsExtensions),
            "count");
        add("stm.ns_per_slow_access", ratio(t.slowNs, t.slowAccesses), "ns");
        add("stm.slow_accesses_per_op",
            ratio(d.get(Counter::kSlowPathReads) +
                      d.get(Counter::kSlowPathWrites),
                  ops),
            "count");
        add("mem.rss_growth_mb", tw.rssGrowthMb, "MB");
        for (unsigned c = 0; c < kNumClasses; ++c)
            add(std::string("store.") + kClassName[c] + "_p99_us",
                t.cls[c].percentileNs(99) / 1e3, "us");
        add("store.cross_commits_per_op", per(Counter::kCrossShardCommits),
            "count");
        add("store.cross_restarts_per_op",
            per(Counter::kCrossShardRestarts), "count");
        add("store.escalations_per_op",
            per(Counter::kCrossShardEscalations), "count");
        add("store.failed_share", ratio(tr.failed, tr.attempted), "share");
        add("structures.accesses_per_op",
            wl->store ? d.accessesPerOp()
                      : ratio(t.firstTryAccesses, t.firstTryOps),
            "count");
        add("trace.overhead", ratio(median(tw.slotRates), rawOpsPerS),
            "ratio");
    }
    const double setupS = median(setupTimes);
    if (!args.trace) {
        metrics.push_back({"setup_s", setupS, "s"});
        metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    }
    std::printf("# %s setup_s median of %zu builds: raw %.6f s, scaled "
                "%.6f s\n",
                wl->name, setupTimes.size(), median(rawSetupTimes), setupS);

    if (args.trace && !args.spansPath.empty()) {
        std::FILE *f = std::fopen(args.spansPath.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "paperbench: cannot write %s\n",
                         args.spansPath.c_str());
            return 1;
        }
        std::fprintf(f, "algo\tworker\tseq\tattempt\tstart_ns\tend_ns\t"
                        "path\n");
        for (unsigned w = 0; w < kWorkers; ++w)
            for (const Span &s : spans[w])
                std::fprintf(f, "%s\t%u\t%" PRIu64 "\t%u\t%" PRId64
                                "\t%" PRId64 "\t%u\n",
                             algoKindName(kAlgos[s.algo]), w, s.seq,
                             s.attempt, s.startNs, s.endNs, s.path);
        std::fclose(f);
    }

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
        json += (i ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + buf + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}
