/**
 * @file
 * Sharded transactional store benchmark (docs/STORE.md).
 *
 * Three legs over the ShardedStore:
 *
 *  1. Mixed OLTP sweep: for every (algo, shards, threads) cell, a
 *     multi-threaded loop of Zipfian point gets/puts, per-shard range
 *     scans and multi-key RMWs (cross-shard whenever shards > 1), each
 *     request carrying a wall-clock deadline. Reports per-op-class
 *     p50/p99/max latency and committed counts, plus an "all" cell
 *     with throughput and the cross-shard commit/restart/escalation
 *     counters.
 *  2. History-check leg (--check, on by default): a smaller run per
 *     algorithm with the StoreObserver recording every committed
 *     operation's read/write sets; the recorded history (including
 *     cross-shard RMWs) must pass the strict-serializability checker.
 *  3. Saturation leg: disjoint-key workloads (no logical conflicts) at
 *     the highest requested thread count, 1 shard vs the maximum
 *     requested shard count, in 3 alternating repetitions each -- the
 *     multi-domain design must scale: the median with more shards
 *     must not be slower.
 *
 * Usage: bench_store [--threads=1,8] [--shards=1,4] [--algos=all]
 *                    [--ops=2000] [--keys=8192] [--zipf=0.8]
 *                    [--deadline-ms=100] [--admission=on|off]
 *                    [--check=on|off] [--check-ops=120]
 *                    [--check-threads=3] [--saturation=on|off]
 *                    [--seed=1] [--json=FILE]
 *
 * Exit status: 0 when every history check passed and the saturation
 * invariant held (when measured), 1 otherwise.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/check/history.h"
#include "src/stats/latency.h"
#include "src/store/sharded_store.h"
#include "src/util/barrier.h"
#include "src/util/rng.h"
#include "src/util/zipf.h"

namespace rhtm
{
namespace
{

enum OpClass : unsigned
{
    kOpGet = 0,
    kOpPut,
    kOpScan,
    kOpRmw,
    kNumOpClasses
};

const char *kOpClassName[kNumOpClasses] = {"get", "put", "scan", "rmw"};

/** Mix percentages (cumulative draw out of 100). */
constexpr unsigned kPctGet = 50;
constexpr unsigned kPctPut = 75;  // 25% puts
constexpr unsigned kPctScan = 85; // 10% scans
                                  // 15% multi-key RMWs

constexpr uint64_t kSeedValue = 1000;
constexpr unsigned kRmwKeys = 3;
constexpr uint64_t kScanWidth = 64;
constexpr size_t kScanLimit = 32;

struct Config
{
    std::vector<unsigned> threads{1, 8};
    std::vector<unsigned> shards{1, 4};
    std::vector<AlgoKind> algos = allAlgoKinds();
    uint64_t opsPerThread = 2000;
    uint64_t keys = 8192;
    double zipfTheta = 0.8;
    uint64_t deadlineMs = 100;
    bool admission = false;
    bool runCheck = true;
    uint64_t checkOps = 120;
    unsigned checkThreads = 3;
    bool runSaturation = true;
    uint64_t seed = 1;
    std::string jsonPath;
};

struct Cell
{
    std::string mode;    //!< "oltp", "check" or "saturation".
    std::string algo;
    std::string opclass; //!< Per-class cells; "all" for totals.
    unsigned shards = 0;
    unsigned threads = 0;
    uint64_t ops = 0;
    uint64_t committed = 0;
    double p50Us = 0, p99Us = 0, maxUs = 0;
    double seconds = 0;
    double throughput = 0;
    uint64_t crossCommits = 0, crossRestarts = 0, crossEscalations = 0;
    uint64_t deadlineExceeded = 0, shed = 0;
    bool hasVerified = false;
    bool verified = false;
};

double
usOf(uint64_t ns)
{
    return static_cast<double>(ns) / 1000.0;
}

/** History recorder: StoreObserver -> checker event stream. */
class HistoryObserver final : public StoreObserver
{
  public:
    void
    onTxnBegin(unsigned worker) override
    {
        std::lock_guard<std::mutex> guard(lock_);
        history_.push(worker, check::HistKind::kBegin);
    }

    void
    onTxnCommit(const StoreOpRecord &rec) override
    {
        std::lock_guard<std::mutex> guard(lock_);
        // The committed attempt's accesses, reported wholesale at
        // commit time (still inside the txn's real-time window).
        history_.push(rec.worker, check::HistKind::kAttempt);
        for (const auto &[key, value] : rec.reads)
            history_.push(rec.worker, check::HistKind::kRead,
                          static_cast<unsigned>(key), value);
        for (const auto &[key, value] : rec.writes)
            history_.push(rec.worker, check::HistKind::kWrite,
                          static_cast<unsigned>(key), value);
        history_.push(rec.worker, check::HistKind::kCommit);
    }

    const check::History &history() const { return history_; }

  private:
    std::mutex lock_;
    check::History history_;
};

StoreConfig
makeStoreConfig(AlgoKind algo, unsigned shards, const Config &cfg)
{
    StoreConfig sc;
    sc.shards = shards;
    sc.kind = algo;
    sc.runtime.rngSeed = cfg.seed;
    sc.runtime.admission.enabled = cfg.admission;
    return sc;
}

/** One mixed-OLTP cell; returns per-class cells plus the totals cell. */
std::vector<Cell>
runOltpCell(AlgoKind algo, unsigned shards, unsigned threads,
            const Config &cfg)
{
    ShardedStore store(makeStoreConfig(algo, shards, cfg));
    StoreWorker &seeder = store.registerWorker();
    store.seed(seeder, cfg.keys, kSeedValue);
    store.resetStats();

    std::vector<StoreWorker *> workers(threads);
    for (unsigned t = 0; t < threads; ++t)
        workers[t] = &store.registerWorker();

    struct PerThread
    {
        LatencyHistogram lat[kNumOpClasses];
        uint64_t issued[kNumOpClasses] = {0, 0, 0, 0};
        uint64_t committed[kNumOpClasses] = {0, 0, 0, 0};
    };
    std::vector<PerThread> per(threads);

    SenseBarrier barrier(threads + 1);
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            Rng rng(cfg.seed * 1000003 + t * 7919 + 1);
            ZipfGenerator zipf(cfg.keys, cfg.zipfTheta,
                               cfg.seed * 31 + t + 1);
            StoreOpts opts;
            opts.deadline =
                std::chrono::milliseconds(cfg.deadlineMs);
            PerThread &mine = per[t];
            std::vector<std::pair<uint64_t, uint64_t>> scanOut;
            std::vector<uint64_t> rmwKeys(kRmwKeys);
            using LatClock = std::chrono::steady_clock;
            barrier.arriveAndWait();
            for (uint64_t op = 0; op < cfg.opsPerThread; ++op) {
                unsigned draw =
                    static_cast<unsigned>(rng.nextBounded(100));
                unsigned cls;
                if (draw < kPctGet)
                    cls = kOpGet;
                else if (draw < kPctPut)
                    cls = kOpPut;
                else if (draw < kPctScan)
                    cls = kOpScan;
                else
                    cls = kOpRmw;
                uint64_t key = zipf.next();
                auto start = LatClock::now();
                TxnOutcome out = TxnOutcome::kCommitted;
                switch (cls) {
                case kOpGet: {
                    uint64_t v = 0;
                    bool found = false;
                    out = store.get(*workers[t], key, v, found, opts);
                    break;
                }
                case kOpPut:
                    out = store.put(*workers[t], key,
                                    rng.next() >> 1, opts);
                    break;
                case kOpScan: {
                    unsigned shard = static_cast<unsigned>(
                        rng.nextBounded(shards));
                    uint64_t hi =
                        std::min(key + kScanWidth - 1, cfg.keys - 1);
                    out = store.scan(*workers[t], shard, key, hi,
                                     kScanLimit, scanOut, opts);
                    break;
                }
                case kOpRmw:
                default:
                    for (unsigned k = 0; k < kRmwKeys; ++k)
                        rmwKeys[k] = zipf.next();
                    out = store.multiRmw(*workers[t], rmwKeys, 1,
                                         opts);
                    break;
                }
                auto delta = LatClock::now() - start;
                mine.lat[cls].record(static_cast<uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(delta)
                        .count()));
                ++mine.issued[cls];
                if (out == TxnOutcome::kCommitted)
                    ++mine.committed[cls];
            }
        });
    }
    auto wallStart = std::chrono::steady_clock::now();
    barrier.arriveAndWait();
    for (auto &th : pool)
        th.join();
    double seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wallStart)
            .count();

    StatsSummary totals = store.stats();
    std::vector<Cell> cells;
    uint64_t allIssued = 0, allCommitted = 0;
    for (unsigned cls = 0; cls < kNumOpClasses; ++cls) {
        LatencyHistogram merged;
        uint64_t issued = 0, committed = 0;
        for (const auto &pt : per) {
            merged.merge(pt.lat[cls]);
            issued += pt.issued[cls];
            committed += pt.committed[cls];
        }
        allIssued += issued;
        allCommitted += committed;
        Cell c;
        c.mode = "oltp";
        c.algo = algoKindName(algo);
        c.opclass = kOpClassName[cls];
        c.shards = shards;
        c.threads = threads;
        c.ops = issued;
        c.committed = committed;
        c.p50Us = usOf(merged.percentileNs(50));
        c.p99Us = usOf(merged.percentileNs(99));
        c.maxUs = usOf(merged.maxNs());
        c.seconds = seconds;
        cells.push_back(c);
    }
    Cell all;
    all.mode = "oltp";
    all.algo = algoKindName(algo);
    all.opclass = "all";
    all.shards = shards;
    all.threads = threads;
    all.ops = allIssued;
    all.committed = allCommitted;
    all.seconds = seconds;
    all.throughput =
        seconds > 0 ? static_cast<double>(allCommitted) / seconds : 0;
    all.crossCommits = totals.get(Counter::kCrossShardCommits);
    all.crossRestarts = totals.get(Counter::kCrossShardRestarts);
    all.crossEscalations =
        totals.get(Counter::kCrossShardEscalations);
    all.deadlineExceeded = totals.get(Counter::kDeadlineExceeded);
    all.shed = totals.get(Counter::kAdmissionShed);
    cells.push_back(all);
    return cells;
}

/**
 * History-check leg: record every committed op's read/write sets and
 * run the strict-serializability checker over them.
 */
Cell
runCheckCell(AlgoKind algo, const Config &cfg)
{
    const unsigned shards = 3;
    const unsigned threads = cfg.checkThreads;
    const uint64_t keys = 96; // Var ids must fit the checker's u16.

    Config small = cfg;
    small.admission = false;
    ShardedStore store(makeStoreConfig(algo, shards, small));
    StoreWorker &seeder = store.registerWorker();
    store.seed(seeder, keys, kSeedValue);

    HistoryObserver observer;
    store.setObserver(&observer);

    std::vector<StoreWorker *> workers(threads);
    for (unsigned t = 0; t < threads; ++t)
        workers[t] = &store.registerWorker();

    std::vector<uint64_t> committedPer(threads, 0);
    SenseBarrier barrier(threads + 1);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            Rng rng(cfg.seed * 7907 + t * 131 + 1);
            ZipfGenerator zipf(keys, 0.6, cfg.seed * 17 + t + 1);
            StoreOpts opts; // Unbounded: every op must commit.
            std::vector<std::pair<uint64_t, uint64_t>> scanOut;
            std::vector<uint64_t> rmwKeys(kRmwKeys);
            barrier.arriveAndWait();
            for (uint64_t op = 0; op < cfg.checkOps; ++op) {
                unsigned draw =
                    static_cast<unsigned>(rng.nextBounded(100));
                uint64_t key = zipf.next();
                TxnOutcome out;
                if (draw < 40) {
                    uint64_t v = 0;
                    bool found = false;
                    out = store.get(*workers[t], key, v, found, opts);
                } else if (draw < 60) {
                    out = store.put(*workers[t], key, rng.next() >> 1,
                                    opts);
                } else if (draw < 70) {
                    unsigned shard = static_cast<unsigned>(
                        rng.nextBounded(shards));
                    out = store.scan(*workers[t], shard, key,
                                     std::min(key + 15, keys - 1), 8,
                                     scanOut, opts);
                } else {
                    // RMW-heavy so cross-shard commits dominate the
                    // checked history.
                    for (unsigned k = 0; k < kRmwKeys; ++k)
                        rmwKeys[k] = zipf.next();
                    out = store.multiRmw(*workers[t], rmwKeys, 1,
                                         opts);
                }
                if (out == TxnOutcome::kCommitted)
                    ++committedPer[t];
            }
        });
    }
    barrier.arriveAndWait();
    for (auto &th : pool)
        th.join();
    store.setObserver(nullptr);

    std::vector<uint64_t> initial(keys, kSeedValue);
    check::CheckResult result =
        check::checkHistory(observer.history(), initial);

    StatsSummary totals = store.stats();
    Cell c;
    c.mode = "check";
    c.algo = algoKindName(algo);
    c.opclass = "all";
    c.shards = shards;
    c.threads = threads;
    c.ops = cfg.checkOps * threads;
    for (uint64_t n : committedPer)
        c.committed += n;
    c.crossCommits = totals.get(Counter::kCrossShardCommits);
    c.crossRestarts = totals.get(Counter::kCrossShardRestarts);
    c.crossEscalations =
        totals.get(Counter::kCrossShardEscalations);
    c.hasVerified = true;
    c.verified = result.ok();
    if (!result.ok()) {
        std::fprintf(stderr,
                     "bench_store: history check FAILED for %s: %s\n%s\n",
                     algoKindName(algo),
                     check::checkVerdictName(result.verdict),
                     result.detail.c_str());
        if (observer.history().size() < 600)
            std::fprintf(stderr, "history:\n%s",
                         observer.history().format().c_str());
    }
    return c;
}

/**
 * Saturation leg: disjoint keys (worker-private slices, no logical
 * conflicts), measuring pure coordination-domain scaling.
 */
Cell
runSaturationCell(AlgoKind algo, unsigned shards, unsigned threads,
                  const Config &cfg)
{
    ShardedStore store(makeStoreConfig(algo, shards, cfg));
    StoreWorker &seeder = store.registerWorker();
    store.seed(seeder, cfg.keys, kSeedValue);
    store.resetStats();

    std::vector<StoreWorker *> workers(threads);
    for (unsigned t = 0; t < threads; ++t)
        workers[t] = &store.registerWorker();

    const uint64_t slice = std::max<uint64_t>(cfg.keys / threads, 1);
    std::vector<uint64_t> committedPer(threads, 0);
    SenseBarrier barrier(threads + 1);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            Rng rng(cfg.seed * 90001 + t * 577 + 1);
            StoreOpts opts; // Unbounded; measure raw throughput.
            uint64_t base = t * slice;
            barrier.arriveAndWait();
            for (uint64_t op = 0; op < cfg.opsPerThread; ++op) {
                uint64_t key = base + rng.nextBounded(slice);
                TxnOutcome out;
                if (rng.nextBounded(100) < 70) {
                    uint64_t v = 0;
                    bool found = false;
                    out = store.get(*workers[t], key, v, found, opts);
                } else {
                    out = store.put(*workers[t], key, rng.next() >> 1,
                                    opts);
                }
                if (out == TxnOutcome::kCommitted)
                    ++committedPer[t];
            }
        });
    }
    auto wallStart = std::chrono::steady_clock::now();
    barrier.arriveAndWait();
    for (auto &th : pool)
        th.join();
    double seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wallStart)
            .count();

    Cell c;
    c.mode = "saturation";
    c.algo = algoKindName(algo);
    c.opclass = "all";
    c.shards = shards;
    c.threads = threads;
    c.ops = cfg.opsPerThread * threads;
    for (uint64_t n : committedPer)
        c.committed += n;
    c.seconds = seconds;
    c.throughput =
        seconds > 0 ? static_cast<double>(c.committed) / seconds : 0;
    return c;
}

/** Repetitions of each saturation cell; their medians are compared. */
constexpr unsigned kSaturationReps = 3;

/** The cell with the median throughput of @p cells (odd count). */
Cell
medianCell(std::vector<Cell> cells)
{
    std::sort(cells.begin(), cells.end(),
              [](const Cell &a, const Cell &b) {
                  return a.throughput < b.throughput;
              });
    return cells[cells.size() / 2];
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    size_t pos = 0;
    while (pos <= s.size()) {
        size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        if (comma > pos)
            out.push_back(s.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

bool
parseArgs(int argc, char **argv, Config &cfg)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto valueOf = [&](const char *prefix,
                           std::string &out) -> bool {
            size_t len = std::strlen(prefix);
            if (arg.compare(0, len, prefix) != 0)
                return false;
            out = arg.substr(len);
            return true;
        };
        std::string v;
        if (valueOf("--threads=", v)) {
            cfg.threads.clear();
            for (const auto &tok : splitList(v))
                cfg.threads.push_back(
                    static_cast<unsigned>(std::stoul(tok)));
        } else if (valueOf("--shards=", v)) {
            cfg.shards.clear();
            for (const auto &tok : splitList(v))
                cfg.shards.push_back(
                    static_cast<unsigned>(std::stoul(tok)));
        } else if (valueOf("--algos=", v)) {
            if (v != "all") {
                cfg.algos.clear();
                for (const auto &tok : splitList(v)) {
                    AlgoKind kind;
                    if (!algoKindFromString(tok, kind)) {
                        std::fprintf(stderr,
                                     "bench_store: unknown algo %s\n",
                                     tok.c_str());
                        return false;
                    }
                    cfg.algos.push_back(kind);
                }
            }
        } else if (valueOf("--ops=", v)) {
            cfg.opsPerThread = std::stoull(v);
        } else if (valueOf("--keys=", v)) {
            cfg.keys = std::stoull(v);
        } else if (valueOf("--zipf=", v)) {
            cfg.zipfTheta = std::stod(v);
        } else if (valueOf("--deadline-ms=", v)) {
            cfg.deadlineMs = std::stoull(v);
        } else if (valueOf("--admission=", v)) {
            cfg.admission = (v == "on");
        } else if (valueOf("--check=", v)) {
            cfg.runCheck = (v == "on");
        } else if (valueOf("--check-ops=", v)) {
            cfg.checkOps = std::stoull(v);
        } else if (valueOf("--check-threads=", v)) {
            cfg.checkThreads =
                static_cast<unsigned>(std::stoul(v));
        } else if (valueOf("--saturation=", v)) {
            cfg.runSaturation = (v == "on");
        } else if (valueOf("--seed=", v)) {
            cfg.seed = std::stoull(v);
        } else if (valueOf("--json=", v)) {
            cfg.jsonPath = v;
        } else {
            std::fprintf(stderr, "bench_store: unknown flag %s\n",
                         arg.c_str());
            return false;
        }
    }
    return true;
}

void
printCell(const Cell &c)
{
    std::printf("%s,%s,%s,%u,%u,%llu,%llu,%.1f,%.1f,%.1f,%.3f,%.0f,"
                "%llu,%llu,%llu",
                c.mode.c_str(), c.algo.c_str(), c.opclass.c_str(),
                c.shards, c.threads,
                static_cast<unsigned long long>(c.ops),
                static_cast<unsigned long long>(c.committed), c.p50Us,
                c.p99Us, c.maxUs, c.seconds, c.throughput,
                static_cast<unsigned long long>(c.crossCommits),
                static_cast<unsigned long long>(c.crossRestarts),
                static_cast<unsigned long long>(c.crossEscalations));
    if (c.hasVerified)
        std::printf(",%s", c.verified ? "ok" : "FAIL");
    std::printf("\n");
}

void
writeJson(const std::string &path, const Config &cfg,
          const std::vector<Cell> &cells)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "bench_store: cannot write %s\n",
                     path.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"bench\": \"store\",\n  \"seed\": %llu,\n"
                    "  \"cells\": [\n",
                 static_cast<unsigned long long>(cfg.seed));
    for (size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        std::fprintf(
            f,
            "    {\"mode\": \"%s\", \"algo\": \"%s\", "
            "\"opclass\": \"%s\", \"shards\": %u, \"threads\": %u, "
            "\"ops\": %llu, \"committed\": %llu, "
            "\"p50_us\": %.1f, \"p99_us\": %.1f, \"max_us\": %.1f, "
            "\"seconds\": %.3f, \"throughput\": %.0f, "
            "\"cross_commits\": %llu, \"cross_restarts\": %llu, "
            "\"cross_escalations\": %llu, "
            "\"deadline_exceeded\": %llu, \"admission_shed\": %llu",
            c.mode.c_str(), c.algo.c_str(), c.opclass.c_str(),
            c.shards, c.threads,
            static_cast<unsigned long long>(c.ops),
            static_cast<unsigned long long>(c.committed), c.p50Us,
            c.p99Us, c.maxUs, c.seconds, c.throughput,
            static_cast<unsigned long long>(c.crossCommits),
            static_cast<unsigned long long>(c.crossRestarts),
            static_cast<unsigned long long>(c.crossEscalations),
            static_cast<unsigned long long>(c.deadlineExceeded),
            static_cast<unsigned long long>(c.shed));
        if (c.hasVerified)
            std::fprintf(f, ", \"verified\": %s",
                         c.verified ? "true" : "false");
        std::fprintf(f, "}%s\n", i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

int
benchMain(int argc, char **argv)
{
    Config cfg;
    if (!parseArgs(argc, argv, cfg))
        return 2;

    std::vector<Cell> cells;
    bool failed = false;

    std::printf("mode,algo,opclass,shards,threads,ops,committed,"
                "p50_us,p99_us,max_us,seconds,throughput,"
                "cross_commits,cross_restarts,cross_escalations\n");

    for (AlgoKind algo : cfg.algos) {
        for (unsigned shards : cfg.shards) {
            for (unsigned threads : cfg.threads) {
                auto cs = runOltpCell(algo, shards, threads, cfg);
                for (const auto &c : cs) {
                    printCell(c);
                    cells.push_back(c);
                }
            }
        }
    }

    if (cfg.runCheck) {
        for (AlgoKind algo : cfg.algos) {
            Cell c = runCheckCell(algo, cfg);
            printCell(c);
            cells.push_back(c);
            if (!c.verified)
                failed = true;
        }
    }

    if (cfg.runSaturation && !cfg.threads.empty() &&
        !cfg.shards.empty()) {
        unsigned maxThreads =
            *std::max_element(cfg.threads.begin(), cfg.threads.end());
        unsigned minShards =
            *std::min_element(cfg.shards.begin(), cfg.shards.end());
        unsigned maxShards =
            *std::max_element(cfg.shards.begin(), cfg.shards.end());
        // The scaling invariant needs physical parallelism: on a
        // single-core (or dual-core) host, extra shards are pure
        // overhead for timeshared threads and the comparison says
        // nothing about the design. Measure everywhere, enforce only
        // where the hardware can actually run shards concurrently.
        unsigned hw = std::thread::hardware_concurrency();
        bool enforce = hw >= 4;
        if (!enforce)
            std::printf("# saturation: %u hardware thread(s); "
                        "scaling invariant reported, not enforced\n",
                        hw);
        for (AlgoKind algo : cfg.algos) {
            if (maxShards == minShards) {
                Cell base =
                    runSaturationCell(algo, minShards, maxThreads, cfg);
                printCell(base);
                cells.push_back(base);
                continue;
            }
            // Alternate the two shard counts over a few repetitions and
            // compare medians, so one cell disturbed by the host cannot
            // decide the comparison on its own.
            std::vector<Cell> bases, wides;
            for (unsigned rep = 0; rep < kSaturationReps; ++rep) {
                const bool wideFirst = rep % 2 == 1;
                if (wideFirst)
                    wides.push_back(runSaturationCell(algo, maxShards,
                                                      maxThreads, cfg));
                bases.push_back(
                    runSaturationCell(algo, minShards, maxThreads, cfg));
                if (!wideFirst)
                    wides.push_back(runSaturationCell(algo, maxShards,
                                                      maxThreads, cfg));
            }
            std::printf("# saturation %s ops/s:", algoKindName(algo));
            for (unsigned rep = 0; rep < kSaturationReps; ++rep)
                std::printf(" %u shard(s) %.0f / %u shard(s) %.0f;",
                            minShards, bases[rep].throughput, maxShards,
                            wides[rep].throughput);
            std::printf("\n");
            Cell base = medianCell(bases);
            printCell(base);
            cells.push_back(base);
            Cell wide = medianCell(wides);
            // The acceptance invariant (>= 4 shards beats 1 shard at
            // >= 8 threads) only binds where sharding can win.
            if (enforce && minShards == 1 && maxShards >= 4 &&
                maxThreads >= 8) {
                wide.hasVerified = true;
                wide.verified = wide.throughput > base.throughput;
                if (!wide.verified) {
                    failed = true;
                    std::fprintf(
                        stderr,
                        "bench_store: saturation FAILED for %s: "
                        "%u shards %.0f ops/s vs 1 shard %.0f ops/s\n",
                        algoKindName(algo), maxShards,
                        wide.throughput, base.throughput);
                }
            }
            printCell(wide);
            cells.push_back(wide);
        }
    }

    if (!cfg.jsonPath.empty())
        writeJson(cfg.jsonPath, cfg, cells);

    std::printf("# bench_store: %s\n", failed ? "FAIL" : "ok");
    return failed ? 1 : 0;
}

} // namespace
} // namespace rhtm

int
main(int argc, char **argv)
{
    return rhtm::benchMain(argc, argv);
}
