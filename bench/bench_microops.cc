/**
 * @file
 * Google-benchmark microbenchmarks: single-threaded per-transaction
 * latency of each TM algorithm on three canonical bodies (counter
 * increment, 32-word read-only scan, red-black tree lookup), plus the
 * scan under the bench's random-abort calibration (the armed fault
 * hook's per-access cost on the hardware fast paths). These
 * quantify the instrumentation-cost gap the paper attributes to
 * STM-vs-HTM paths (e.g. Genome's "very high instrumentation costs").
 *
 * The `/on:` microops are the commit-path campaign's A/B cells
 * (docs/COMMIT_PATH.md): each pins ONE front's flag off (A) and on (B)
 * on the exact path that front optimizes -- redo-buffer read-own-writes
 * for the hash index, foreign-commit validation for the read filter,
 * and restart-vs-extend for timestamp extension. tools/ab_microops.py
 * drives them in alternating rounds and folds the result into a
 * "microops-ab" BENCH capture.
 */

#include <benchmark/benchmark.h>

#include "src/api/runtime.h"
#include "src/structures/tx_rbtree.h"

namespace
{

using namespace rhtm;

void
BM_Increment(benchmark::State &state)
{
    auto kind = static_cast<AlgoKind>(state.range(0));
    TmRuntime rt(kind);
    ThreadCtx &ctx = rt.registerThread();
    alignas(64) uint64_t counter = 0;
    for (auto _ : state) {
        rt.run(ctx, [&](Txn &tx) {
            tx.store(&counter, tx.load(&counter) + 1);
        });
    }
    state.SetLabel(algoKindName(kind));
}

void
BM_ReadOnlyScan(benchmark::State &state)
{
    auto kind = static_cast<AlgoKind>(state.range(0));
    TmRuntime rt(kind);
    ThreadCtx &ctx = rt.registerThread();
    alignas(64) uint64_t words[32] = {};
    for (auto _ : state) {
        uint64_t sum = 0;
        rt.run(ctx,
               [&](Txn &tx) {
                   for (auto &w : words)
                       sum += tx.load(&w);
               },
               TxnHint::kReadOnly);
        benchmark::DoNotOptimize(sum);
    }
    state.SetLabel(algoKindName(kind));
}

/**
 * The 32-word scan at the bench calibration (randomAbortProb = 5e-4,
 * bench/harness.cc): every simulated access passes an armed fault
 * hook, so this prices the hook per access on the hardware fast path.
 */
void
BM_ReadOnlyScanCalibrated(benchmark::State &state)
{
    auto kind = static_cast<AlgoKind>(state.range(0));
    RuntimeConfig cfg;
    cfg.htm.randomAbortProb = 5e-4;
    TmRuntime rt(kind, cfg);
    ThreadCtx &ctx = rt.registerThread();
    alignas(64) uint64_t words[32] = {};
    for (auto _ : state) {
        uint64_t sum = 0;
        rt.run(ctx,
               [&](Txn &tx) {
                   for (auto &w : words)
                       sum += tx.load(&w);
               },
               TxnHint::kReadOnly);
        benchmark::DoNotOptimize(sum);
    }
    state.SetLabel(std::string(algoKindName(kind)) + "/p=5e-4");
}

void
BM_RbTreeGet(benchmark::State &state)
{
    auto kind = static_cast<AlgoKind>(state.range(0));
    TmRuntime rt(kind);
    ThreadCtx &ctx = rt.registerThread();
    TxRbTree tree;
    for (int64_t k = 0; k < 1024; ++k)
        rt.run(ctx, [&](Txn &tx) { tree.put(tx, k * 2, k); });
    int64_t key = 0;
    for (auto _ : state) {
        int64_t v = 0;
        rt.run(ctx,
               [&](Txn &tx) {
                   benchmark::DoNotOptimize(tree.get(tx, key, v));
               },
               TxnHint::kReadOnly);
        key = (key + 97) % 2048;
    }
    state.SetLabel(algoKindName(kind));
}

void
addAllAlgos(benchmark::internal::Benchmark *bench)
{
    for (AlgoKind kind : allAlgoKinds())
        bench->Arg(static_cast<int>(kind));
}

// ---------------------------------------------------------------------
// Commit-path campaign A/B cells (docs/COMMIT_PATH.md). range(0) is
// the AlgoKind, range(1) toggles exactly one front's flag: 0 = the
// honest baseline (A), 1 = the optimization (B). The instrumentation-
// cost model is zeroed so the A/B delta is the commit path itself, not
// the modeled libitm overhead both variants would pay equally.
// ---------------------------------------------------------------------

RuntimeConfig
abConfig()
{
    RuntimeConfig cfg;
    cfg.stmAccessPenalty = 0;
    return cfg;
}

void
setAbLabel(benchmark::State &state, AlgoKind kind)
{
    state.SetLabel(std::string(algoKindName(kind)) +
                   (state.range(1) != 0 ? "/on" : "/off"));
}

/** Drive a complete single-location write transaction on @p s. */
void
writeTxn(TxSession &s, uint64_t *addr, uint64_t value)
{
    s.begin(TxnHint::kNone);
    s.write(addr, value);
    s.commit();
    s.onComplete();
}

/**
 * Front 2 (redo-buffer hash index): one lazy transaction buffers 64
 * distinct words, then performs 512 read-own-writes lookups. Every
 * lookup must come from the redo buffer -- linear scan (off) vs
 * stamped open-addressing probe (on).
 */
void
BM_ReadOwnWrites(benchmark::State &state)
{
    auto kind = static_cast<AlgoKind>(state.range(0));
    RuntimeConfig cfg = abConfig();
    cfg.commitPath.redoIndex = state.range(1) != 0;
    TmRuntime rt(kind, cfg);
    ThreadCtx &ctx = rt.registerThread();
    alignas(64) uint64_t words[64] = {};
    for (auto _ : state) {
        uint64_t sum = 0;
        rt.run(ctx, [&](Txn &tx) {
            for (uint64_t i = 0; i < 64; ++i)
                tx.store(&words[i], i);
            for (uint64_t i = 0; i < 512; ++i)
                sum += tx.load(&words[(i * 17) % 64]);
        });
        benchmark::DoNotOptimize(sum);
    }
    setAbLabel(state, kind);
}

/**
 * Front 1 (read-set filter ring): a lazy reader re-reads 8 hot words
 * 32 times each -- NOrec's value log keeps duplicates, so the log is
 * 256 entries long while the read summary stays 8 addresses sparse.
 * A second session then commits 8 disjoint writes; each commit forces
 * the reader's next read to validate -- a full 256-entry value walk
 * (off) vs a filter-ring disjointness skip (on).
 */
void
BM_ValidateAcrossCommits(benchmark::State &state)
{
    auto kind = static_cast<AlgoKind>(state.range(0));
    RuntimeConfig cfg = abConfig();
    cfg.commitPath.readFilter = state.range(1) != 0;
    TmRuntime rt(kind, cfg);
    TxSession &reader = rt.registerThread().session();
    TxSession &writer = rt.registerThread().session();
    alignas(64) uint64_t reads[8] = {};
    alignas(64) uint64_t foreign[8] = {};
    for (auto _ : state) {
        uint64_t sum = 0;
        reader.begin(TxnHint::kNone);
        for (unsigned rep = 0; rep < 32; ++rep)
            for (auto &w : reads)
                sum += reader.read(&w);
        for (uint64_t i = 0; i < 8; ++i) {
            writeTxn(writer, &foreign[i], i);
            sum += reader.read(&reads[i]);
        }
        reader.commit();
        reader.onComplete();
        benchmark::DoNotOptimize(sum);
    }
    StatsSummary ss = rt.stats();
    state.counters["revals"] =
        static_cast<double>(ss.get(Counter::kRevalidations));
    state.counters["skips"] =
        static_cast<double>(ss.get(Counter::kRevalidationsSkipped));
    setAbLabel(state, kind);
}

/**
 * Front 3 (timestamp extension): an eager reader interleaves 8 reads
 * with 8 disjoint foreign commits. The classic protocol (off) restarts
 * on every commit and redoes the prior reads in the quiet window; the
 * extension (on) absorbs each commit in place. Both variants perform
 * exactly 8 foreign commits, so the protocol is the only difference.
 */
void
BM_ExtendAcrossCommits(benchmark::State &state)
{
    auto kind = static_cast<AlgoKind>(state.range(0));
    RuntimeConfig cfg = abConfig();
    cfg.commitPath.tsExtension = state.range(1) != 0;
    TmRuntime rt(kind, cfg);
    TxSession &reader = rt.registerThread().session();
    TxSession &writer = rt.registerThread().session();
    alignas(64) uint64_t reads[8] = {};
    alignas(64) uint64_t foreign[8] = {};
    for (auto _ : state) {
        uint64_t sum = 0;
        reader.begin(TxnHint::kNone);
        unsigned i = 0;
        while (i < 8) {
            try {
                sum += reader.read(&reads[i]);
            } catch (const TxRestart &) {
                reader.onRestart();
                reader.begin(TxnHint::kNone);
                for (unsigned j = 0; j < i; ++j)
                    sum += reader.read(&reads[j]);
                continue; // Retry read i on the fresh snapshot.
            }
            writeTxn(writer, &foreign[i], i);
            ++i;
        }
        reader.commit(); // Read-only eager commit: never restarts.
        reader.onComplete();
        benchmark::DoNotOptimize(sum);
    }
    setAbLabel(state, kind);
}

BENCHMARK(BM_Increment)->Apply(addAllAlgos);
BENCHMARK(BM_ReadOnlyScan)->Apply(addAllAlgos);
BENCHMARK(BM_RbTreeGet)->Apply(addAllAlgos);
BENCHMARK(BM_ReadOnlyScanCalibrated)
    ->Arg(static_cast<int>(AlgoKind::kRhNOrec))
    ->Arg(static_cast<int>(AlgoKind::kHybridNOrec));

BENCHMARK(BM_ReadOwnWrites)
    ->ArgNames({"algo", "on"})
    ->Args({static_cast<int>(AlgoKind::kNOrecLazy), 0})
    ->Args({static_cast<int>(AlgoKind::kNOrecLazy), 1});
BENCHMARK(BM_ValidateAcrossCommits)
    ->ArgNames({"algo", "on"})
    ->Args({static_cast<int>(AlgoKind::kNOrecLazy), 0})
    ->Args({static_cast<int>(AlgoKind::kNOrecLazy), 1});
BENCHMARK(BM_ExtendAcrossCommits)
    ->ArgNames({"algo", "on"})
    ->Args({static_cast<int>(AlgoKind::kNOrec), 0})
    ->Args({static_cast<int>(AlgoKind::kNOrec), 1});

} // namespace

BENCHMARK_MAIN();
