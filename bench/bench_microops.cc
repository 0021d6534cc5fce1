/**
 * @file
 * Google-benchmark microbenchmarks: single-threaded per-transaction
 * latency of each TM algorithm on three canonical bodies (counter
 * increment, 32-word read-only scan, red-black tree lookup), plus the
 * scan under the bench's random-abort calibration (the armed fault
 * hook's per-access cost on the hardware fast paths). These
 * quantify the instrumentation-cost gap the paper attributes to
 * STM-vs-HTM paths (e.g. Genome's "very high instrumentation costs").
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

BENCHMARK(BM_Increment)->Apply(addAllAlgos);
BENCHMARK(BM_ReadOnlyScan)->Apply(addAllAlgos);
BENCHMARK(BM_RbTreeGet)->Apply(addAllAlgos);
BENCHMARK(BM_ReadOnlyScanCalibrated)
    ->Arg(static_cast<int>(AlgoKind::kRhNOrec))
    ->Arg(static_cast<int>(AlgoKind::kHybridNOrec));

} // namespace

BENCHMARK_MAIN();
