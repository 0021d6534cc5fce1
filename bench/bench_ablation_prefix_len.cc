/**
 * @file
 * Ablation: dynamic prefix-length adaptation (Section 2.4). Compares
 * adaptive adjustment against fixed prefix lengths on the red-black
 * tree (long read phases before the first write).
 *
 * Usage: bench_ablation_prefix_len [--mutation=10] [common flags]
 */

#include <memory>
#include <string>

#include "bench/harness.h"
#include "src/workloads/rbtree_bench.h"

int
main(int argc, char **argv)
{
    using namespace rhtm;
    CliOptions opts(argc, argv);
    bench::BenchConfig base = bench::parseBenchConfig(opts, {"mutation"});

    RbTreeBenchParams params;
    params.mutationPct =
        static_cast<unsigned>(opts.getInt("mutation", 10));
    auto factory = [params] {
        return std::make_unique<RbTreeBenchWorkload>(params);
    };

    {
        bench::BenchConfig cfg = base;
        cfg.algos = {AlgoKind::kRhNOrec};
        cfg.runtime.rh.adaptivePrefix = true;
        bench::runBenchmark("prefix-adaptive", factory, cfg);
    }
    for (unsigned len : {8u, 64u, 1024u}) {
        bench::BenchConfig cfg = base;
        cfg.algos = {AlgoKind::kRhNOrec};
        cfg.runtime.rh.adaptivePrefix = false;
        cfg.runtime.rh.maxPrefixLength = len;
        cfg.runtime.rh.minPrefixLength = len;
        bench::runBenchmark("prefix-fixed-" + std::to_string(len),
                            factory, cfg);
    }
    return 0;
}
