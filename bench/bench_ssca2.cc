/**
 * @file
 * Figure 6 column 2: the STAMP SSCA2 kernel (tiny, mostly uncontended
 * read-modify-write transactions).
 *
 * Usage: bench_ssca2 [--nodes=N] [common flags]
 */

#include <memory>

#include "bench/harness.h"
#include "src/workloads/ssca2.h"

int
main(int argc, char **argv)
{
    using namespace rhtm;
    CliOptions opts(argc, argv);
    bench::BenchConfig cfg = bench::parseBenchConfig(opts, {"nodes"});
    Ssca2Params params;
    params.nodes = static_cast<unsigned>(opts.getInt("nodes", 16384));

    bench::runBenchmark("ssca2", [params] {
        return std::make_unique<Ssca2Workload>(params);
    }, cfg);
    return 0;
}
