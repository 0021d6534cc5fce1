/**
 * @file
 * Section 3.6 ("Labyrinth ... similar to SSCA2" in its RH-vs-HY
 * deltas, but with the long capacity-bound transactions that drive
 * fallbacks): the STAMP Labyrinth kernel.
 *
 * Usage: bench_labyrinth [--width=N] [--height=N] [common flags]
 */

#include <memory>

#include "bench/harness.h"
#include "src/workloads/labyrinth.h"

int
main(int argc, char **argv)
{
    using namespace rhtm;
    CliOptions opts(argc, argv);
    bench::BenchConfig cfg = bench::parseBenchConfig(
        opts, {"width", "height"});
    LabyrinthParams params;
    params.width = static_cast<unsigned>(opts.getInt("width", 128));
    params.height = static_cast<unsigned>(opts.getInt("height", 128));

    bench::runBenchmark("labyrinth", [params] {
        return std::make_unique<LabyrinthWorkload>(params);
    }, cfg);
    return 0;
}
