/**
 * @file
 * Figure 5 column 1 (Vacation-Low) and Figure 6 column 1
 * (Vacation-High): the STAMP travel-reservation OLTP kernel.
 *
 * Usage: bench_vacation [--contention=low|high|both] [common flags]
 */

#include <memory>
#include <string>

#include "bench/harness.h"
#include "src/workloads/vacation.h"

int
main(int argc, char **argv)
{
    using namespace rhtm;
    CliOptions opts(argc, argv);
    bench::BenchConfig cfg = bench::parseBenchConfig(opts, {"contention"});
    std::string contention = opts.getString("contention", "both");

    if (contention == "low" || contention == "both") {
        bench::runBenchmark("vacation-low", [] {
            return std::make_unique<VacationWorkload>(
                VacationParams::low());
        }, cfg);
    }
    if (contention == "high" || contention == "both") {
        bench::runBenchmark("vacation-high", [] {
            return std::make_unique<VacationWorkload>(
                VacationParams::high());
        }, cfg);
    }
    return 0;
}
