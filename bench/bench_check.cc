/**
 * @file
 * Interleaving-explorer driver (docs/CHECKING.md): runs the curated
 * program matrix (or one program) under one or all AlgoKinds and one
 * exploration mode, printing runs / distinct schedules / verdicts and
 * any minimized failing replay token. The tools/ci.sh `check` leg
 * drives the full matrix exhaustively through this binary.
 *
 * Usage:
 *   bench_check [--algo=rh-norec|all] [--program=write-skew|all]
 *               [--mode=random|pct|dfs] [--runs=N] [--seed=S]
 *               [--depth=D] [--expected-steps=K] [--max-steps=N]
 *               [--no-sleep-sets] [--replay=TOKEN] [--history]
 *               [--regression=first-try-budget|kill-switch-streak|
 *                            policy-snapshot|deadline-unwind|
 *                            ts-extension] [--revert]
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/api/runtime.h"
#include "src/check/explorer.h"
#include "src/check/program.h"
#include "src/util/cli.h"

using namespace rhtm;
using namespace rhtm::check;

namespace
{

int
runOne(AlgoKind kind, const CheckProgram &program,
       const ExploreOptions &opts)
{
    Explorer explorer(kind, program);
    auto start = std::chrono::steady_clock::now();
    ExploreResult res = explorer.explore(opts);
    double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    std::printf(
        "%-14s %-22s %-6s runs=%-6zu distinct=%-6zu %s%.2fs  %s\n",
        algoKindName(kind), program.name.c_str(),
        exploreModeName(opts.mode), res.runs, res.distinct,
        res.exhausted ? "exhausted " : "", secs,
        res.failed ? "FAIL" : "ok");
    if (res.failed) {
        const RunOutcome &f = res.failure;
        if (!f.completed)
            std::printf("  step-limit: schedule poisoned after %zu "
                        "steps\n",
                        f.steps);
        if (!f.invariantOk)
            std::printf("  invariant: %s\n", f.invariantWhy.c_str());
        if (!f.check.ok())
            std::printf("  checker: %s: %s\n",
                        checkVerdictName(f.check.verdict),
                        f.check.detail.c_str());
        std::printf("  failing token:   %s\n", f.token.c_str());
        std::printf("  minimized token: %s\n",
                    res.minimizedToken.c_str());
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli(argc, argv);
    if (!cli.errors().empty()) {
        for (const std::string &e : cli.errors())
            std::fprintf(stderr, "bad argument: %s\n", e.c_str());
        return 2;
    }

    ExploreOptions opts;
    std::string modeName = cli.getString("mode", "random");
    if (!exploreModeFromString(modeName, opts.mode)) {
        std::fprintf(stderr, "unknown mode '%s'\n", modeName.c_str());
        return 2;
    }
    opts.runs = static_cast<size_t>(
        cli.getInt("runs", opts.mode == ExploreMode::kDfs ? 2000 : 256));
    opts.seed = static_cast<uint64_t>(cli.getInt("seed", 1));
    opts.pctDepth =
        static_cast<unsigned>(cli.getInt("depth", opts.pctDepth));
    opts.pctExpectedSteps = static_cast<unsigned>(
        cli.getInt("expected-steps", opts.pctExpectedSteps));
    opts.maxStepsPerRun = static_cast<size_t>(
        cli.getInt("max-steps", opts.maxStepsPerRun));
    if (cli.has("no-sleep-sets"))
        opts.dfsSleepSets = false;

    std::vector<AlgoKind> kinds;
    std::string algo = cli.getString("algo", "all");
    if (algo == "all") {
        kinds = allAlgoKinds();
    } else {
        AlgoKind k;
        if (!algoKindFromString(algo, k)) {
            std::fprintf(stderr, "unknown algo '%s'\n", algo.c_str());
            return 2;
        }
        kinds.push_back(k);
    }

    std::vector<CheckProgram> programs;
    std::string regression = cli.getString("regression", "");
    if (!regression.empty()) {
        bool revert = cli.has("revert");
        if (regression == "first-try-budget")
            programs.push_back(makeFirstTryBudgetProgram(revert));
        else if (regression == "kill-switch-streak")
            programs.push_back(makeKillSwitchStreakProgram(revert));
        else if (regression == "policy-snapshot")
            programs.push_back(makePolicySnapshotProgram(revert));
        else if (regression == "deadline-unwind")
            programs.push_back(makeDeadlineUnwindProgram(revert));
        else if (regression == "ts-extension")
            programs.push_back(makeTsExtensionProgram(revert));
        else {
            std::fprintf(stderr, "unknown regression '%s'\n",
                         regression.c_str());
            return 2;
        }
    } else {
        std::string name = cli.getString("program", "all");
        if (name == "all") {
            programs = curatedPrograms();
        } else {
            CheckProgram p;
            if (!curatedProgram(name, p)) {
                std::fprintf(stderr, "unknown program '%s'\n",
                             name.c_str());
                return 2;
            }
            programs.push_back(p);
        }
    }

    if (cli.has("replay")) {
        // Re-execute one schedule token (as printed on failure) and
        // show its verdict -- with --history, the recorded events too.
        std::string tok = cli.getString("replay", "");
        int failures = 0;
        for (AlgoKind kind : kinds) {
            for (const CheckProgram &p : programs) {
                Explorer explorer(kind, p);
                RunOutcome out =
                    explorer.replay(tok, opts.maxStepsPerRun);
                std::printf("%-14s %-22s replay steps=%-6zu %s\n",
                            algoKindName(kind), p.name.c_str(),
                            out.steps, out.failed() ? "FAIL" : "ok");
                if (!out.completed)
                    std::printf("  step-limit after %zu steps\n",
                                out.steps);
                if (!out.invariantOk)
                    std::printf("  invariant: %s\n",
                                out.invariantWhy.c_str());
                if (!out.check.ok())
                    std::printf("  checker: %s: %s\n",
                                checkVerdictName(out.check.verdict),
                                out.check.detail.c_str());
                if (cli.has("history"))
                    std::printf("%s", out.historyText.c_str());
                failures += out.failed() ? 1 : 0;
            }
        }
        return failures == 0 ? 0 : 1;
    }

    int failures = 0;
    for (AlgoKind kind : kinds)
        for (const CheckProgram &p : programs)
            failures += runOne(kind, p, opts);
    return failures == 0 ? 0 : 1;
}
