/**
 * @file
 * Crash/recover soak for the simulated-NVM persistence overlay
 * (docs/PERSISTENCE.md).
 *
 * For every (algorithm, crash site, thread count) cell: run a fixed
 * number of tagged-write transactions over a durable array with a
 * scripted crash schedule hitting that site several times, then
 * recover every captured snapshot AND the final durable image, and
 * verify each against the seal-order history with the recovery-
 * consistency checker (src/check/recovery.h). The CSV rows carry the
 * recovery columns (crashes injected, records replayed/discarded,
 * recovery time); --json additionally emits a machine-readable
 * BENCH_6-style report.
 *
 * Usage: bench_crash [--threads=1,2,4] [--algos=all] [--ops=300]
 *                    [--words=256] [--sites=pre-seal,post-seal,
 *                     mid-writeback,post-marker]
 *                    [--seed=N] [--crash-seed=N] [--torn]
 *                    [--reordered] [--revert=replay-unsealed]
 *                    [--json=FILE]
 *
 * Exit status: 0 when every recovery check passed, 1 otherwise (the
 * --revert=replay-unsealed leg in tools/ci.sh asserts the 1).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/check/recovery.h"
#include "src/util/barrier.h"
#include "src/util/rng.h"

namespace rhtm
{
namespace
{

struct SiteSpec
{
    const char *key;
    FaultSite site;
};

constexpr SiteSpec kSites[] = {
    {"pre-seal", FaultSite::kCrashPreLogSeal},
    {"post-seal", FaultSite::kCrashPostSealPreWriteback},
    {"mid-writeback", FaultSite::kCrashMidWriteback},
    {"post-marker", FaultSite::kCrashPostMarker},
};

bool
siteFromKey(const std::string &key, FaultSite *out)
{
    for (const SiteSpec &s : kSites) {
        if (key == s.key) {
            *out = s.site;
            return true;
        }
    }
    return false;
}

const char *
siteKey(FaultSite site)
{
    for (const SiteSpec &s : kSites) {
        if (site == s.site)
            return s.key;
    }
    return "unknown";
}

/** Everything bench_crash adds on top of the common sweep flags. */
struct CrashConfig
{
    uint64_t opsPerThread = 300;
    size_t words = 256;
    uint64_t crashSeed = 0; //!< 0 inherits --seed.
    bool torn = false;
    bool reordered = false;
    bool revertReplayUnsealed = false;
    std::vector<FaultSite> sites;
    std::string jsonPath;
};

/** One cell's outcome, CSV fields plus the JSON extras. */
struct CrashCell
{
    bench::CellResult csv;
    FaultSite site;
    uint64_t snapshots = 0;
    uint64_t recordsSealed = 0;
    uint64_t marksWritten = 0;
    uint64_t escalations = 0;
    uint64_t entriesReplayed = 0;
};

/**
 * Spread the scripted crashes across the run: early (first commits),
 * mid-soak, and deep. Hits are global across threads.
 */
constexpr uint64_t kCrashHits[] = {1, 2, 5, 13, 34, 89};

CrashCell
runCrashCell(AlgoKind algo, FaultSite site, unsigned threads,
             const bench::BenchConfig &cfg, const CrashConfig &cc)
{
    RuntimeConfig rt_cfg = cfg.runtime;
    rt_cfg.rngSeed = cfg.seed;
    rt_cfg.persist.enabled = true;
    rt_cfg.persist.seed = cc.crashSeed ? cc.crashSeed : cfg.seed;
    rt_cfg.persist.tornWrites = cc.torn;
    rt_cfg.persist.reorderedFlushes = cc.reordered;
    for (uint64_t hit : kCrashHits)
        rt_cfg.persist.crashes.at(site, hit);

    TmRuntime rt(algo, rt_cfg);

    // The durable heap: a plain array registered with the device. The
    // workload writes distinct tagged values so any replay confusion
    // (wrong record, wrong order, wrong slot) changes the state.
    std::vector<uint64_t> arr(cc.words, 0);
    rt.nvm()->registerRegion(arr.data(), arr.size());

    std::vector<ThreadCtx *> ctxs(threads);
    for (unsigned t = 0; t < threads; ++t)
        ctxs[t] = &rt.registerThread();

    SenseBarrier barrier(threads + 1);
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            Rng rng(cfg.seed * 1000003 + t * 7919 + 1);
            uint64_t *base = arr.data();
            size_t words = arr.size();
            barrier.arriveAndWait();
            for (uint64_t op = 0; op < cc.opsPerThread; ++op) {
                // Unique tag per (thread, op): top bits identify the
                // writer, low bits the op, so every committed value is
                // globally distinct.
                uint64_t tag =
                    (uint64_t(t + 1) << 40) | ((op + 1) << 8);
                size_t burst = 1 + rng.nextBounded(4);
                rt.run(*ctxs[t], [&](Txn &tx) {
                    for (size_t i = 0; i < burst; ++i) {
                        uint64_t *slot =
                            base + rng.nextBounded(uint64_t(words));
                        uint64_t old = tx.load(slot);
                        (void)old;
                        tx.store(slot, tag + i);
                    }
                });
            }
        });
    }
    barrier.arriveAndWait();
    auto t0 = std::chrono::steady_clock::now();
    for (auto &w : workers)
        w.join();
    double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    NvmSim &nvm = *rt.nvm();
    RecoveryOptions opts;
    opts.bugReplayUnsealed = cc.revertReplayUnsealed;

    CrashCell cell;
    cell.site = site;
    cell.csv.algo = algo;
    cell.csv.threads = threads;
    cell.csv.seconds = elapsed;
    cell.csv.ops = cc.opsPerThread * threads;
    cell.csv.stats = rt.stats();
    cell.csv.verified = true;

    // Recover and check every captured crash snapshot.
    for (const CrashSnapshot &snap : nvm.snapshots()) {
        RecoveryReport report;
        RecoveryCheckResult check = recoverAndCheck(snap, opts, &report);
        cell.csv.recordsReplayed += report.recordsReplayed;
        cell.csv.recordsDiscarded += report.recordsDiscarded;
        cell.csv.recoveryMs += report.seconds * 1000.0;
        cell.entriesReplayed += report.entriesReplayed;
        if (check.verdict != RecoveryVerdict::kOk) {
            cell.csv.verified = false;
            std::fprintf(stderr,
                         "RECOVERY FAILED: %s@%u site=%s hit=%llu "
                         "tid=%u verdict=%s: %s\n",
                         algoKindName(algo), threads, siteKey(snap.site),
                         static_cast<unsigned long long>(snap.siteHit),
                         snap.tid, recoveryVerdictName(check.verdict),
                         check.detail.c_str());
        }
    }

    // The quiescent final image must also recover to the full history.
    {
        NvmImage final_image = nvm.durableImage();
        auto history = nvm.historyCopy();
        RecoveryReport report = recoverImage(final_image, opts);
        cell.csv.recordsReplayed += report.recordsReplayed;
        cell.csv.recordsDiscarded += report.recordsDiscarded;
        cell.csv.recoveryMs += report.seconds * 1000.0;
        cell.entriesReplayed += report.entriesReplayed;
        RecoveryCheckResult check = checkRecoveryConsistency(
            nvm.initialData(), history, nvm.durableImage(),
            final_image.data);
        bool full = check.prefixLength == history.size();
        if (check.verdict != RecoveryVerdict::kOk || !full) {
            cell.csv.verified = false;
            std::fprintf(stderr,
                         "FINAL-IMAGE RECOVERY FAILED: %s@%u site=%s "
                         "verdict=%s prefix=%llu/%llu: %s\n",
                         algoKindName(algo), threads, siteKey(site),
                         recoveryVerdictName(check.verdict),
                         static_cast<unsigned long long>(
                             check.prefixLength),
                         static_cast<unsigned long long>(history.size()),
                         check.detail.c_str());
        }
    }

    cell.csv.crashesInjected = nvm.crashesCaptured();
    cell.snapshots = nvm.snapshots().size();
    cell.recordsSealed = nvm.recordsSealed();
    cell.marksWritten = nvm.marksWritten();
    cell.escalations =
        cell.csv.stats.get(Counter::kPersistEscalations);
    return cell;
}

void
writeJson(const std::string &path, const bench::BenchConfig &cfg,
          const CrashConfig &cc, const std::vector<CrashCell> &cells)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"bench\": \"crash\",\n");
    std::fprintf(f, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(cfg.seed));
    std::fprintf(
        f, "  \"crash_seed\": %llu,\n",
        static_cast<unsigned long long>(cc.crashSeed ? cc.crashSeed
                                                     : cfg.seed));
    std::fprintf(f, "  \"torn_writes\": %s,\n",
                 cc.torn ? "true" : "false");
    std::fprintf(f, "  \"reordered_flushes\": %s,\n",
                 cc.reordered ? "true" : "false");
    std::fprintf(f, "  \"ops_per_thread\": %llu,\n",
                 static_cast<unsigned long long>(cc.opsPerThread));
    std::fprintf(f, "  \"durable_words\": %llu,\n",
                 static_cast<unsigned long long>(cc.words));
    std::fprintf(f, "  \"cells\": [\n");
    for (size_t i = 0; i < cells.size(); ++i) {
        const CrashCell &c = cells[i];
        std::fprintf(
            f,
            "    {\"algo\": \"%s\", \"site\": \"%s\", \"threads\": %u, "
            "\"ops\": %llu, \"seconds\": %.4f, "
            "\"crashes_injected\": %llu, \"snapshots\": %llu, "
            "\"records_sealed\": %llu, \"marks_written\": %llu, "
            "\"records_replayed\": %llu, \"records_discarded\": %llu, "
            "\"entries_replayed\": %llu, \"recovery_ms\": %.3f, "
            "\"persist_escalations\": %llu, \"verified\": %s}%s\n",
            algoKindName(c.csv.algo), siteKey(c.site), c.csv.threads,
            static_cast<unsigned long long>(c.csv.ops), c.csv.seconds,
            static_cast<unsigned long long>(c.csv.crashesInjected),
            static_cast<unsigned long long>(c.snapshots),
            static_cast<unsigned long long>(c.recordsSealed),
            static_cast<unsigned long long>(c.marksWritten),
            static_cast<unsigned long long>(c.csv.recordsReplayed),
            static_cast<unsigned long long>(c.csv.recordsDiscarded),
            static_cast<unsigned long long>(c.entriesReplayed),
            c.csv.recoveryMs,
            static_cast<unsigned long long>(c.escalations),
            c.csv.verified ? "true" : "false",
            i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

} // namespace
} // namespace rhtm

int
main(int argc, char **argv)
{
    using namespace rhtm;
    CliOptions opts(argc, argv);
    bench::BenchConfig cfg = bench::parseBenchConfig(
        opts, {"ops", "words", "crash-seed", "torn", "reordered", "json",
               "revert", "sites"});

    CrashConfig cc;
    cc.opsPerThread =
        static_cast<uint64_t>(opts.getInt("ops", 300));
    cc.words = static_cast<size_t>(opts.getInt("words", 256));
    cc.crashSeed =
        static_cast<uint64_t>(opts.getInt("crash-seed", 0));
    cc.torn = opts.has("torn");
    cc.reordered = opts.has("reordered");
    cc.jsonPath = opts.getString("json", "");
    std::string revert = opts.getString("revert", "");
    if (!revert.empty()) {
        if (revert != "replay-unsealed") {
            std::fprintf(stderr, "unknown --revert bug: %s\n",
                         revert.c_str());
            return 2;
        }
        cc.revertReplayUnsealed = true;
    }

    std::string sites = opts.getString(
        "sites", "pre-seal,post-seal,mid-writeback,post-marker");
    size_t pos = 0;
    while (pos <= sites.size()) {
        size_t comma = sites.find(',', pos);
        std::string key = sites.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        if (!key.empty()) {
            FaultSite site;
            if (!siteFromKey(key, &site)) {
                std::fprintf(stderr, "unknown crash site: %s\n",
                             key.c_str());
                return 2;
            }
            cc.sites.push_back(site);
        }
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    if (cc.sites.empty()) {
        std::fprintf(stderr, "--sites needs at least one site\n");
        return 2;
    }

    bench::printCsvHeader();
    std::vector<CrashCell> cells;
    bool all_ok = true;
    for (AlgoKind algo : cfg.algos) {
        for (FaultSite site : cc.sites) {
            for (int64_t threads : cfg.threads) {
                CrashCell cell = runCrashCell(
                    algo, site, static_cast<unsigned>(threads), cfg,
                    cc);
                std::string name =
                    std::string("crash-") + siteKey(site);
                bench::printCsvRow(name, cell.csv);
                all_ok &= cell.csv.verified;
                cells.push_back(std::move(cell));
            }
        }
    }
    if (!cc.jsonPath.empty())
        writeJson(cc.jsonPath, cfg, cc, cells);
    std::printf("# summary crash: %zu cells, %s\n", cells.size(),
                all_ok ? "all recovered consistently"
                       : "RECOVERY INCONSISTENCIES FOUND");
    return all_ok ? 0 : 1;
}
