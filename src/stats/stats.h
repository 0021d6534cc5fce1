/**
 * @file
 * Execution statistics matching the analysis rows of the paper's
 * Figures 4-6: HTM conflict/capacity aborts per operation, slow-path
 * restarts per slow-path transaction, slow-path execution ratio, and
 * the RH prefix/postfix success ratios.
 */

#ifndef RHTM_STATS_STATS_H
#define RHTM_STATS_STATS_H

#include <array>
#include <cstdint>
#include <string>

namespace rhtm
{

/** Countable events; one slot per event per thread. */
enum class Counter : unsigned
{
    kCommitsFastPath = 0,   //!< Pure hardware fast-path commits.
    kCommitsMixedPath,      //!< Mixed (RH) slow-path commits.
    kCommitsSoftwarePath,   //!< All-software slow-path commits.
    kCommitsSerialPath,     //!< Commits under the serial/global lock.
    kHtmConflictAborts,     //!< Simulated HTM conflict aborts.
    kHtmCapacityAborts,     //!< Simulated HTM capacity aborts.
    kHtmExplicitAborts,     //!< Explicit HTM_Abort() calls.
    kHtmOtherAborts,        //!< Injected "interrupt"-style aborts.
    kHtmInjectedAborts,     //!< Aborts fired by the fault injector.
    kHtmSubscriptionAborts, //!< Lock-subscription aborts at begin.
    kFastPathAttempts,      //!< Hardware fast-path begins.
    kKillSwitchActivations, //!< Anti-lemming kill switch trips.
    kKillSwitchBypasses,    //!< Fast-path begins skipped while tripped.
    kFallbacks,             //!< Fast path gave up; entered slow path.
    kSlowPathRestarts,      //!< Slow-path consistency restarts.
    kPrefixAttempts,        //!< RH HTM-prefix transactions started.
    kPrefixSuccesses,       //!< RH HTM-prefix transactions committed.
    kPostfixAttempts,       //!< RH HTM-postfix transactions started.
    kPostfixSuccesses,      //!< RH HTM-postfix transactions committed.
    kOperations,            //!< Committed top-level transactions.
    kReadOnlyCommits,       //!< Transactions committed read-only.
    kSerialAcquires,        //!< Serial ticket-lock acquisitions.
    kSerialWaitTicks,       //!< Wait iterations spent queued for it.
    kStallsDetected,        //!< Watchdog: holder exceeded stall budget.
    kStallYields,           //!< Watchdog escalation: yield steps.
    kStallSleeps,           //!< Watchdog escalation: sleep steps.
    kStallRecoveries,       //!< Stalled waits that cleared and resumed.
    kIrrevocableUpgrades,   //!< becomeIrrevocable() grants.
    kCommitActionsRun,      //!< Deferred onCommit handlers executed.
    kAbortActionsRun,       //!< Deferred onAbort handlers executed.
    kUserExceptionAborts,   //!< Bodies unwound by a user exception.
    kFastPathReads,         //!< Transactional reads inside HTM attempts.
    kFastPathWrites,        //!< Transactional writes inside HTM attempts.
    kSlowPathReads,         //!< Instrumented software/mixed-path reads.
    kSlowPathWrites,        //!< Instrumented software/mixed-path writes.
    kPersistEscalations,    //!< Fast paths escalated for durability.
    kDurableRecordsSealed,  //!< Redo-log records sealed (durable txns).
    kDurableEntriesLogged,  //!< (offset,value) pairs appended to the log.
    kDurableMarksWritten,   //!< Commit markers made durable.
    kDeadlineExceeded,      //!< Transactions unwound at their deadline.
    kAdmissionShed,         //!< Transactions shed by the admission gate.
    kAdmissionQueuedTicks,  //!< Wait iterations spent queued at the gate.
    kCrossShardCommits,     //!< Multi-domain transactions committed.
    kCrossShardRestarts,    //!< Multi-domain prepare/validate failures.
    kCrossShardEscalations, //!< Multi-domain commits that went serial.
    kRevalidations,         //!< Full value-log revalidations run.
    kRevalidationsSkipped,  //!< No longer incremented (filter ring gone).
    kTsExtensions,          //!< Eager-path timestamp extensions taken.
    kNumCounters
};

/** Number of counter slots. */
constexpr unsigned kNumCounters =
    static_cast<unsigned>(Counter::kNumCounters);

/**
 * Cache-line padded per-thread counter block. Single-writer; readers
 * aggregate after the run, so plain (non-atomic within a thread) counts
 * would suffice, but the slots are written by exactly one thread and
 * read only at quiescence, making plain uint64_t safe.
 */
struct alignas(64) ThreadStats
{
    std::array<uint64_t, kNumCounters> counts{};

    /** Increment @p c by @p delta. */
    void
    inc(Counter c, uint64_t delta = 1)
    {
        counts[static_cast<unsigned>(c)] += delta;
    }

    /** Current value of @p c. */
    uint64_t
    get(Counter c) const
    {
        return counts[static_cast<unsigned>(c)];
    }

    /** Zero every slot. */
    void reset() { counts.fill(0); }
};

/**
 * Aggregated totals plus the derived metrics the paper plots.
 */
struct StatsSummary
{
    std::array<uint64_t, kNumCounters> totals{};

    /** Total of @p c across threads. */
    uint64_t
    get(Counter c) const
    {
        return totals[static_cast<unsigned>(c)];
    }

    /** Committed top-level transactions. */
    uint64_t operations() const { return get(Counter::kOperations); }

    /** HTM conflict aborts per committed operation (figure row 2). */
    double conflictAbortsPerOp() const;

    /** HTM capacity aborts per committed operation (figure row 2). */
    double capacityAbortsPerOp() const;

    /** Injector-fired HTM aborts per committed operation. */
    double injectedAbortsPerOp() const;

    /** Lock-subscription aborts per committed operation. */
    double subscriptionAbortsPerOp() const;

    /** Restarts per slow-path transaction (figure row 3). */
    double restartsPerSlowPath() const;

    /**
     * Fraction of operations that fell back off the pure hardware
     * fast path (figure row 4).
     */
    double slowPathRatio() const;

    /** HTM-prefix success ratio (figure row 5). */
    double prefixSuccessRatio() const;

    /** HTM-postfix success ratio (figure row 5). */
    double postfixSuccessRatio() const;

    /** Total transactional reads+writes, every path and attempt. */
    uint64_t accesses() const;

    /** Transactional accesses per committed operation. */
    double accessesPerOp() const;

    /** Merge another thread's counters into the totals. */
    void accumulate(const ThreadStats &ts);

    /** Human-readable multi-line dump (one metric per line). */
    std::string toString() const;
};

} // namespace rhtm

#endif // RHTM_STATS_STATS_H
