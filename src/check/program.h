/**
 * @file
 * Small declarative transaction programs for the interleaving
 * explorer, the curated correctness matrix, and the reverted-fix
 * regression programs (docs/CHECKING.md).
 */

#ifndef RHTM_CHECK_PROGRAM_H
#define RHTM_CHECK_PROGRAM_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/api/runtime.h"

namespace rhtm::check
{

/** One transactional operation inside a TxnSpec. */
enum class TxOpKind : uint8_t
{
    kRead = 0,    //!< Load var; the observed value is recorded.
    kWrite,       //!< Store value to var.
    kAdd,         //!< Load var, store var + value (records both).
    kIrrevocable, //!< becomeIrrevocable() (may restart pre-grant).
};

/** One operation. */
struct TxOp
{
    TxOpKind kind;
    unsigned var = 0;
    uint64_t value = 0;
};

/** One transaction: its body ops and the runtime hint. */
struct TxnSpec
{
    std::vector<TxOp> ops;
    TxnHint hint = TxnHint::kNone;

    /**
     * Attempt budget: when nonzero the transaction runs through
     * TmRuntime::runWith with this TxnOptions::maxAttempts and is
     * allowed to end kDeadlineExceeded instead of committing. Explorer
     * programs bound transactions by attempts, never by wall-clock
     * deadline -- an attempt count is deterministic on a replayed
     * schedule, a clock is not (docs/OVERLOAD.md). Place a bounded
     * transaction LAST in its thread: an uncommitted outcome leaves
     * its recorded history span open, and the checker rejects a later
     * begin on the same thread.
     */
    unsigned maxAttempts = 0;
};

/** One logical thread: its transactions, in order. */
struct ThreadSpec
{
    std::vector<TxnSpec> txns;

    /**
     * Spin (at a scheduler wait point) until the anti-lemming kill
     * switch is open before running any transaction. The kill-switch
     * regression program gates its probing thread on the reopen this
     * way.
     */
    bool waitKillSwitchOpen = false;
};

/**
 * A complete explorable program: shared variables, threads, and
 * optional hooks. Everything must stay deterministic: hooks may not
 * consult time, randomness, or anything outside the runtime.
 */
struct CheckProgram
{
    std::string name;

    /** Number of shared variables (var ids are 0..vars-1). */
    unsigned vars = 0;

    /** Initial value per var (missing entries start at 0). */
    std::vector<uint64_t> init;

    std::vector<ThreadSpec> threads;

    /** Adjust the RuntimeConfig before the runtime is built. */
    std::function<void(RuntimeConfig &)> configure;

    /**
     * Runs once after every thread registered (and never again):
     * post-construction knob changes, e.g. the policy-freeze
     * regression's live-policy mutation.
     */
    std::function<void(TmRuntime &)> postRegister;

    /** Runs before every explored run, after resetForTest. */
    std::function<void(TmRuntime &)> setup;

    /**
     * Checked after each completed run; returns false (with @p why
     * filled) when the program-level invariant is violated. May read
     * runtime state freely: every worker has finished.
     */
    std::function<bool(TmRuntime &, std::string *why)> invariant;
};

/**
 * The curated correctness matrix (the ci.sh `check` leg runs each of
 * these under every AlgoKind): write-skew, read-only snapshot,
 * prefix race, postfix race, and an irrevocable-upgrade race.
 */
std::vector<CheckProgram> curatedPrograms();

/** Look a curated program up by name; false when unknown. */
bool curatedProgram(const std::string &name, CheckProgram &out);

// ----------------------------------------------------------------------
// Reverted-fix regression programs. Each builds the workload whose
// invariant the historical bug breaks; pass reverted=true to flip the
// matching RetryPolicy::revert* switch and re-introduce the bug.

/**
 * AdaptiveRetryBudget first-try-commit recovery: one injected
 * non-retryable abort knocks thread 0's payoff score down; a train of
 * first-try hardware commits must pull it back up. Deterministic on
 * every schedule in both directions.
 */
CheckProgram makeFirstTryBudgetProgram(bool reverted);

/**
 * killSwitchOnComplete streak reset: a decayer parked between its
 * cooldown load and CAS holds a stale "1"; under the bug its failed
 * CAS still wipes failures a gated prober accumulated after the real
 * reopen, so the breaker misses a trip. Fails only on schedules that
 * park the decayer across the reopen and the prober's first failure.
 */
CheckProgram makeKillSwitchStreakProgram(bool reverted);

/**
 * Policy-by-value freeze: the adaptive budget must see knob changes
 * made after session construction. The program flips the live policy
 * to adaptive with a pinned budget post-registration; under the bug
 * the frozen snapshot keeps serving the stale static budget. Fails
 * deterministically on every schedule.
 */
CheckProgram makePolicySnapshotProgram(bool reverted);

/**
 * Deadline-unwind fallback deregistration: a transaction that exhausts
 * its attempt budget on the software slow path must drop its published
 * fallback registration on the way out. Under the reverted fix the
 * unwind tail skips the deregistration, leaving a permanent +1 on
 * TmGlobals::fallbacks -- invisible to the victim (it unwound
 * cleanly) but taxing every later hardware writer with a clock bump
 * forever. Deterministic on every schedule: the injected read faults
 * force thread 0 through fast-abort, slow-restart, and out at the
 * attempt boundary regardless of interleaving.
 */
CheckProgram makeDeadlineUnwindProgram(bool reverted);

/**
 * Timestamp-extension zombie read (docs/COMMIT_PATH.md): a reader extends its snapshot across an eager
 * writer's in-place writeback. The correct extension only ever adopts
 * a stable (unlocked) clock that held still across the value walk;
 * the reverted fix value-checks against the mid-writeback image and
 * adopts the raw -- possibly locked -- clock, after which the
 * reader's later reads compare equal to the locked value and sail
 * past validation while the writer is still writing. The reader then
 * commits a mix of pre- and post-writeback values and the history
 * checker rejects the run. Schedule-dependent: only interleavings
 * that park the reader inside the writer's clock-held window fail.
 */
CheckProgram makeTsExtensionProgram(bool reverted);

} // namespace rhtm::check

#endif // RHTM_CHECK_PROGRAM_H
