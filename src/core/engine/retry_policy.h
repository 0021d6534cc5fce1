/**
 * @file
 * Retry-policy and RH-specific configuration knobs (paper Section 3.3
 * and 3.4).
 */

#ifndef RHTM_CORE_ENGINE_RETRY_POLICY_H
#define RHTM_CORE_ENGINE_RETRY_POLICY_H

#include <algorithm>
#include <cstdint>

#include "src/core/engine/deadline.h"
#include "src/core/engine/globals.h"
#include "src/htm/abort.h"
#include "src/stats/stats.h"
#include "src/util/backoff.h"
#include "src/util/rng.h"
#include "src/util/sched_point.h"

namespace rhtm
{

/** Which contention manager the sessions run (ablation knob). */
enum class CmKind : uint8_t
{
    kStatic,    //!< Legacy doubling backoff, blind to the abort cause.
    kCauseAware //!< Cause-keyed randomized exponential backoff.
};

/**
 * The paper's static retry policy: up to 10 hardware restarts for
 * retry-worthy aborts (conflicts), immediate fallback for capacity
 * aborts; a slow path that restarts 10 times grabs the serial lock;
 * the two small RH hardware transactions are tried once each.
 */
struct RetryPolicy
{
    /** Max hardware fast-path attempts per transaction. */
    unsigned maxFastPathRetries = 10;

    /** Slow-path restarts before serializing via the serial lock. */
    unsigned maxSlowPathRestarts = 10;

    /** Attempts for each small HTM in the mixed slow path. */
    unsigned smallHtmAttempts = 1;

    /**
     * Use a dynamic fast-path budget instead of the static limit
     * (the dynamic-adaptive policy the paper cites as future work,
     * Section 3.3 / [11]).
     */
    bool adaptive = false;

    /** Bounds for the adaptive budget. */
    unsigned adaptiveMinRetries = 2;
    unsigned adaptiveMaxRetries = 24;

    /**
     * Anti-lemming kill switch: consecutive non-retryable hardware
     * aborts (across all threads, with no intervening hardware
     * commit) that trip the breaker and disable the fast path.
     * 0 disables the switch.
     */
    unsigned killSwitchThreshold = 64;

    /**
     * Decay-based re-enable: committed transactions (any path) the
     * breaker stays tripped before the fast path is re-probed.
     */
    unsigned killSwitchCooldownOps = 256;

    /** Contention manager driving inter-attempt waits. */
    CmKind cm = CmKind::kCauseAware;

    /**
     * Stall watchdog: wait iterations a waiter tolerates without the
     * watched holder's epoch advancing before it declares a stall and
     * escalates spin -> yield -> sleep. 0 disables the watchdog.
     */
    uint64_t stallBudgetTicks = 4096;

    /** Post-detection yield steps before escalating to sleeps. */
    uint32_t stallYieldPhase = 128;

    /** First post-yield sleep, microseconds (doubles per step). */
    uint32_t stallSleepMinUs = 50;

    /** Sleep-escalation cap, microseconds. */
    uint32_t stallSleepMaxUs = 2000;

    // ------------------------------------------------------------------
    // Test-only fix-reversion switches. Each one re-introduces a bug
    // this repo has already shipped a fix for, so the interleaving
    // explorer's regression programs (tests/check/regression_test.cc,
    // docs/CHECKING.md) can demonstrate that the checker would have
    // caught it. Never set outside tests.

    /**
     * Revert the AdaptiveRetryBudget first-try-commit recovery:
     * first-try hardware commits stop raising the payoff score, so a
     * low-contention workload ratchets down to adaptiveMinRetries and
     * never recovers.
     */
    bool revertFirstTryBudgetFix = false;

    /**
     * Revert the killSwitchOnComplete streak-reset fix: a thread that
     * LOSES the cooldown-decay CAS while holding a stale `cooldown ==
     * 1` snapshot resets the failure streak anyway, wiping failures
     * accumulated after the real reopen and deferring the next trip.
     */
    bool revertKillSwitchStreakFix = false;

    /**
     * Revert the policy-by-value freeze fix: AdaptiveRetryBudget
     * snapshots the policy at construction, so knob changes made after
     * session construction are silently ignored.
     */
    bool revertPolicySnapshotFix = false;

    /**
     * Revert the deadline-unwind fallback-deregistration fix: the
     * deadline unwind tail stops dropping the transaction's published
     * fallback registration, so every deadline that expires on a
     * registered slow path leaks a permanent +1 on TmGlobals::
     * fallbacks -- after which every hardware fast-path writer
     * validates and bumps the clock forever (a quiet, global
     * throughput collapse).
     */
    bool revertDeadlineUnwindFix = false;

    /**
     * Revert the timestamp-extension stable-recheck fix
     * (docs/COMMIT_PATH.md): the buggy extension value-checks
     * the read log and then adopts a RAW clock load as the new
     * txVersion_ -- without waiting for the lock bit to clear or
     * re-checking that the clock held still across the value check. A
     * reader that extends while a writer holds the clock adopts the
     * LOCKED value; its subsequent reads compare the clock against
     * that same locked word, sail through mid-writeback, and commit
     * having observed a torn write set (the ts-extension zombie-read
     * program catches the resulting non-serializable history).
     */
    bool revertTsExtensionFix = false;
};

/**
 * Why a session is about to wait before retrying. Keying the backoff
 * curve to the cause matters because the causes have very different
 * time constants: a conflict clears as soon as the winner commits
 * (short waits, aggressive growth), a capacity abort is a property of
 * the transaction itself (waiting is pointless; fall back fast), a
 * locked clock subscription means a writeback is in flight (medium,
 * bounded by the writer's set size), and an injected fault clears on
 * the injector's schedule (unknowable; middle-of-the-road curve).
 */
enum class WaitCause : uint8_t
{
    kConflict = 0, //!< Lost a cache-line race to a committing writer.
    kCapacity,     //!< Overflowed the hardware tracking model.
    kSubscription, //!< Clock/serial-lock subscription fired at begin.
    kInjected,     //!< Fault-injector abort (kOther / explicit).
    kRestart,      //!< Software slow-path value-validation restart.
    kNumCauses
};

/** Number of wait causes. */
constexpr unsigned kNumWaitCauses =
    static_cast<unsigned>(WaitCause::kNumCauses);

/** Printable name for a wait cause. */
inline const char *
waitCauseName(WaitCause cause)
{
    switch (cause) {
    case WaitCause::kConflict: return "conflict";
    case WaitCause::kCapacity: return "capacity";
    case WaitCause::kSubscription: return "subscription";
    case WaitCause::kInjected: return "injected";
    case WaitCause::kRestart: return "restart";
    default: return "unknown";
    }
}

/** Map a hardware abort to the wait cause driving the next backoff. */
inline WaitCause
waitCauseOf(const HtmAbort &abort)
{
    switch (abort.cause) {
    case HtmAbortCause::kConflict: return WaitCause::kConflict;
    case HtmAbortCause::kCapacity: return WaitCause::kCapacity;
    case HtmAbortCause::kExplicit: return WaitCause::kSubscription;
    case HtmAbortCause::kOther:
    default: return WaitCause::kInjected;
    }
}

/**
 * Cause-aware contention manager: randomized exponential backoff whose
 * base delay and cap are keyed to the wait cause, with the growth state
 * tracked per cause so a burst of conflicts does not inflate the wait
 * applied to the next (unrelated) capacity fallback.
 *
 * Randomization (jitter in [raw/2, raw]) breaks the retry convoys that
 * deterministic doubling produces when several losers of the same race
 * pick identical delays and collide again. The delays are still fully
 * deterministic for a fixed seed, which the chaos determinism suite
 * relies on.
 *
 * When the anti-lemming kill switch is tripped the manager quadruples
 * its delays: the fast path is already known-bad, so pounding the
 * coordination words only slows the slow-path transactions that are
 * making actual progress.
 *
 * CmKind::kStatic reproduces the legacy Backoff behaviour (blind
 * doubling to a fixed cap, then yield) as an ablation baseline.
 */
class ContentionManager
{
  public:
    ContentionManager(const RetryPolicy &policy, const TmGlobals *g,
                      uint64_t seed)
        : policy_(&policy), globals_(g), rng_(seed)
    {
        reset();
    }

    /**
     * Spin count for the next wait on @p cause; 0 means "yield the OS
     * thread instead" (the wait outgrew spinning).
     */
    uint32_t
    nextDelay(WaitCause cause)
    {
        if (policy_->cm == CmKind::kStatic)
            return staticDelay();
        const Curve &curve = kCurves[static_cast<unsigned>(cause)];
        uint32_t &level = level_[static_cast<unsigned>(cause)];
        uint64_t raw = uint64_t(curve.base) << level;
        if (raw < curve.cap)
            ++level;
        else
            raw = curve.cap;
        if (globals_ != nullptr && globals_->killSwitch.tripped())
            raw = std::min<uint64_t>(raw * 4, uint64_t(curve.cap) * 4);
        // Jitter into [raw/2, raw]; deterministic for a fixed seed.
        uint32_t delay = static_cast<uint32_t>(
            raw / 2 + rng_.nextBounded(raw / 2 + 1));
        // At the cap alternate spin with yield so a preempted holder
        // can run even when every waiter is saturated.
        if (raw >= curve.cap && (++attempts_ & 1) == 0)
            return 0;
        return delay;
    }

    /**
     * Execute one backoff step for @p cause (delay or yield). With a
     * @p deadline, an already-expired transaction skips the backoff
     * entirely: the wait would only delay the unwind the runtime's
     * attempt-boundary check is about to perform (docs/OVERLOAD.md).
     */
    BackoffAction
    onWait(WaitCause cause, DeadlineState *deadline = nullptr)
    {
        if (deadline != nullptr && deadline->expiredNow())
            return BackoffAction::kSpun;
        uint32_t delay = nextDelay(cause);
        if (delay == 0) {
            std::this_thread::yield();
            return BackoffAction::kYielded;
        }
        for (uint32_t i = 0; i < delay; ++i)
            cpuRelax();
        return BackoffAction::kSpun;
    }

    /** The transaction committed: drop back to the shortest waits. */
    void
    reset()
    {
        for (unsigned i = 0; i < kNumWaitCauses; ++i)
            level_[i] = 0;
        attempts_ = 0;
        staticLimit_ = 1;
    }

    /**
     * Restore the exact post-construction state (including the jitter
     * RNG), so back-to-back explored runs see identical delays. Test
     * isolation only (TxSession::resetForTest).
     */
    void
    reseedForTest(uint64_t seed)
    {
        rng_ = Rng(seed);
        reset();
    }

    /** Current doubling level for @p cause (for tests). */
    uint32_t
    level(WaitCause cause) const
    {
        return level_[static_cast<unsigned>(cause)];
    }

  private:
    struct Curve
    {
        uint32_t base; //!< First-wait spin count.
        uint32_t cap;  //!< Ceiling the doubling saturates at.
    };

    /** Per-cause delay curves (see WaitCause for the rationale). */
    static constexpr Curve kCurves[kNumWaitCauses] = {
        {16, 2048}, // kConflict: clears when the winner commits.
        {8, 256},   // kCapacity: waiting can't shrink the footprint.
        {64, 8192}, // kSubscription: a writeback is draining.
        {32, 4096}, // kInjected: unknown fault time constant.
        {32, 8192}, // kRestart: a concurrent commit moved the clock.
    };

    /** Legacy blind doubling (CmKind::kStatic ablation baseline). */
    uint32_t
    staticDelay()
    {
        if (staticLimit_ >= 1024)
            return 0;
        uint32_t delay = staticLimit_;
        staticLimit_ <<= 1;
        return delay;
    }

    const RetryPolicy *policy_;
    const TmGlobals *globals_;
    Rng rng_;
    uint32_t level_[kNumWaitCauses];
    uint32_t attempts_ = 0;
    uint32_t staticLimit_ = 1;
};

/**
 * Record a non-retryable hardware abort on the kill switch; trips the
 * breaker at the policy threshold. Called by sessions before falling
 * back.
 */
inline void
killSwitchOnHardwareFailure(TmGlobals &g, const RetryPolicy &policy,
                            ThreadStats *stats)
{
    if (policy.killSwitchThreshold == 0)
        return;
    TmGlobals::KillSwitch &ks = g.killSwitch;
    uint64_t failures =
        ks.consecutiveFailures.fetch_add(1, std::memory_order_relaxed) +
        1;
    if (failures < policy.killSwitchThreshold || ks.tripped())
        return;
    uint64_t expected = 0;
    if (ks.cooldown.compare_exchange_strong(
            expected, policy.killSwitchCooldownOps,
            std::memory_order_relaxed)) {
        ks.activations.fetch_add(1, std::memory_order_relaxed);
        if (stats)
            stats->inc(Counter::kKillSwitchActivations);
    }
}

/**
 * A hardware transaction committed: the fault (if any) has cleared
 * for at least one thread, so the failure streak resets.
 */
inline void
killSwitchOnHardwareCommit(TmGlobals &g)
{
    TmGlobals::KillSwitch &ks = g.killSwitch;
    if (ks.consecutiveFailures.load(std::memory_order_relaxed) != 0)
        ks.consecutiveFailures.store(0, std::memory_order_relaxed);
}

/**
 * A transaction committed on any path: decay the breaker's cooldown
 * so the fast path is eventually re-probed (half-open re-enable).
 * @p policy is only consulted for the test-only reversion switch;
 * call sites without one keep the fixed behaviour.
 */
inline void
killSwitchOnComplete(TmGlobals &g, const RetryPolicy *policy = nullptr)
{
    TmGlobals::KillSwitch &ks = g.killSwitch;
    uint64_t v = ks.cooldown.load(std::memory_order_relaxed);
    if (v == 0)
        return;
    // The load-to-CAS window is where the historical streak-reset bug
    // lived; expose it to the interleaving explorer.
    schedPoint(SchedPoint::kKillSwitchDecay, &ks.cooldown);
    // A lost race just means one decay step is skipped; harmless. The
    // streak reset, however, belongs to the thread whose CAS actually
    // re-opened the breaker (took cooldown 1 -> 0): a loser acting on
    // its stale v == 1 could wipe failures another thread accumulated
    // after the reopen and defer the next trip.
    uint64_t snap = v; // CAS failure overwrites v with the observed value.
    bool won = ks.cooldown.compare_exchange_strong(
        v, snap - 1, std::memory_order_relaxed);
    bool reset = won && snap == 1;
    if (policy != nullptr && policy->revertKillSwitchStreakFix)
        reset = snap == 1; // The shipped bug: losers reset on stale 1.
    if (reset)
        ks.consecutiveFailures.store(0, std::memory_order_relaxed);
}

/**
 * True when the session should skip the hardware fast path this
 * attempt. The caller counts the bypass and enters its fallback.
 */
inline bool
killSwitchBypass(const TmGlobals &g, const RetryPolicy &policy)
{
    return policy.killSwitchThreshold != 0 && g.killSwitch.tripped();
}

/**
 * EWMA-driven fast-path retry budget (Section 3.3's future-work
 * direction). Tracks whether hardware retries pay off: a transaction
 * that commits in hardware after several attempts raises the payoff
 * score, one that burns its budget and falls back anyway lowers it.
 * The budget interpolates between the policy's bounds.
 */
class AdaptiveRetryBudget
{
  public:
    explicit AdaptiveRetryBudget(const RetryPolicy &policy)
        : policy_(&policy), score_(kScale / 2)
    {
        if (policy.revertPolicySnapshotFix) {
            // Test-only bug reversion: freeze a copy at construction,
            // exactly what holding the policy by value used to do.
            snapshot_ = policy;
            policy_ = &snapshot_;
        }
    }

    AdaptiveRetryBudget(const AdaptiveRetryBudget &) = delete;
    AdaptiveRetryBudget &operator=(const AdaptiveRetryBudget &) = delete;

    /** Current fast-path attempt budget. */
    unsigned
    budget() const
    {
        if (!policy_->adaptive)
            return policy_->maxFastPathRetries;
        unsigned span =
            policy_->adaptiveMaxRetries - policy_->adaptiveMinRetries;
        return policy_->adaptiveMinRetries +
               static_cast<unsigned>(uint64_t(span) * score_ / kScale);
    }

    /** A transaction committed in hardware after @p attempts tries. */
    void
    onFastCommit(unsigned attempts)
    {
        if (attempts > 1) {
            // Retrying rescued this transaction: worth the budget.
            score_ += (kScale - score_) / 8;
        } else if (policy_->revertFirstTryBudgetFix) {
            // Test-only bug reversion: drop the recovery below.
        } else {
            // A first-try commit is weak evidence too: hardware is
            // healthy, so granting retries is cheap. Without this
            // recovery a low-contention workload whose only signal is
            // the rare fallback ratchets monotonically down to
            // adaptiveMinRetries and stays there.
            score_ += (kScale - score_) / 64;
        }
    }

    /** A transaction burned @p attempts tries and fell back anyway. */
    void
    onFallback(unsigned attempts)
    {
        (void)attempts;
        score_ -= score_ / 8;
    }

    /** Raw payoff score (for tests). */
    uint32_t score() const { return score_; }

    /** Back to the post-construction score (test isolation). */
    void resetForTest() { score_ = kScale / 2; }

  private:
    static constexpr uint32_t kScale = 1024;

    // Held by pointer, not by value: the budget must see knob changes
    // made after construction (the runtime hands every session a
    // reference to the one live RetryPolicy; a copy here silently
    // froze `adaptive` and the bounds at construction time).
    const RetryPolicy *policy_;
    RetryPolicy snapshot_; //!< Used only under revertPolicySnapshotFix.
    uint32_t score_;
};

/**
 * RH NOrec feature switches (the ablation benches toggle these) and
 * the dynamic prefix-length adjustment parameters (Section 2.4: start
 * long, halve on failure until it commits with high probability).
 */
struct RhConfig
{
    /** Run the HTM prefix (Algorithm 3). */
    bool enablePrefix = true;

    /** Run the HTM postfix (Algorithm 2). */
    bool enablePostfix = true;

    /** Adapt the prefix length from abort feedback. */
    bool adaptivePrefix = true;

    /** Initial/maximum expected prefix length, in reads. */
    uint32_t maxPrefixLength = 4096;

    /** Smallest prefix length the adjustment will try. */
    uint32_t minPrefixLength = 4;
};

} // namespace rhtm

#endif // RHTM_CORE_ENGINE_RETRY_POLICY_H
