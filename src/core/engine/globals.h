/**
 * @file
 * The hybrid protocol's shared global variables and clock-word helpers.
 *
 * The paper's coordination state (Section 2.3): a global clock whose
 * low bit doubles as the writer lock, the global HTM lock that lets a
 * failed mixed slow-path abort every hardware transaction, the fallback
 * counter, plus the serial starvation lock of Section 3.3 and the
 * single global lock used by Lock Elision. Each word sits on its own
 * cache line so simulated-HTM conflict tracking treats them
 * independently, exactly as the real implementation padded them.
 */

#ifndef RHTM_CORE_ENGINE_GLOBALS_H
#define RHTM_CORE_ENGINE_GLOBALS_H

#include <atomic>
#include <cstdint>

namespace rhtm
{

/** Lock bit stored in the clock's LSB; versions advance by 2. */
constexpr uint64_t kClockLockBit = 1;

/** True when the clock word carries the writer lock. */
inline bool
clockIsLocked(uint64_t clock)
{
    return (clock & kClockLockBit) != 0;
}

/** The clock word with the lock bit set. */
inline uint64_t
clockWithLock(uint64_t clock)
{
    return clock | kClockLockBit;
}

/** The next unlocked clock value: clear the lock bit and advance. */
inline uint64_t
clockUnlockAndAdvance(uint64_t clock)
{
    return (clock & ~kClockLockBit) + 2;
}

/**
 * Shared words coordinating fast paths and slow paths. All accesses go
 * through HtmEngine direct/transactional operations (or RawMem for
 * pure-software runtimes), never plain loads/stores.
 */
struct TmGlobals
{
    /** NOrec global clock; LSB is the writer lock (Section 2.3 #1). */
    alignas(64) uint64_t clock = 0;

    /** Aborts all hardware fast paths when set (Section 2.3 #2). */
    alignas(64) uint64_t htmLock = 0;

    /** Number of live mixed/software slow paths (Section 2.3 #3). */
    alignas(64) uint64_t fallbacks = 0;

    /**
     * Serial starvation lock (Section 3.3), held 0/1 by the serial
     * slow path. Fast-path commits subscribe to this word alone, as in
     * the paper; fairness comes from the ticket pair below, which
     * orders acquirers FIFO instead of letting a CAS race pick winners.
     */
    alignas(64) uint64_t serialLock = 0;

    /** FIFO ticket dispenser for the serial lock (fetch-add to take). */
    alignas(64) uint64_t serialNextTicket = 0;

    /** Ticket currently being served; holder advances it on release. */
    alignas(64) uint64_t serialServing = 0;

    /** Single global lock for the Lock Elision fallback. */
    alignas(64) uint64_t globalLock = 0;

    /** Pad so the struct's last word owns its line too. */
    alignas(64) uint64_t pad = 0;

    /**
     * Anti-lemming HTM kill switch (runtime metadata, NOT TM-visible
     * memory: ordinary atomics, never engine-published, so touching
     * it cannot abort a hardware transaction).
     *
     * The lemming effect (Alistarh et al.): persistently failing
     * hardware transactions herd every thread onto the fallback, and
     * the fallback's metadata traffic then keeps killing fresh
     * hardware attempts. The breaker counts consecutive non-retryable
     * hardware aborts across all threads; at the policy threshold it
     * trips, sessions bypass the fast path outright, and a per-commit
     * decay re-opens it so the hardware path is re-probed once the
     * fault clears (classic circuit-breaker half-open behaviour).
     */
    struct KillSwitch
    {
        /** Non-retryable aborts since the last hardware commit. */
        std::atomic<uint64_t> consecutiveFailures{0};

        /** Commits left before re-probing; nonzero = tripped. */
        std::atomic<uint64_t> cooldown{0};

        /** Times the breaker has tripped (mirrors the stats counter). */
        std::atomic<uint64_t> activations{0};

        /** True while fast paths should be bypassed. */
        bool
        tripped() const
        {
            return cooldown.load(std::memory_order_relaxed) != 0;
        }
    };

    alignas(64) KillSwitch killSwitch;

    /**
     * Stall watchdog (runtime metadata, NOT TM-visible memory: like the
     * kill switch, ordinary atomics, never engine-published).
     *
     * Holders of the coordination words stamp a monotonic epoch on
     * every acquisition and release: the commit-clock lock (and the
     * HTM/global locks that serialize the same way) bump clockEpoch,
     * the serial ticket lock bumps serialEpoch. A waiter that burns its
     * stall budget without seeing the watched epoch move concludes the
     * holder is preempted or fault-delayed, counts a stall, raises the
     * stalled-waiter health gauge, and escalates spin -> yield -> sleep
     * so the stalled holder can be scheduled back in (see
     * docs/PROGRESS.md).
     */
    struct Watchdog
    {
        /** Bumped on every clock/HTM/global-lock acquire and release. */
        std::atomic<uint64_t> clockEpoch{0};

        /** Bumped on every serial-ticket grant and release. */
        std::atomic<uint64_t> serialEpoch{0};

        /** Waiters currently seeing a stalled holder (health gauge). */
        std::atomic<uint64_t> stalledWaiters{0};

        /** Total stall declarations over the runtime's lifetime. */
        std::atomic<uint64_t> stallEvents{0};

        /** True while no waiter has declared its holder stalled. */
        bool
        healthy() const
        {
            return stalledWaiters.load(std::memory_order_relaxed) == 0;
        }
    };

    alignas(64) Watchdog watchdog;

    /**
     * Restore every coordination word, the kill switch, and the
     * watchdog to their power-on values. Test isolation only: the
     * interleaving explorer (src/check/) calls this between explored
     * runs so back-to-back runs start from identical global state.
     * Callers must guarantee quiescence (no transaction in flight).
     */
    void
    resetForTest()
    {
        clock = 0;
        htmLock = 0;
        fallbacks = 0;
        serialLock = 0;
        serialNextTicket = 0;
        serialServing = 0;
        globalLock = 0;
        pad = 0;
        killSwitch.consecutiveFailures.store(0,
                                             std::memory_order_relaxed);
        killSwitch.cooldown.store(0, std::memory_order_relaxed);
        killSwitch.activations.store(0, std::memory_order_relaxed);
        watchdog.clockEpoch.store(0, std::memory_order_relaxed);
        watchdog.serialEpoch.store(0, std::memory_order_relaxed);
        watchdog.stalledWaiters.store(0, std::memory_order_relaxed);
        watchdog.stallEvents.store(0, std::memory_order_relaxed);
    }
};

/** Stamp holder progress on a watchdog epoch word. */
inline void
stampEpoch(std::atomic<uint64_t> &epoch)
{
    epoch.fetch_add(1, std::memory_order_relaxed);
}

} // namespace rhtm

#endif // RHTM_CORE_ENGINE_GLOBALS_H
