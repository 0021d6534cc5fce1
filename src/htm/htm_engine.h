/**
 * @file
 * The simulated best-effort HTM engine (process-global state).
 *
 * Substitution note (see DESIGN.md): this engine stands in for Intel
 * RTM. It provides the four properties the RH NOrec correctness
 * argument relies on:
 *
 *  1. Hardware-transaction writes are invisible until commit, and a
 *     commit publishes them atomically (Figure 2's argument).
 *  2. A hardware transaction aborts as soon as any cache line it has
 *     read is written by another commit *or by a plain store* -- the
 *     "subscription" idiom (read a lock word; a later store to it kills
 *     the transaction).
 *  3. A running hardware transaction never observes an inconsistent
 *     snapshot (hardware opacity).
 *  4. Tracking capacity is bounded, and aborts say whether retrying may
 *     help.
 *
 * Mechanically: a striped per-cache-line version table whose words
 * double as versioned locks (bit 0 set = locked), plus a global
 * publication sequence that every commit and direct store advances by
 * 2 before it writes a value. A commit locks only the stripes of its
 * write set, so it stalls only the readers of its own lines, the way
 * coherence-based conflict detection does. Transactional reads log
 * (stripe, version) pairs and are fully re-validated whenever the
 * sequence advances, so conflicts abort the reader at its next
 * transactional access -- observably equivalent to RTM's asynchronous
 * coherence abort given that simulated transactions touch shared state
 * only through this API. DESIGN.md section 6.1 gives the opacity
 * argument.
 */

#ifndef RHTM_HTM_HTM_ENGINE_H
#define RHTM_HTM_HTM_ENGINE_H

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/htm/htm_config.h"
#include "src/util/backoff.h"
#include "src/util/sched_point.h"

namespace rhtm
{

/**
 * Process-global simulated-HTM state shared by all threads of one TM
 * runtime. All members are thread safe.
 */
class HtmEngine
{
  public:
    /** Cache-line size used for conflict granularity (bytes, log2). */
    static constexpr unsigned kLineShift = 6;

    explicit HtmEngine(const HtmConfig &cfg = HtmConfig());

    HtmEngine(const HtmEngine &) = delete;
    HtmEngine &operator=(const HtmEngine &) = delete;

    /** The configuration this engine was built with. */
    const HtmConfig &config() const { return cfg_; }

    /**
     * Non-transactional load, atomic with respect to hardware-commit
     * publication: it waits while its own stripe is locked, so it never
     * returns a value of a commit that is still writing (which real
     * hardware makes impossible).
     */
    uint64_t directLoad(const uint64_t *addr) const;

    /**
     * Non-transactional store. Bumps the line version, dooming every
     * live hardware transaction that has read the line (subscription).
     */
    void directStore(uint64_t *addr, uint64_t value);

    /**
     * Non-transactional compare-and-swap; returns true on success and
     * refreshes @p expected with the observed value on failure. A
     * failed CAS leaves the line version unchanged.
     */
    bool directCas(uint64_t *addr, uint64_t &expected, uint64_t desired);

    /** Non-transactional fetch-and-add; returns the previous value. */
    uint64_t directFetchAdd(uint64_t *addr, uint64_t delta);

    /**
     * Current publication sequence. Always even: each commit or direct
     * store advances it by 2 before writing its first value.
     */
    uint64_t
    seq() const
    {
        return seq_.load(std::memory_order_acquire);
    }

    /** Stripe index tracking @p addr's cache line. */
    size_t
    stripeOf(const void *addr) const
    {
        uint64_t line = reinterpret_cast<uint64_t>(addr) >> kLineShift;
        return (line * 0x9e3779b97f4a7c15ull) >> stripeShift_;
    }

    /** Current version of stripe @p stripe (odd while locked). */
    uint64_t
    stripeVersion(size_t stripe) const
    {
        return stripes_[stripe].load(std::memory_order_acquire);
    }

  private:
    friend class HtmTxn;

    /**
     * Wait-loop step for a thread that found a stripe locked: a
     * scheduling wait point, then PAUSE, and an OS yield every 64th
     * step so an oversubscribed host runs the holder.
     */
    static void
    lockedStripeWait(uint32_t &spins, const void *addr)
    {
        schedWaitPoint(SchedPoint::kWaitSpin, addr);
        if (++spins >= 64) {
            std::this_thread::yield();
            spins = 0;
        } else {
            cpuRelax();
        }
    }

    /** Spin until @p stripe is unlocked; return its (even) version. */
    uint64_t
    waitUnlocked(size_t stripe) const
    {
        uint64_t v = stripeVersion(stripe);
        for (uint32_t spins = 0; v & 1; v = stripeVersion(stripe))
            lockedStripeWait(spins, &stripes_[stripe]);
        return v;
    }

    /**
     * Lock stripe @p s (the stripe of @p addr), waiting out any holder;
     * return its version before the lock.
     */
    static uint64_t lockStripe(std::atomic<uint64_t> &s, const void *addr);

    /**
     * The publication step shared by every writer that holds the locks
     * of the stripes it writes: advance the sequence past them, so a
     * reader that later sees a new value also sees a new sequence.
     */
    void
    announcePublication()
    {
        seq_.fetch_add(2, std::memory_order_acq_rel);
    }

    HtmConfig cfg_;
    unsigned stripeShift_;
    std::atomic<uint64_t> seq_;
    std::vector<std::atomic<uint64_t>> stripes_;
};

} // namespace rhtm

#endif // RHTM_HTM_HTM_ENGINE_H
