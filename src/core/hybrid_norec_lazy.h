/**
 * @file
 * Hybrid NOrec with the *lazy* software slow path -- the design
 * alternative the paper evaluated and set aside (Section 3.1: "We
 * also implemented the lazy design of NOrec that does require read-set
 * and write-set logging, but we found that for the low concurrency in
 * our benchmarks, the eager NOrec design delivers better
 * performance").
 *
 * The slow path keeps a value-based read log and a redo write set; the
 * global HTM lock is raised only for the commit-time write-back window
 * instead of the whole write phase, so hardware fast paths survive
 * longer against slow-path writers -- at the price of logging on every
 * access and commit-time revalidation. The ablation bench quantifies
 * the trade.
 *
 * Composition over the shared engine: SessionCore + CommitSeqlock +
 * ValueReadLog + RedoBuffer; the fast path, the logging software
 * phase, and the clock-held (irrevocable) phase are three TxDispatch
 * descriptors.
 */

#ifndef RHTM_CORE_HYBRID_NOREC_LAZY_H
#define RHTM_CORE_HYBRID_NOREC_LAZY_H

#include <cstdint>

#include "src/core/engine/commit_seqlock.h"
#include "src/core/engine/journal.h"
#include "src/core/engine/mem_access.h"
#include "src/core/engine/session.h"
#include "src/core/engine/session_core.h"
#include "src/htm/htm_txn.h"
#include "src/stats/stats.h"

namespace rhtm
{

/** Per-thread lazy Hybrid NOrec session. */
class HybridNOrecLazySession : public TxSession
{
  public:
    HybridNOrecLazySession(HtmEngine &eng, TmDomain &domain,
                           HtmTxn &htm, ThreadStats *stats,
                           const RetryPolicy &policy,
                           unsigned access_penalty = 0,
                           uint64_t cm_seed = 1,
                           TxPersist *persist = nullptr);

    void begin(TxnHint hint) override;
    void commit() override;
    void becomeIrrevocable() override;
    bool isIrrevocable() const override { return core_.irrevocable; }
    void onHtmAbort(const HtmAbort &abort) override;
    void onRestart() override;
    void onUserAbort() override;
    void onComplete() override;
    const char *name() const override { return "hy-norec-lazy"; }

    void
    onDeadlineAttached() override
    {
        core_.deadline = deadline_;
    }

    void
    resetForTest() override
    {
        core_.resetForTest();
        clockHeld_ = false;
        htmLockSet_ = false;
        readLog_.clear();
        writes_.clear();
    }

    unsigned
    fastRetryBudgetForTest() const override
    {
        return core_.retryBudget.budget();
    }

    uint32_t
    adaptiveScoreForTest() const override
    {
        return core_.retryBudget.score();
    }

  private:
    static uint64_t fastRead(void *self, const uint64_t *addr);
    static void fastWrite(void *self, uint64_t *addr, uint64_t value);
    static uint64_t softRead(void *self, const uint64_t *addr);
    static void softWrite(void *self, uint64_t *addr, uint64_t value);
    static uint64_t pinnedRead(void *self, const uint64_t *addr);
    static void pinnedWrite(void *self, uint64_t *addr, uint64_t value);

    static constexpr TxDispatch kFastDispatch = {&fastRead, &fastWrite};
    static constexpr TxDispatch kSoftDispatch = {&softRead, &softWrite};
    static constexpr TxDispatch kPinnedDispatch = {&pinnedRead,
                                                   &pinnedWrite};

    void beginSoftware();

    /**
     * Value-validate the read log at a stable clock; returns the new
     * snapshot version or restarts.
     */
    uint64_t validate();

    /** Drop the clock/HTM locks held during a commit write-back. */
    void releaseCommitLocks();

    [[noreturn]] void restart();

    SessionCore core_;
    CommitSeqlock<EngineMem> seqlock_;

    bool clockHeld_ = false;
    bool htmLockSet_ = false;
    ValueReadLog readLog_;
    RedoBuffer writes_;
};

} // namespace rhtm

#endif // RHTM_CORE_HYBRID_NOREC_LAZY_H
