/**
 * @file
 * Engine types shared by the TM algorithms: restart signalling, hints,
 * the per-mode dispatch descriptor, and the per-thread session base
 * every algorithm implements.
 *
 * Hot-path dispatch is devirtualized: Txn::read/write land on
 * non-virtual TxSession::read/write, which jump through a per-session
 * TxDispatch descriptor (a pair of free-function pointers) that the
 * session rebinds on every mode transition. A fast-path HTM attempt, a
 * validating software read phase, and a clock-held in-place write phase
 * are therefore *different descriptors*, not branches inside one
 * virtual read(): each accessor is a static function over the session's
 * state block with no per-access mode test and no vtable indirection.
 */

#ifndef RHTM_CORE_ENGINE_SESSION_H
#define RHTM_CORE_ENGINE_SESSION_H

#include <cstdint>
#include <cstdlib>

#include "src/htm/abort.h"

namespace rhtm
{

class DeadlineState;

/**
 * Thrown by an algorithm to abort and restart the current transaction
 * attempt (the library analogue of libitm's longjmp back to the
 * transaction entry). Caught by TmRuntime's retry loop; never escapes
 * to user code.
 */
struct TxRestart
{
};

/**
 * Caller-provided static hints, standing in for the GCC TM compiler
 * analysis the paper's implementation used (Section 3: "detection of
 * read-only fast-paths is based on the GCC compiler static analysis").
 */
enum class TxnHint : uint8_t
{
    kNone = 0,
    kReadOnly, //!< The body performs no transactional writes.
};

/**
 * Per-mode accessor descriptor. Each algorithm defines one constexpr
 * table per execution phase (HTM fast path, software read phase,
 * clock-held write phase, small-HTM postfix, ...) whose entries are
 * static functions over the session's state; begin() and every mode
 * transition bind the table matching the new phase. The descriptor is
 * immutable and shared by all sessions of the algorithm.
 */
struct TxDispatch
{
    uint64_t (*read)(void *self, const uint64_t *addr);
    void (*write)(void *self, uint64_t *addr, uint64_t value);
};

namespace detail
{
/** Accessing a session with no bound descriptor is a session bug. */
[[noreturn]] inline uint64_t
unboundRead(void *, const uint64_t *)
{
    std::abort();
}

[[noreturn]] inline void
unboundWrite(void *, uint64_t *, uint64_t)
{
    std::abort();
}

inline constexpr TxDispatch kUnboundDispatch = {&unboundRead,
                                                &unboundWrite};
} // namespace detail

/**
 * Per-thread algorithm state driving one transaction at a time.
 *
 * Lifecycle per transaction, orchestrated by TmRuntime::run:
 *
 *   begin(hint) -> body calls read()/write() -> commit()
 *
 * Any of these may throw HtmAbort (a simulated hardware abort) or
 * TxRestart (a software consistency abort); the runtime then calls
 * onHtmAbort()/onRestart() and re-enters begin(). After a successful
 * commit() the runtime calls onComplete().
 *
 * read()/write() are non-virtual: they route through the TxDispatch
 * descriptor the session bound for its current mode (see TxDispatch).
 * Everything off the per-access path stays virtual.
 *
 * Implementations are single-threaded objects: exactly one owning
 * thread ever calls into a session.
 */
class TxSession
{
  public:
    virtual ~TxSession() = default;

    /** Start a fresh attempt of the current transaction. */
    virtual void begin(TxnHint hint) = 0;

    /** Transactional load of an aligned 64-bit word. */
    uint64_t
    read(const uint64_t *addr)
    {
        return dispatch_->read(dispatchSelf_, addr);
    }

    /** Transactional store of an aligned 64-bit word. */
    void
    write(uint64_t *addr, uint64_t value)
    {
        dispatch_->write(dispatchSelf_, addr, value);
    }

    /** Finish the attempt; throws HtmAbort/TxRestart on failure. */
    virtual void commit() = 0;

    /**
     * Upgrade the attempt so it can no longer abort (docs/LIFECYCLE.md).
     *
     * Contract: either this returns with irrevocability granted --
     * after which read()/write()/commit() never throw and the
     * transaction is guaranteed to commit -- or it unwinds (HtmAbort
     * with kNeedIrrevocable on a hardware path, TxRestart on a failed
     * software validation) BEFORE granting, so the body re-executes
     * from the top and any post-upgrade side effect runs at most once.
     */
    virtual void becomeIrrevocable() = 0;

    /** True once the current attempt has been granted irrevocability. */
    virtual bool isIrrevocable() const = 0;

    /** The attempt unwound with a (simulated) hardware abort. */
    virtual void onHtmAbort(const HtmAbort &abort) = 0;

    /** The attempt unwound with a software restart. */
    virtual void onRestart() = 0;

    /**
     * A user exception unwound the body: release any held locks and
     * roll back in-place writes so the exception can propagate safely.
     */
    virtual void onUserAbort() = 0;

    /** The attempt committed; record commit-path statistics. */
    virtual void onComplete() = 0;

    /** Algorithm name for reports. */
    virtual const char *name() const = 0;

    /**
     * Restore the exact post-construction state, including every
     * cross-transaction adaptation (retry budgets, contention-manager
     * curves and jitter RNG, prefix-length estimates). Used by the
     * interleaving explorer between runs (docs/CHECKING.md) so a
     * replayed schedule reproduces the identical history.
     */
    virtual void resetForTest() {}

    /**
     * Current fast-path attempt budget (whitebox probe for the
     * checker's regression programs; 0 when the session has none).
     */
    virtual unsigned fastRetryBudgetForTest() const { return 0; }

    /** Raw adaptive payoff score (same probe; 0 when absent). */
    virtual uint32_t adaptiveScoreForTest() const { return 0; }

    /**
     * Attach the owning thread's deadline state (docs/OVERLOAD.md).
     * Called once by the runtime right after construction; sessions
     * thread the pointer into their waits via onDeadlineAttached().
     */
    void
    attachDeadline(DeadlineState *deadline)
    {
        deadline_ = deadline;
        onDeadlineAttached();
    }

  protected:
    /** Hook for sessions that forward the pointer (SessionCore). */
    virtual void onDeadlineAttached() {}

    /** The thread's deadline state, or nullptr before attachment. */
    DeadlineState *deadline_ = nullptr;

    /**
     * Bind the accessor descriptor for the mode just entered. @p self
     * is passed back to the descriptor's functions (the derived
     * session, so its static accessors can cast without offsetting).
     */
    void
    bindDispatch(const TxDispatch &dispatch, void *self)
    {
        dispatch_ = &dispatch;
        dispatchSelf_ = self;
    }

  private:
    const TxDispatch *dispatch_ = &detail::kUnboundDispatch;
    void *dispatchSelf_ = nullptr;
};

} // namespace rhtm

#endif // RHTM_CORE_ENGINE_SESSION_H
