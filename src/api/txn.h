/**
 * @file
 * The user-facing transaction handle.
 */

#ifndef RHTM_API_TXN_H
#define RHTM_API_TXN_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <type_traits>

#include "src/api/action_log.h"
#include "src/core/engine/session.h"
#include "src/mem/memory_manager.h"

namespace rhtm
{

/**
 * Per-call execution bounds for TmRuntime::runWith (docs/OVERLOAD.md).
 * The default-constructed value is unbounded and non-sheddable --
 * exactly the legacy run() behaviour.
 */
struct TxnOptions
{
    /**
     * Wall-clock budget for the whole transaction (all attempts,
     * including every wait). Zero = no deadline. Expiry unwinds the
     * attempt through the normal abort path and runWith returns
     * TxnOutcome::kDeadlineExceeded; an already-granted irrevocable
     * attempt is exempt (it must commit). Deadlines read the wall
     * clock, so explorer/replay programs use maxAttempts instead.
     */
    std::chrono::nanoseconds deadline{0};

    /**
     * Attempt budget: give up before starting attempt N+1 once N
     * attempts have aborted. Zero = unbounded. Deterministic (no
     * clock), so this is the bound of choice under the interleaving
     * explorer.
     */
    unsigned maxAttempts = 0;

    /**
     * Permit the admission gate to shed this transaction before it
     * starts (TxnOutcome::kAdmissionShed). When false the gate may
     * only briefly queue the caller, never reject it.
     */
    bool allowShed = true;

    /** Read-only hint, as in run(). */
    TxnHint hint = TxnHint::kNone;
};

/** How a runWith() call ended. */
enum class TxnOutcome : uint8_t
{
    kCommitted = 0,     //!< The body committed (possibly after retries).
    kDeadlineExceeded,  //!< Deadline/attempt budget expired; unwound.
    kAdmissionShed,     //!< Shed by the admission gate; never started.
};

/** Short name for reports ("committed", ...). */
inline const char *
txnOutcomeName(TxnOutcome outcome)
{
    switch (outcome) {
      case TxnOutcome::kCommitted:
        return "committed";
      case TxnOutcome::kDeadlineExceeded:
        return "deadline-exceeded";
      case TxnOutcome::kAdmissionShed:
        return "admission-shed";
    }
    return "?";
}

/**
 * Handle passed to a transaction body; every shared-memory access and
 * every allocation inside the body must go through it.
 *
 * Shared state is modelled as 8-byte-aligned 64-bit words. The typed
 * helpers pack pointers and signed values into words so data structures
 * read naturally. The handle is only valid during the body invocation
 * it was passed to.
 */
class Txn
{
  public:
    /** Built by the runtime; user code never constructs one. */
    Txn(TxSession *session, ThreadMem *mem, unsigned tid,
        ActionLog *actions = nullptr)
        : session_(session), mem_(mem), actions_(actions), tid_(tid)
    {}

    /** Transactional load. @p addr must be 8-byte aligned. */
    uint64_t
    load(const uint64_t *addr)
    {
        return session_->read(addr);
    }

    /** Transactional store. @p addr must be 8-byte aligned. */
    void
    store(uint64_t *addr, uint64_t value)
    {
        session_->write(addr, value);
    }

    /** Load a word as a signed 64-bit value. */
    int64_t
    loadI64(const int64_t *addr)
    {
        return static_cast<int64_t>(
            load(reinterpret_cast<const uint64_t *>(addr)));
    }

    /** Store a signed 64-bit value. */
    void
    storeI64(int64_t *addr, int64_t value)
    {
        store(reinterpret_cast<uint64_t *>(addr),
              static_cast<uint64_t>(value));
    }

    /** Load a pointer-valued word. */
    template <typename T>
    T *
    loadPtr(T *const *slot)
    {
        static_assert(sizeof(T *) == sizeof(uint64_t));
        return reinterpret_cast<T *>(
            load(reinterpret_cast<const uint64_t *>(slot)));
    }

    /** Store a pointer-valued word. */
    template <typename T>
    void
    storePtr(T **slot, T *value)
    {
        static_assert(sizeof(T *) == sizeof(uint64_t));
        store(reinterpret_cast<uint64_t *>(slot),
              reinterpret_cast<uint64_t>(value));
    }

    /**
     * Allocate zeroed memory tied to this transaction: kept on commit,
     * safely recycled on abort.
     */
    void *alloc(size_t size) { return mem_->txAlloc(size); }

    /** Typed allocation helper; T must be trivially destructible. */
    template <typename T>
    T *
    allocObject()
    {
        static_assert(std::is_trivially_destructible_v<T>);
        return static_cast<T *>(alloc(sizeof(T)));
    }

    /**
     * Free memory tied to this transaction: deferred to commit and a
     * reclamation grace period; dropped on abort.
     */
    void txFree(void *ptr, size_t size) { mem_->txFree(ptr, size); }

    /** Typed free helper. */
    template <typename T>
    void
    freeObject(T *ptr)
    {
        txFree(ptr, sizeof(T));
    }

    /** Explicitly restart this transaction attempt. */
    [[noreturn]] void
    retry()
    {
        throw TxRestart{};
    }

    /**
     * Upgrade this transaction so it can no longer abort: after this
     * returns, reads and writes go straight through and commit cannot
     * fail, so the body may safely perform a side effect that must not
     * replay (I/O, a syscall). May unwind and re-execute the body from
     * the top -- but only BEFORE the upgrade is granted, never after
     * (see docs/LIFECYCLE.md for the per-algorithm protocol).
     */
    void becomeIrrevocable() { session_->becomeIrrevocable(); }

    /** True once this attempt holds irrevocability. */
    bool isIrrevocable() const { return session_->isIrrevocable(); }

    /**
     * Register @p fn to run after this transaction commits, once the
     * commit is linearized and every TM lock is dropped (FIFO order).
     * Runs at most once; discarded if the enclosing attempt aborts.
     */
    void
    onCommit(std::function<void()> fn)
    {
        if (actions_)
            actions_->registerCommit(std::move(fn));
    }

    /**
     * Register @p fn to run if this attempt aborts, after its rollback
     * completes (LIFO order). A restarted body re-registers handlers
     * when it re-executes.
     */
    void
    onAbort(std::function<void()> fn)
    {
        if (actions_)
            actions_->registerAbort(std::move(fn));
    }

    /** Runtime-assigned id of the executing thread. */
    unsigned tid() const { return tid_; }

  private:
    TxSession *session_;
    ThreadMem *mem_;
    ActionLog *actions_;
    unsigned tid_;
};

} // namespace rhtm

#endif // RHTM_API_TXN_H
