/**
 * @file
 * Cooperative scheduling points for the deterministic interleaving
 * explorer (src/check/, docs/CHECKING.md).
 *
 * The TM stack calls schedPoint()/schedWaitPoint() at every place
 * where thread interleaving is observable: shared-memory accesses,
 * the commit-seqlock transitions, the serial-lock FIFO, the fault
 * sites, and every unbounded wait loop. In a normal run no client is
 * installed and a point is a single thread-local load and branch. An
 * exploration installs a per-thread SchedClient that blocks the
 * calling thread until the explorer's scheduler grants it the next
 * step, which turns the whole runtime into a deterministic,
 * replayable state machine over scheduling decisions.
 *
 * Wait points (schedWaitPoint) mark iterations of a loop that cannot
 * make progress until some other thread acts -- a spinner on the
 * locked clock, the serial-ticket queue, a stalled-holder watchdog
 * step. The scheduler parks a thread yielding at a wait point until
 * another thread completes a step, which keeps bounded programs from
 * generating unbounded spin-only schedules.
 *
 * Hard rule for placing points: never at a program point where the
 * caller holds a non-TM lock (an OS mutex) -- the explorer suspends
 * threads at points, and a suspended mutex holder would deadlock every
 * other thread against a lock the scheduler cannot see. TM locks are
 * fine: the simulated HTM's stripe locks, the commit clock and the
 * serial lock are TM state, and every loop that waits on one runs a
 * wait point per iteration, so the scheduler parks the waiters and
 * runs the holder (HtmTxn::commit's kHtmPublish point is inside its
 * stripe locks for exactly that reason).
 */

#ifndef RHTM_UTIL_SCHED_POINT_H
#define RHTM_UTIL_SCHED_POINT_H

#include <cstdint>

namespace rhtm
{

/** Where in the protocol a scheduling point sits. */
enum class SchedPoint : uint8_t
{
    kThreadStart = 0, //!< Worker about to execute its first step.
    kRawLoad,         //!< RawMem load (pure-STM shared read).
    kRawStore,        //!< RawMem store (pure-STM shared write).
    kRawRmw,          //!< RawMem CAS / fetch-add.
    kDirectLoad,      //!< HtmEngine::directLoad (slow-path read).
    kDirectStore,     //!< HtmEngine::directStore (slow-path write).
    kDirectRmw,       //!< HtmEngine CAS / fetch-add.
    kHtmBegin,        //!< HtmTxn::begin.
    kHtmRead,         //!< HtmTxn transactional read.
    kHtmWrite,        //!< HtmTxn transactional (buffered) write.
    kHtmCommit,       //!< HtmTxn::commit entry (before publication).
    kHtmPublish,      //!< HtmTxn::commit, stripes locked, values unwritten.
    kEarlySubscribe,  //!< htmEarlySubscribe's coordination-word read.
    kSeqlockAcquire,  //!< CommitSeqlock CAS attempt on the clock.
    kSeqlockRelease,  //!< CommitSeqlock unlock (advance or restore).
    kSerialTicket,    //!< Serial FIFO: about to take a ticket.
    kSerialAcquired,  //!< Serial FIFO: ticket served, lock raised.
    kSerialRelease,   //!< Serial FIFO: about to drop the lock.
    kFaultSite,       //!< A protocol-level fault-injection site.
    kKillSwitchDecay, //!< Between the cooldown load and its CAS.
    kWaitSpin,        //!< One iteration of an unbounded wait loop.
};

/** Printable name ("raw-load", "seqlock-acquire", ...). */
inline const char *
schedPointName(SchedPoint p)
{
    switch (p) {
      case SchedPoint::kThreadStart: return "thread-start";
      case SchedPoint::kRawLoad: return "raw-load";
      case SchedPoint::kRawStore: return "raw-store";
      case SchedPoint::kRawRmw: return "raw-rmw";
      case SchedPoint::kDirectLoad: return "direct-load";
      case SchedPoint::kDirectStore: return "direct-store";
      case SchedPoint::kDirectRmw: return "direct-rmw";
      case SchedPoint::kHtmBegin: return "htm-begin";
      case SchedPoint::kHtmRead: return "htm-read";
      case SchedPoint::kHtmWrite: return "htm-write";
      case SchedPoint::kHtmCommit: return "htm-commit";
      case SchedPoint::kHtmPublish: return "htm-publish";
      case SchedPoint::kEarlySubscribe: return "early-subscribe";
      case SchedPoint::kSeqlockAcquire: return "seqlock-acquire";
      case SchedPoint::kSeqlockRelease: return "seqlock-release";
      case SchedPoint::kSerialTicket: return "serial-ticket";
      case SchedPoint::kSerialAcquired: return "serial-acquired";
      case SchedPoint::kSerialRelease: return "serial-release";
      case SchedPoint::kFaultSite: return "fault-site";
      case SchedPoint::kKillSwitchDecay: return "kill-switch-decay";
      case SchedPoint::kWaitSpin: return "wait-spin";
    }
    return "unknown";
}

/**
 * True for points that (may) mutate shared state. The explorer's
 * sleep-set reduction treats two pending steps as independent when
 * they touch different addresses or are both pure reads.
 */
inline bool
schedPointWrites(SchedPoint p)
{
    switch (p) {
      case SchedPoint::kThreadStart:
      case SchedPoint::kRawLoad:
      case SchedPoint::kDirectLoad:
      case SchedPoint::kHtmRead:
      case SchedPoint::kEarlySubscribe:
      case SchedPoint::kWaitSpin:
        return false;
      default:
        return true;
    }
}

/**
 * Per-thread hook the explorer installs. schedYield() runs on the
 * instrumented thread and blocks it until the scheduler grants the
 * next step; it may throw to tear a run down (the unwind follows the
 * normal user-exception abort path).
 */
class SchedClient
{
  public:
    virtual ~SchedClient() = default;

    /**
     * @param point Which protocol window the thread is at.
     * @param addr The shared word involved, or nullptr when the point
     *             is not tied to one address.
     * @param wait True when this is one iteration of a loop that
     *             cannot progress until another thread acts.
     */
    virtual void schedYield(SchedPoint point, const void *addr,
                            bool wait) = 0;
};

namespace detail
{
inline thread_local SchedClient *tlsSchedClient = nullptr;
} // namespace detail

/** Install @p client for the calling thread (nullptr to remove). */
inline void
setSchedClient(SchedClient *client)
{
    detail::tlsSchedClient = client;
}

/** The calling thread's installed client, or nullptr. */
inline SchedClient *
schedClient()
{
    return detail::tlsSchedClient;
}

/** Scheduling point: no-op unless a client is installed. */
inline void
schedPoint(SchedPoint point, const void *addr = nullptr)
{
    if (detail::tlsSchedClient != nullptr)
        detail::tlsSchedClient->schedYield(point, addr, false);
}

/** Wait-loop scheduling point (see class comment). */
inline void
schedWaitPoint(SchedPoint point, const void *addr = nullptr)
{
    if (detail::tlsSchedClient != nullptr)
        detail::tlsSchedClient->schedYield(point, addr, true);
}

} // namespace rhtm

#endif // RHTM_UTIL_SCHED_POINT_H
