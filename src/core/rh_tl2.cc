#include "src/core/rh_tl2.h"

#include <cassert>

#include "src/core/engine/fault_points.h"
#include "src/core/engine/progress.h"
#include "src/util/backoff.h"

namespace rhtm
{

RhTl2Session::RhTl2Session(HtmEngine &eng, TmDomain &domain,
                           RhTl2Globals &tl2, HtmTxn &htm,
                           ThreadStats *stats, const RetryPolicy &policy,
                           unsigned access_penalty, uint64_t cm_seed,
                           TxPersist *persist)
    : core_(eng, domain, htm, stats, policy, access_penalty, cm_seed),
      tl2_(tl2), writes_(12)
{
    core_.persist = persist;
    readLog_.reserve(1024);
    writeAddrs_.reserve(256);
}

//
// Per-mode accessors
//

uint64_t
RhTl2Session::fastRead(void *self, const uint64_t *addr)
{
    auto *s = static_cast<RhTl2Session *>(self);
    ++s->core_.tally.fastReads;
    // The RH-TL2 selling point: hardware reads stay uninstrumented.
    return s->core_.htm.read(addr);
}

void
RhTl2Session::fastWrite(void *self, uint64_t *addr, uint64_t value)
{
    auto *s = static_cast<RhTl2Session *>(self);
    ++s->core_.tally.fastWrites;
    // Drawback #1 (Section 1.2): the fast path must update the
    // per-location metadata for every write location before the
    // hardware commit; the address log feeds those orec writes.
    s->core_.htm.write(addr, value);
    s->writeAddrs_.push_back(addr);
}

uint64_t
RhTl2Session::mixedRead(void *self, const uint64_t *addr)
{
    auto *s = static_cast<RhTl2Session *>(self);
    simDelay(s->core_.penalty);
    ++s->core_.tally.slowReads;
    uint64_t buffered;
    if (s->writes_.lookup(addr, buffered))
        return buffered;
    uint64_t *orec = s->tl2_.orecOf(addr);
    uint64_t o1 = s->core_.eng.directLoad(orec);
    if (o1 > s->rv_)
        s->restart(); // Written after our snapshot.
    uint64_t v = s->core_.eng.directLoad(addr);
    if (s->core_.eng.directLoad(orec) != o1)
        s->restart();
    s->readLog_.push_back({orec, o1});
    return v;
}

void
RhTl2Session::mixedWrite(void *self, uint64_t *addr, uint64_t value)
{
    auto *s = static_cast<RhTl2Session *>(self);
    simDelay(s->core_.penalty);
    ++s->core_.tally.slowWrites;
    s->writes_.putGrowing(addr, value);
}

uint64_t
RhTl2Session::pinnedRead(void *self, const uint64_t *addr)
{
    auto *s = static_cast<RhTl2Session *>(self);
    simDelay(s->core_.penalty);
    ++s->core_.tally.slowReads;
    uint64_t buffered;
    if (s->writes_.lookup(addr, buffered))
        return buffered;
    // We hold the global HTM lock: every fast path is doomed and no
    // committer can pass the lock CAS, so memory is frozen.
    return s->core_.eng.directLoad(addr);
}

void
RhTl2Session::beginMixed()
{
    sessionFaultPoint(core_.htm, FaultSite::kFallbackStart);
    // Like RH NOrec's num_of_fallbacks: fast paths only pay the
    // metadata updates while a mixed path is live.
    core_.registerFallback();
    readLog_.clear();
    writes_.clear();
    rv_ = core_.eng.directLoad(tl2_.clock());
    bindDispatch(kMixedDispatch, this);
}

void
RhTl2Session::begin(TxnHint hint)
{
    (void)hint;
    if (core_.mode == ExecMode::kFast) {
        writeAddrs_.clear();
        // Subscribe to the HTM lock: a serialized software commit may
        // be writing back non-atomically.
        if (core_.beginFastPath(ExecMode::kSlow, &core_.g.htmLock)) {
            bindDispatch(kFastDispatch, this);
            return;
        }
    }
    beginMixed();
}

void
RhTl2Session::commitMixedHtm()
{
    ++commitHtmTries_;
    core_.count(Counter::kPostfixAttempts);
    core_.htm.begin();
    htmEarlySubscribe(core_.htm, &core_.g.htmLock);
    // Drawback #2 (Section 1.2): this one small hardware transaction
    // carries the read-set validation *and* every write location, so
    // its footprint -- and failure probability -- is high.
    for (const OrecEntry &e : readLog_) {
        if (core_.htm.read(e.orec) != e.version) {
            core_.htm.cancel();
            restart(); // Genuine conflict: restart the transaction.
        }
    }
    uint64_t wv = core_.htm.read(tl2_.clock()) + 2;
    core_.htm.write(tl2_.clock(), wv);
    writes_.forEach([&](uint64_t *addr, uint64_t value) {
        core_.htm.write(addr, value);
        core_.htm.write(tl2_.orecOf(addr), wv);
    });
    // The commit transaction is RH-TL2's analogue of the postfix: one
    // small HTM carrying validation plus the whole write-back.
    sessionFaultPoint(core_.htm, FaultSite::kPostfixCommit);
    core_.htm.commit();
    core_.count(Counter::kPostfixSuccesses);
}

void
RhTl2Session::writeBack()
{
    // Compute wv but publish the clock only *after* the write-back:
    // a reader that begins mid-write-back must have rv < wv so the
    // fresh orecs fail its validation (publishing the clock first
    // would let it accept a mixed old/new snapshot). Concurrent commit
    // transactions cannot slip a same-valued wv in between: the held
    // HTM lock doomed every in-flight one, and later ones abort on
    // their start-time subscription.
    uint64_t wv = core_.eng.directLoad(tl2_.clock()) + 2;
    // The HTM lock is up and every fast path is doomed: this is the
    // serialized publication window. A scripted delay stretches it;
    // aborts are absorbed -- the write-back is the transaction's
    // linearization and cannot be unwound without replaying the whole
    // commit; the other schedules cover the abort paths.
    sessionFaultPointNoAbort(core_.htm, FaultSite::kPublishWindow);
    writes_.forEach([&](uint64_t *addr, uint64_t value) {
        // Orec first: a concurrent reader that sees the new data also
        // sees a version beyond its snapshot and restarts.
        core_.eng.directStore(tl2_.orecOf(addr), wv);
        // Stage-at-publish: the lazy write set becomes the durable
        // redo payload once the commit is past validation.
        if (core_.persistOn())
            core_.persist->stage(addr, value);
        core_.eng.directStore(addr, value);
    });
    core_.eng.directStore(tl2_.clock(), wv);
    // Durable commit: seal while the HTM lock still serializes every
    // committer (callers release the lock -- and drain -- after us).
    if (core_.persistOn())
        core_.persist->sealStaged();
}

void
RhTl2Session::commitMixedSoftware()
{
    // Serialize under the global HTM lock: the store dooms every
    // hardware fast path and in-flight commit transaction, making the
    // non-atomic write-back safe. The RAII guard's acquisition is
    // stall-aware (a preempted or fault-delayed holder is detected via
    // the clock epoch and waited out), and the guard -- not a bare
    // store on the happy path -- owns the release, so the validation
    // restart below can never leak the lock.
    ScopedHtmLock lock(core_.eng, core_.g, core_.policy, core_.stats,
                       core_.deadline);
    for (const OrecEntry &e : readLog_) {
        if (core_.eng.directLoad(e.orec) != e.version)
            restart(); // The guard drops the HTM lock on the unwind.
    }
    writeBack();
    lock.release();
    if (core_.persistOn())
        core_.persist->drainAndMark();
}

void
RhTl2Session::commit()
{
    if (core_.mode == ExecMode::kFast) {
        if (writeAddrs_.empty()) {
            core_.htm.commit();
            core_.count(Counter::kReadOnlyCommits);
            return;
        }
        if (core_.htm.read(&core_.g.fallbacks) > 0) {
            // Version the written locations inside the hardware
            // transaction (metadata instrumentation, drawback #1);
            // only needed while mixed paths are live.
            uint64_t wv = core_.htm.read(tl2_.clock()) + 2;
            core_.htm.write(tl2_.clock(), wv);
            for (uint64_t *addr : writeAddrs_)
                core_.htm.write(tl2_.orecOf(addr), wv);
        }
        core_.htm.commit();
        return;
    }
    if (writes_.empty()) {
        if (core_.irrevocable)
            releaseIrrevocable(); // Nothing published; just unfreeze.
        core_.count(Counter::kReadOnlyCommits);
        return; // Reads were validated individually against rv_.
    }
    if (core_.irrevocable) {
        // Validated at the grant and frozen since (we hold the HTM
        // lock): publish without revalidation -- infallible -- and
        // unfreeze. The serial lock drops in onComplete.
        writeBack();
        releaseIrrevocable();
        if (core_.persistOn())
            core_.persist->drainAndMark();
        return;
    }
    // A durable run never commits through the small HTM: pwb/pfence
    // ordering cannot live inside a best-effort hardware transaction,
    // so go straight to the serialized software commit.
    if (!core_.persistOn() &&
        commitHtmTries_ < core_.policy.smallHtmAttempts) {
        commitMixedHtm();
        return;
    }
    commitMixedSoftware();
}

void
RhTl2Session::becomeIrrevocable()
{
    if (core_.irrevocable)
        return;
    if (core_.mode == ExecMode::kFast) {
        // Cannot grant inside best-effort HTM: unwind, and onHtmAbort
        // routes the next attempt to the mixed slow path.
        core_.htm.abortNeedIrrevocable();
    }
    // Serialize concurrent upgraders FIFO before touching the HTM
    // lock: we hold nothing here, so queueing is deadlock-free, and
    // the lock order (serial BEFORE htmLock, docs/LIFECYCLE.md) means
    // an upgrader never waits on the HTM lock held by another
    // upgrader -- only on bounded software commit windows. RH-TL2 has
    // no serial execution mode, so the barrier leaves the mode alone.
    core_.grantBarrierEnter(/*switchToSerialMode=*/false);
    {
        ScopedHtmLock lock(core_.eng, core_.g, core_.policy,
                           core_.stats, core_.deadline);
        // Validate the read set BEFORE granting: a stale read must
        // unwind before the promise, never after. The guard drops the
        // HTM lock on the restart; the serial lock stays held, so the
        // replayed attempt upgrades unopposed.
        for (const OrecEntry &e : readLog_) {
            if (core_.eng.directLoad(e.orec) != e.version)
                restart();
        }
        lock.disown(); // Hold until commit/rollback.
        htmLockHeld_ = true;
    }
    // HTM lock held with a validated read set: fast paths are doomed,
    // no committer can pass the lock CAS, reads go direct, and commit
    // is an unconditional write-back. Infallible from here.
    core_.grantIrrevocable();
    bindDispatch(kPinnedDispatch, this);
}

void
RhTl2Session::releaseIrrevocable()
{
    if (htmLockHeld_) {
        core_.eng.directStore(&core_.g.htmLock, 0);
        htmLockHeld_ = false;
        stampEpoch(core_.g.watchdog.clockEpoch);
    }
    if (core_.irrevocable) {
        core_.irrevocable = false;
        bindDispatch(kMixedDispatch, this);
    }
}

void
RhTl2Session::restart()
{
    throw TxRestart{};
}

void
RhTl2Session::onHtmAbort(const HtmAbort &abort)
{
    core_.htm.cancel();
    if (abort.cause == HtmAbortCause::kNeedIrrevocable) {
        // The body asked for irrevocability: skip the retry budget and
        // replay on the mixed slow path, which can grant it.
        core_.fallbackUncharged(ExecMode::kSlow);
        return;
    }
    if (core_.mode == ExecMode::kFast) {
        core_.htmAbortFast(abort, ExecMode::kSlow);
        return;
    }
    // The commit transaction failed mechanically (capacity, injected):
    // retry the attempt; the next commit() uses the software path.
    core_.cm.onWait(waitCauseOf(abort));
}

void
RhTl2Session::onRestart()
{
    core_.htm.cancel();
    // A pre-grant upgrade restart keeps the serial lock (the replay
    // upgrades unopposed); anything the grant held is dropped.
    releaseIrrevocable();
    if (core_.mode != ExecMode::kFast)
        core_.count(Counter::kSlowPathRestarts);
    core_.cm.onWait(WaitCause::kRestart);
}

void
RhTl2Session::onUserAbort()
{
    core_.htm.cancel();
    // Lazy everywhere: nothing was published, no locks held outside
    // the commit routines (which release before unwinding) and an
    // irrevocable upgrade (dropped here). Nothing can be staged either
    // (staging happens inside the infallible writeBack); the discard
    // is defensive symmetry with the other sessions.
    if (core_.persistOn())
        core_.persist->discardStaged();
    releaseIrrevocable();
    core_.unwindTail();
    commitHtmTries_ = 0;
}

void
RhTl2Session::onComplete()
{
    core_.completeTail(Counter::kCommitsMixedPath);
    core_.finishReset();
    commitHtmTries_ = 0;
}

} // namespace rhtm
