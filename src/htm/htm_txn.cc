#include "src/htm/htm_txn.h"

#include <cassert>

#include "src/util/sched_point.h"

namespace rhtm
{

const char *
htmAbortCauseName(HtmAbortCause cause)
{
    switch (cause) {
      case HtmAbortCause::kNone: return "none";
      case HtmAbortCause::kConflict: return "conflict";
      case HtmAbortCause::kCapacity: return "capacity";
      case HtmAbortCause::kExplicit: return "explicit";
      case HtmAbortCause::kOther: return "other";
      case HtmAbortCause::kNeedIrrevocable: return "need-irrevocable";
    }
    return "unknown";
}

namespace
{

/** @p lines after the HyperThreading capacity model for @p tid. */
size_t
threadCap(const HtmConfig &cfg, unsigned tid, size_t lines)
{
    return tid >= cfg.scaledThreadsFrom && cfg.capacityScale > 1
        ? lines / cfg.capacityScale
        : lines;
}

} // namespace

HtmTxn::HtmTxn(HtmEngine &eng, unsigned tid, ThreadStats *stats,
               uint64_t rng_seed, FaultInjector *fault)
    : eng_(eng), stats_(stats), fault_(fault),
      readCap_(threadCap(eng.config(), tid, eng.config().readCapacityLines)),
      writeCap_(
          threadCap(eng.config(), tid, eng.config().writeCapacityLines)),
      effReadCap_(readCap_), effWriteCap_(writeCap_), active_(false),
      lastSeq_(0),
      // Each table's bound holds its whole capacity (squeezes only
      // lower it), so capacity aborts come from the caps, not the
      // tables. A written line holds 8 words.
      readLines_(tableBoundLog2(readCap_)),
      writes_(tableBoundLog2(writeCap_) + (HtmEngine::kLineShift - 3)),
      writeLines_(tableBoundLog2(writeCap_)),
      held_(((size_t(1) << eng.config().stripeCountLog2) + 63) / 64)
{
    const HtmConfig &cfg = eng.config();
    if (fault_ == nullptr && cfg.randomAbortProb > 0.0) {
        // Legacy knob: express the blunt per-access probability as a
        // fault plan on the access sites (same distribution the old
        // inline dice roll produced).
        FaultPlan plan;
        plan.seed = rng_seed ^ (tid * 0x9e3779b9ull);
        double p = cfg.randomAbortProb >= 1.0 ? 1.0 : cfg.randomAbortProb;
        for (FaultSite site : {FaultSite::kTxRead, FaultSite::kTxWrite,
                               FaultSite::kPreCommit}) {
            FaultRule rule;
            rule.site = site;
            rule.kind = FaultKind::kAbortOther;
            rule.period = 1;
            rule.probability = p;
            plan.add(rule);
        }
        ownedFault_ = std::make_unique<FaultInjector>(plan, tid);
        fault_ = ownedFault_.get();
    }
    readLog_.reserve(1024);
}

void
HtmTxn::resetState()
{
    active_ = false;
    readLog_.clear();
    readLines_.clear();
    writes_.clear();
    writeLines_.clear();
}

void
HtmTxn::fail(HtmAbortCause cause, bool retry_ok, uint8_t code,
             bool injected)
{
    resetState();
    if (stats_) {
        switch (cause) {
          case HtmAbortCause::kConflict:
            stats_->inc(Counter::kHtmConflictAborts);
            break;
          case HtmAbortCause::kCapacity:
            stats_->inc(Counter::kHtmCapacityAborts);
            break;
          case HtmAbortCause::kExplicit:
          case HtmAbortCause::kNeedIrrevocable:
            stats_->inc(Counter::kHtmExplicitAborts);
            break;
          default:
            stats_->inc(Counter::kHtmOtherAborts);
            break;
        }
        if (injected)
            stats_->inc(Counter::kHtmInjectedAborts);
    }
    throw HtmAbort{cause, retry_ok, code};
}

void
HtmTxn::applyFault(FaultKind kind, uint32_t spins)
{
    switch (kind) {
      case FaultKind::kNone:
      case FaultKind::kCapacitySqueeze:
        return;
      case FaultKind::kDelay:
        simDelay(spins);
        return;
      case FaultKind::kYield:
        std::this_thread::yield();
        return;
      case FaultKind::kAbortConflict:
        fail(HtmAbortCause::kConflict, true, 0, true);
      case FaultKind::kAbortCapacity:
        fail(HtmAbortCause::kCapacity, false, 0, true);
      case FaultKind::kAbortOther:
        fail(HtmAbortCause::kOther, false, 0, true);
      case FaultKind::kAbortExplicit:
        fail(HtmAbortCause::kExplicit, true, 0, true);
    }
}

void
HtmTxn::begin()
{
    assert(!active_ && "simulated HTM does not nest");
    // Scheduling points sit at the entry of begin/read/write/commit;
    // commit adds one inside its publication window. HtmTxn::faultPoint
    // stays uninstrumented, so a site is never a second step.
    schedPoint(SchedPoint::kHtmBegin);
    resetState();
    active_ = true;
    lastSeq_ = ~uint64_t(0); // Sentinel: the read log was never validated.
    if (fault_ != nullptr) {
        faultPoint(FaultSite::kHtmBegin);
        // Capacity squeezes are (re)evaluated per transaction.
        effReadCap_ = fault_->readCapLimit(readCap_);
        effWriteCap_ = fault_->writeCapLimit(writeCap_);
    }
}

uint64_t
HtmTxn::read(const uint64_t *addr)
{
    assert(active_);
    schedPoint(SchedPoint::kHtmRead, addr);
    faultPoint(FaultSite::kTxRead);

    uint64_t buffered;
    if (!writes_.empty() && writes_.lookup(addr, buffered))
        return buffered;

    // A seqlock read of this word's stripe, bracketed by the global
    // sequence: an accepted value is stable in its stripe, and no
    // publication began since the read log was last validated.
    // The engine's words are bound to locals: the acquire loads below
    // would otherwise make the compiler reload them on every step.
    const size_t stripe = eng_.stripeOf(addr);
    const std::atomic<uint64_t> &seq = eng_.seq_;
    const std::atomic<uint64_t> &word = eng_.stripes_[stripe];
    auto ref = std::atomic_ref<const uint64_t>(*addr);
    uint64_t val, ver;
    for (uint32_t spins = 0;;) {
        const uint64_t s1 = seq.load(std::memory_order_acquire);
        if (s1 != lastSeq_) {
            // Memory changed since the last validation: re-validate
            // the whole read log, waiting out stripes a writer holds
            // (it may be half-way through publishing them). A
            // mismatch is a genuine invalidation of a tracked line ->
            // conflict abort.
            for (const ReadEntry &e : readLog_) {
                if (eng_.waitUnlocked(e.stripe) != e.version)
                    fail(HtmAbortCause::kConflict, true);
            }
            lastSeq_ = s1;
        }
        ver = word.load(std::memory_order_acquire);
        val = ref.load(std::memory_order_acquire);
        const uint64_t ver2 = word.load(std::memory_order_acquire);
        const uint64_t s2 = seq.load(std::memory_order_acquire);
        // Accept an unlocked, unchanged stripe under an unchanged
        // sequence (one branch on the common path).
        if (((ver & 1) | (ver ^ ver2) | (s1 ^ s2)) == 0)
            break;
        if (ver & 1)
            HtmEngine::lockedStripeWait(spins, addr);
    }

    bool inserted = false;
    if (!readLines_.insert(
            reinterpret_cast<uint64_t>(addr) >> HtmEngine::kLineShift,
            inserted)) {
        fail(HtmAbortCause::kCapacity, false);
    }
    if (inserted) {
        if (readLines_.size() > effReadCap_)
            fail(HtmAbortCause::kCapacity, false);
        readLog_.push_back({static_cast<uint32_t>(stripe), ver});
    }
    return val;
}

void
HtmTxn::write(uint64_t *addr, uint64_t value)
{
    assert(active_);
    schedPoint(SchedPoint::kHtmWrite, addr);
    faultPoint(FaultSite::kTxWrite);

    bool inserted = false;
    if (!writeLines_.insert(
            reinterpret_cast<uint64_t>(addr) >> HtmEngine::kLineShift,
            inserted)) {
        fail(HtmAbortCause::kCapacity, false);
    }
    if (inserted && writeLines_.size() > effWriteCap_)
        fail(HtmAbortCause::kCapacity, false);
    if (!writes_.put(addr, value))
        fail(HtmAbortCause::kCapacity, false);
}

void
HtmTxn::commit()
{
    assert(active_);
    schedPoint(SchedPoint::kHtmCommit);
    faultPoint(FaultSite::kPreCommit);

    if (writes_.empty()) {
        // Read-only: every read was accepted against the sequence the
        // read log was last validated at; the transaction serializes
        // at that validation point.
        resetState();
        return;
    }

    // 1. Lock the write set's stripes in write-buffer order. A stripe
    //    another writer holds is a conflict: never waiting while
    //    holding stripe locks keeps commits deadlock-free.
    std::atomic<uint64_t> *const stripes = eng_.stripes_.data();
    writes_.forEach([&](uint64_t *addr, uint64_t) {
        const size_t stripe = eng_.stripeOf(addr);
        if (holds(stripe))
            return;
        std::atomic<uint64_t> &word = stripes[stripe];
        uint64_t v = word.load(std::memory_order_relaxed);
        if ((v & 1) ||
            !word.compare_exchange_strong(v, v | 1,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
            abortCommit();
        }
        held_[stripe >> 6] |= uint64_t(1) << (stripe & 63);
        locked_.push_back({static_cast<uint32_t>(stripe), v});
    });
    // 2. Validate the read log. A stripe this commit holds reads as its
    //    pre-lock version plus the lock bit.
    for (const ReadEntry &e : readLog_) {
        const uint64_t v = stripes[e.stripe].load(std::memory_order_acquire);
        if (v != e.version && (v != (e.version | 1) || !holds(e.stripe)))
            abortCommit();
    }
    // 3. Announce before the first value lands: a reader that sees a
    //    new value also sees the new sequence and re-validates.
    eng_.announcePublication();
    try {
        // The publication window proper: the write stripes are locked
        // and only their readers wait. A scripted delay here stretches
        // exactly the window Figure 2's atomic-publication argument
        // depends on; the scheduling point lets the explorer run
        // readers against a half-published commit. An abort or a
        // torn-down run leaves before any value is written.
        faultPoint(FaultSite::kPublishWindow);
        schedPoint(SchedPoint::kHtmPublish);
    } catch (...) {
        unlockStripes(0);
        throw;
    }
    // 4. Write the buffered values; 5. unlock at version + 2.
    writes_.forEach([](uint64_t *addr, uint64_t value) {
        std::atomic_ref<uint64_t>(*addr).store(value,
                                               std::memory_order_release);
    });
    unlockStripes(2);
    resetState();
}

void
HtmTxn::unlockStripes(uint64_t bump)
{
    std::atomic<uint64_t> *const stripes = eng_.stripes_.data();
    for (const ReadEntry &e : locked_) {
        stripes[e.stripe].store(e.version + bump, std::memory_order_release);
        held_[e.stripe >> 6] = 0; // Every held bit goes.
    }
    locked_.clear();
}

void
HtmTxn::abortCommit()
{
    unlockStripes(0);
    fail(HtmAbortCause::kConflict, true);
}

void
HtmTxn::abortExplicit(uint8_t code)
{
    assert(active_);
    fail(HtmAbortCause::kExplicit, true, code);
}

void
HtmTxn::abortSubscription()
{
    assert(active_);
    if (stats_)
        stats_->inc(Counter::kHtmSubscriptionAborts);
    fail(HtmAbortCause::kExplicit, true, 0);
}

void
HtmTxn::abortInjected(HtmAbortCause cause, bool retry_ok)
{
    assert(active_);
    fail(cause, retry_ok, 0, true);
}

void
HtmTxn::abortNeedIrrevocable()
{
    assert(active_);
    fail(HtmAbortCause::kNeedIrrevocable, true, 0);
}

} // namespace rhtm
