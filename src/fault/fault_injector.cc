#include "src/fault/fault_injector.h"

#include <cmath>

namespace rhtm
{

const char *
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::kHtmBegin: return "htm-begin";
      case FaultSite::kTxRead: return "tx-read";
      case FaultSite::kTxWrite: return "tx-write";
      case FaultSite::kPreCommit: return "pre-commit";
      case FaultSite::kPublishWindow: return "publish-window";
      case FaultSite::kPrefixCommit: return "prefix-commit";
      case FaultSite::kPostFirstWrite: return "post-first-write";
      case FaultSite::kPostfixCommit: return "postfix-commit";
      case FaultSite::kSoftwareWrite: return "software-write";
      case FaultSite::kFallbackStart: return "fallback-start";
      case FaultSite::kSerialHeld: return "serial-held";
      case FaultSite::kIrrevocableUpgrade: return "irrevocable-upgrade";
      case FaultSite::kUserException: return "user-exception";
      case FaultSite::kCrashPreLogSeal: return "crash-pre-log-seal";
      case FaultSite::kCrashPostSealPreWriteback:
        return "crash-post-seal-pre-writeback";
      case FaultSite::kCrashMidWriteback: return "crash-mid-writeback";
      case FaultSite::kCrashPostMarker: return "crash-post-marker";
      case FaultSite::kDeadlineWait: return "deadline-wait";
      case FaultSite::kAdmissionGate: return "admission-gate";
      case FaultSite::kNumSites: break;
    }
    return "unknown";
}

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::kNone: return "none";
      case FaultKind::kAbortConflict: return "abort-conflict";
      case FaultKind::kAbortCapacity: return "abort-capacity";
      case FaultKind::kAbortOther: return "abort-other";
      case FaultKind::kAbortExplicit: return "abort-explicit";
      case FaultKind::kDelay: return "delay";
      case FaultKind::kYield: return "yield";
      case FaultKind::kCapacitySqueeze: return "capacity-squeeze";
    }
    return "unknown";
}

FaultInjector::FaultInjector(const FaultPlan &plan, unsigned tid)
    : tid_(tid), seed_(plan.seed),
      rng_(plan.seed ^ (uint64_t(tid) * 0x9e3779b97f4a7c15ull)),
      recordTrace_(plan.recordTrace)
{
    rules_.reserve(plan.rules.size());
    for (const FaultRule &rule : plan.rules) {
        if (rule.tid >= 0 && static_cast<unsigned>(rule.tid) != tid)
            continue;
        RuleState rs{rule};
        // Threshold compare on the raw draw keeps this exact for
        // probability 0 and deterministic for everything else.
        const double scaled = std::ldexp(rule.probability, 64);
        if (scaled >= 0x1.0p64)
            rs.threshold = kNever; // Always: no draw at all.
        else if (scaled > 0.0)
            rs.threshold = static_cast<uint64_t>(scaled);
        if (rs.threshold != 0 && rs.threshold != kNever)
            rs.logMiss = std::log1p(-rule.probability);
        rules_.push_back(rs);
    }
    arm();
}

void
FaultInjector::resetForTest()
{
    rng_ = Rng(seed_ ^ (uint64_t(tid_) * 0x9e3779b97f4a7c15ull));
    for (RuleState &rs : rules_)
        rs.fired = 0;
    sites_.fill(SiteState{});
    fires_.fill(0);
    totalFires_ = 0;
    squeezeUntil_ = 0;
    squeezeRead_ = 0;
    squeezeWrite_ = 0;
    trace_.clear();
    arm();
}

void
FaultInjector::arm()
{
    for (RuleState &rs : rules_)
        rs.next = drawNext(rs, 1);
    for (unsigned site = 0; site < kNumFaultSites; ++site)
        refreshDue(site);
}

void
FaultInjector::refreshDue(unsigned site)
{
    uint64_t due = kNever;
    for (const RuleState &rs : rules_) {
        if (static_cast<unsigned>(rs.rule.site) == site && rs.next < due)
            due = rs.next;
    }
    sites_[site].due = due;
}

uint64_t
FaultInjector::drawNext(const RuleState &rs, uint64_t from)
{
    const FaultRule &r = rs.rule;
    if (r.kind == FaultKind::kNone || rs.fired >= r.maxFires ||
        rs.threshold == 0)
        return kNever;

    // First positional match at or after `from`.
    uint64_t match = r.firstHit;
    if (from > r.firstHit) {
        if (r.period == 0)
            return kNever;
        const uint64_t steps = (from - r.firstHit - 1) / r.period + 1;
        if (steps > (kNever - r.firstHit) / r.period)
            return kNever;
        match = r.firstHit + steps * r.period;
    }
    if (rs.threshold == kNever)
        return match;
    if (r.period == 0)
        return rng_.next() < rs.threshold ? match : kNever;

    // Each match fires independently with probability p, so the number
    // of matches skipped before the next firing is Geometric(p):
    // P(gap >= k) = (1 - p)^k, sampled by inverting that tail with a
    // uniform u in [0, 1): one draw per firing, not one per match.
    const double u = static_cast<double>(rng_.next() >> 11) * 0x1.0p-53;
    const double gap = std::floor(std::log1p(-u) / rs.logMiss);
    if (gap >= static_cast<double>((kNever - match) / r.period))
        return kNever;
    return match + static_cast<uint64_t>(gap) * r.period;
}

FaultKind
FaultInjector::fireDue(FaultSite site, uint64_t hit, uint32_t *delay_spins)
{
    const unsigned idx = static_cast<unsigned>(site);
    FaultKind result = FaultKind::kNone;
    // Rules due on this hit act in plan order. Squeezes arm state and
    // let the walk go on; the first other kind wins the hit, and every
    // later due rule loses it and is re-drawn from the next hit (its
    // gap is memoryless, so its distribution does not change).
    for (RuleState &rs : rules_) {
        const FaultRule &r = rs.rule;
        if (r.site != site || rs.next != hit)
            continue;
        if (result != FaultKind::kNone) {
            rs.next = drawNext(rs, hit + 1);
            continue;
        }

        ++rs.fired;
        ++fires_[idx];
        ++totalFires_;
        if (recordTrace_)
            trace_.push_back(FaultEvent{site, r.kind, hit});
        rs.next = drawNext(rs, hit + 1);

        if (r.kind == FaultKind::kCapacitySqueeze) {
            const uint64_t begins = hits(FaultSite::kHtmBegin);
            squeezeRead_ = r.squeezeReadLines;
            squeezeWrite_ = r.squeezeWriteLines;
            squeezeUntil_ = r.squeezeTxns == 0
                ? ~uint64_t(0)
                : begins + r.squeezeTxns;
            continue; // A squeeze arms state; nothing unwinds here.
        }
        if (r.kind == FaultKind::kDelay && delay_spins != nullptr)
            *delay_spins = r.delaySpins;
        result = r.kind;
    }
    refreshDue(idx);
    return result;
}

} // namespace rhtm
