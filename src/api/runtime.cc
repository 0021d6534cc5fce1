#include "src/api/runtime.h"

#include "src/core/hybrid_norec.h"
#include "src/core/hybrid_norec_lazy.h"
#include "src/core/lock_elision.h"
#include "src/core/rh_norec.h"
#include "src/core/rh_tl2.h"
#include "src/stm/norec.h"

namespace rhtm
{

const char *
algoKindName(AlgoKind kind)
{
    switch (kind) {
      case AlgoKind::kLockElision: return "lock-elision";
      case AlgoKind::kNOrec: return "norec";
      case AlgoKind::kNOrecLazy: return "norec-lazy";
      case AlgoKind::kTl2: return "tl2";
      case AlgoKind::kHybridNOrec: return "hy-norec";
      case AlgoKind::kHybridNOrecLazy: return "hy-norec-lazy";
      case AlgoKind::kRhNOrec: return "rh-norec";
      case AlgoKind::kRhTl2: return "rh-tl2";
    }
    return "unknown";
}

bool
algoKindFromString(const std::string &name, AlgoKind &out)
{
    for (AlgoKind k : allAlgoKinds()) {
        if (name == algoKindName(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

const std::vector<AlgoKind> &
allAlgoKinds()
{
    static const std::vector<AlgoKind> kinds = {
        AlgoKind::kLockElision,     AlgoKind::kNOrec,
        AlgoKind::kNOrecLazy,       AlgoKind::kTl2,
        AlgoKind::kHybridNOrec,     AlgoKind::kHybridNOrecLazy,
        AlgoKind::kRhNOrec,         AlgoKind::kRhTl2,
    };
    return kinds;
}

TmRuntime::TmRuntime(AlgoKind kind, RuntimeConfig cfg)
    : kind_(kind), cfg_(cfg), eng_(cfg.htm)
{
    if (kind_ == AlgoKind::kTl2)
        tl2_ = std::make_unique<Tl2Globals>();
    if (kind_ == AlgoKind::kRhTl2)
        rhTl2_ = std::make_unique<RhTl2Globals>();
    if (cfg_.persist.enabled) {
        if (cfg_.persist.seed == 0)
            cfg_.persist.seed = cfg_.rngSeed;
        nvm_ = std::make_unique<NvmSim>(cfg_.persist);
    }
    if (cfg_.admission.enabled)
        gate_ = std::make_unique<AdmissionGate>(cfg_.admission);
    domain_.admission = gate_.get();
}

TmRuntime::~TmRuntime() = default;

std::unique_ptr<TxSession>
TmRuntime::makeSession(ThreadCtx &ctx)
{
    ThreadStats *stats = &ctx.stats_;
    // Contention-manager seed: per-thread (determinism requires each
    // thread's backoff jitter to be independent of the others), derived
    // the same way as the HtmTxn seed.
    uint64_t cmSeed = cfg_.rngSeed + ctx.tid();
    TxPersist *persist = ctx.persist_.get();
    switch (kind_) {
      case AlgoKind::kLockElision:
        return std::make_unique<LockElisionSession>(
            eng_, domain_, *ctx.htm_, stats, cfg_.retry, cmSeed,
            persist);
      case AlgoKind::kNOrec:
        return std::make_unique<NOrecEagerSession>(
            domain_, stats, cfg_.stmAccessPenalty, persist,
            &cfg_.retry);
      case AlgoKind::kNOrecLazy:
        return std::make_unique<NOrecLazySession>(
            domain_, stats, cfg_.stmAccessPenalty, persist);
      case AlgoKind::kTl2:
        return std::make_unique<Tl2Session>(*tl2_, stats, ctx.tid(),
                                            cfg_.stmAccessPenalty,
                                            persist);
      case AlgoKind::kHybridNOrec:
        return std::make_unique<HybridNOrecSession>(
            eng_, domain_, *ctx.htm_, stats, cfg_.retry,
            cfg_.stmAccessPenalty, cmSeed, persist);
      case AlgoKind::kHybridNOrecLazy:
        return std::make_unique<HybridNOrecLazySession>(
            eng_, domain_, *ctx.htm_, stats, cfg_.retry,
            cfg_.stmAccessPenalty, cmSeed, persist);
      case AlgoKind::kRhNOrec:
        return std::make_unique<RhNOrecSession>(
            eng_, domain_, *ctx.htm_, stats, cfg_.retry, cfg_.rh,
            cfg_.stmAccessPenalty, cmSeed, persist);
      case AlgoKind::kRhTl2:
        return std::make_unique<RhTl2Session>(
            eng_, domain_, *rhTl2_, *ctx.htm_, stats, cfg_.retry,
            cfg_.stmAccessPenalty, cmSeed, persist);
    }
    return nullptr;
}

ThreadCtx &
TmRuntime::registerThread()
{
    std::lock_guard<std::mutex> guard(registerLock_);
    ThreadMem &tm = mem_.registerThread();
    auto ctx =
        std::unique_ptr<ThreadCtx>(new ThreadCtx(tm.tid(), &tm));
    if (!cfg_.fault.empty()) {
        FaultPlan plan = cfg_.fault;
        if (plan.seed == 0)
            plan.seed = cfg_.rngSeed;
        ctx->fault_ =
            std::make_unique<FaultInjector>(plan, ctx->tid());
    }
    ctx->htm_ = std::make_unique<HtmTxn>(eng_, ctx->tid(), &ctx->stats_,
                                         cfg_.rngSeed + ctx->tid(),
                                         ctx->fault_.get());
    if (nvm_ != nullptr) {
        ctx->persist_ = std::make_unique<TxPersist>(
            nvm_.get(), ctx->fault_.get(), &ctx->stats_, ctx->tid());
    }
    ctx->session_ = makeSession(*ctx);
    ctx->deadline_.attachInjector(ctx->fault_.get());
    ctx->session_->attachDeadline(&ctx->deadline_);
    ctxs_.push_back(std::move(ctx));
    return *ctxs_.back();
}

StatsSummary
TmRuntime::stats() const
{
    // registerLock_ makes the ctxs_ walk safe against a concurrent
    // registerThread(); the counter reads themselves are the same
    // benign torn snapshot they always were.
    std::lock_guard<std::mutex> guard(registerLock_);
    StatsSummary summary;
    for (const auto &ctx : ctxs_)
        summary.accumulate(ctx->stats_);
    return summary;
}

void
TmRuntime::resetStats()
{
    std::lock_guard<std::mutex> guard(registerLock_);
    for (auto &ctx : ctxs_)
        ctx->stats_.reset();
}

void
TmRuntime::resetForTest()
{
    domain_.resetForTest();
    if (tl2_ != nullptr)
        tl2_->resetForTest();
    if (rhTl2_ != nullptr)
        rhTl2_->resetForTest();
    if (nvm_ != nullptr)
        nvm_->resetForTest();
    if (gate_ != nullptr)
        gate_->resetForTest();
    for (auto &ctx : ctxs_) {
        if (ctx->inTxn_) {
            // A scheduler-poisoned run unwound without reaching run()'s
            // cleanup; release the epoch slot it still occupies.
            ctx->inTxn_ = false;
            mem_.epochs().exitRegion(ctx->tid());
        }
        ctx->stats_.reset();
        ctx->actions_.clear();
        if (ctx->fault_ != nullptr)
            ctx->fault_->resetForTest();
        ctx->htm_->resetForTest();
        if (ctx->persist_ != nullptr)
            ctx->persist_->resetForTest();
        ctx->session_->resetForTest();
        ctx->deadline_.resetForTest();
        ctx->mem_->resetForTest();
    }
}

} // namespace rhtm
