#include "src/htm/htm_engine.h"

namespace rhtm
{

HtmEngine::HtmEngine(const HtmConfig &cfg)
    : cfg_(cfg),
      stripeShift_(64 - cfg.stripeCountLog2),
      seq_(0),
      stripes_(size_t(1) << cfg.stripeCountLog2)
{
    for (auto &s : stripes_)
        s.store(0, std::memory_order_relaxed);
}

// Each direct operation holds one stripe lock and never waits or hits
// a scheduling point while holding it, so a holder always finishes in
// a bounded number of its own steps.

uint64_t
HtmEngine::lockStripe(std::atomic<uint64_t> &s, const void *addr)
{
    for (uint32_t spins = 0;; lockedStripeWait(spins, addr)) {
        uint64_t v = s.load(std::memory_order_relaxed);
        if (!(v & 1) &&
            s.compare_exchange_weak(v, v | 1, std::memory_order_acquire,
                                    std::memory_order_relaxed)) {
            return v;
        }
    }
}

uint64_t
HtmEngine::directLoad(const uint64_t *addr) const
{
    schedPoint(SchedPoint::kDirectLoad, addr);
    const std::atomic<uint64_t> &s = stripes_[stripeOf(addr)];
    auto ref = std::atomic_ref<const uint64_t>(*addr);
    for (uint32_t spins = 0;;) {
        uint64_t v1 = s.load(std::memory_order_acquire);
        if (v1 & 1) {
            lockedStripeWait(spins, addr);
            continue;
        }
        uint64_t v = ref.load(std::memory_order_acquire);
        if (s.load(std::memory_order_acquire) == v1)
            return v;
    }
}

void
HtmEngine::directStore(uint64_t *addr, uint64_t value)
{
    schedPoint(SchedPoint::kDirectStore, addr);
    std::atomic<uint64_t> &s = stripes_[stripeOf(addr)];
    const uint64_t ver = lockStripe(s, addr);
    announcePublication();
    std::atomic_ref<uint64_t>(*addr).store(value,
                                           std::memory_order_release);
    s.store(ver + 2, std::memory_order_release);
}

bool
HtmEngine::directCas(uint64_t *addr, uint64_t &expected, uint64_t desired)
{
    schedPoint(SchedPoint::kDirectRmw, addr);
    std::atomic<uint64_t> &s = stripes_[stripeOf(addr)];
    const uint64_t ver = lockStripe(s, addr);
    auto ref = std::atomic_ref<uint64_t>(*addr);
    uint64_t cur = ref.load(std::memory_order_acquire);
    if (cur != expected) {
        expected = cur;
        s.store(ver, std::memory_order_release);
        return false;
    }
    announcePublication();
    ref.store(desired, std::memory_order_release);
    s.store(ver + 2, std::memory_order_release);
    return true;
}

uint64_t
HtmEngine::directFetchAdd(uint64_t *addr, uint64_t delta)
{
    schedPoint(SchedPoint::kDirectRmw, addr);
    std::atomic<uint64_t> &s = stripes_[stripeOf(addr)];
    const uint64_t ver = lockStripe(s, addr);
    announcePublication();
    auto ref = std::atomic_ref<uint64_t>(*addr);
    uint64_t cur = ref.load(std::memory_order_acquire);
    ref.store(cur + delta, std::memory_order_release);
    s.store(ver + 2, std::memory_order_release);
    return cur;
}

} // namespace rhtm
