/**
 * @file
 * Bounded open-addressing hash containers with O(1) clear.
 *
 * The simulated HTM's read/write tracking sets are bounded by the
 * capacity model, so tables with stamped slots (clear = bump the
 * stamp) keep per-transaction bookkeeping cheap to reset, the way
 * hardware tracking sets are. A table starts small and doubles at 3/4
 * load up to its bound, so a thread touches only as many slots as its
 * largest transaction needed: probes stay in a few resident cache
 * lines, and once grown the table allocates nothing more.
 */

#ifndef RHTM_HTM_FIXED_TABLE_H
#define RHTM_HTM_FIXED_TABLE_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rhtm
{

/** Multiplicative hash spreading pointer-like keys. */
inline uint64_t
mixHash(uint64_t key)
{
    key *= 0x9e3779b97f4a7c15ull;
    key ^= key >> 32;
    return key;
}

/** Slots a table starts with (its bound, if that is smaller). */
constexpr size_t kTableInitialSlots = 64;

/**
 * log2 of the smallest power-of-two slot count that holds @p keys
 * under the 3/4 load cap, i.e. >= keys * 4/3 (at least 4 slots).
 */
inline unsigned
tableBoundLog2(size_t keys)
{
    unsigned log2 = 2;
    while (log2 < 48 && (size_t(1) << log2) / 4 * 3 < keys)
        ++log2;
    return log2;
}

/**
 * Bounded set of uint64_t keys (key 0 allowed).
 *
 * insert() reports through @p inserted whether the key was newly
 * added, and returns false when the table is at 3/4 of its bound --
 * the caller treats that as a capacity overflow.
 */
class FixedHashSet
{
  public:
    /** @param bound_log2 log2 of the largest slot count. */
    explicit FixedHashSet(unsigned bound_log2)
        : bound_(size_t(1) << bound_log2), stamp_(1), size_(0)
    {
        resize(std::min(bound_, kTableInitialSlots));
    }

    /**
     * Insert @p key.
     *
     * @param key Key to add.
     * @param inserted Set true if the key was not present.
     * @return false when the table is full (key not added).
     */
    bool
    insert(uint64_t key, bool &inserted)
    {
        // Cap the probe chain (and load factor) at 3/4 of the table.
        if (size_ >= limit_) {
            if (slots_.size() >= bound_) {
                inserted = false;
                return contains(key);
            }
            grow();
        }
        size_t idx = mixHash(key) & mask_;
        for (;;) {
            Slot &s = slots_[idx];
            if (s.stamp != stamp_) {
                s.stamp = stamp_;
                s.key = key;
                ++size_;
                inserted = true;
                return true;
            }
            if (s.key == key) {
                inserted = false;
                return true;
            }
            idx = (idx + 1) & mask_;
        }
    }

    /** True if @p key is present. */
    bool
    contains(uint64_t key) const
    {
        size_t idx = mixHash(key) & mask_;
        for (;;) {
            const Slot &s = slots_[idx];
            if (s.stamp != stamp_)
                return false;
            if (s.key == key)
                return true;
            idx = (idx + 1) & mask_;
        }
    }

    /** Number of keys currently stored. */
    size_t size() const { return size_; }

    /** Slots allocated so far (grows by doubling up to the bound). */
    size_t slotCount() const { return slots_.size(); }

    /** Forget all keys in O(1); the table keeps its grown size. */
    void
    clear()
    {
        ++stamp_;
        size_ = 0;
    }

  private:
    struct Slot
    {
        uint64_t key = 0;
        uint64_t stamp = 0;
    };

    void
    resize(size_t slots)
    {
        slots_.assign(slots, Slot{});
        mask_ = slots - 1;
        limit_ = slots / 4 * 3;
    }

    /** Double the slot count, rehashing the live keys. */
    void
    grow()
    {
        std::vector<Slot> old;
        old.swap(slots_);
        resize(old.size() * 2);
        size_ = 0;
        bool inserted = false;
        for (const Slot &s : old) {
            if (s.stamp == stamp_)
                insert(s.key, inserted);
        }
    }

    size_t bound_;
    size_t mask_ = 0;
    size_t limit_ = 0;
    std::vector<Slot> slots_;
    uint64_t stamp_;
    size_t size_;
};

/**
 * Bounded map from word address to buffered value, preserving a way to
 * iterate the live entries (publication order is irrelevant, but
 * commit must visit each buffered word once).
 */
class WriteBuffer
{
  public:
    /** @param bound_log2 log2 of the largest slot count. */
    explicit WriteBuffer(unsigned bound_log2)
        : bound_(size_t(1) << bound_log2), stamp_(1)
    {
        resize(std::min(bound_, kTableInitialSlots));
    }

    /**
     * Buffer @p value for @p addr (overwrites an earlier buffering).
     * @return false when the buffer is full (capacity overflow).
     */
    bool
    put(uint64_t *addr, uint64_t value)
    {
        if (order_.size() >= limit_) {
            if (slots_.size() >= bound_)
                return false;
            grow();
        }
        size_t idx = mixHash(reinterpret_cast<uint64_t>(addr)) & mask_;
        for (;;) {
            Slot &s = slots_[idx];
            if (s.stamp != stamp_) {
                s.stamp = stamp_;
                s.addr = addr;
                s.value = value;
                order_.push_back(static_cast<uint32_t>(idx));
                return true;
            }
            if (s.addr == addr) {
                s.value = value;
                return true;
            }
            idx = (idx + 1) & mask_;
        }
    }

    /**
     * Fetch the buffered value for @p addr.
     * @return true and set @p out if present.
     */
    bool
    lookup(const uint64_t *addr, uint64_t &out) const
    {
        size_t idx = mixHash(reinterpret_cast<uint64_t>(addr)) & mask_;
        for (;;) {
            const Slot &s = slots_[idx];
            if (s.stamp != stamp_)
                return false;
            if (s.addr == addr) {
                out = s.value;
                return true;
            }
            idx = (idx + 1) & mask_;
        }
    }

    /** Number of distinct buffered words. */
    size_t sizeWords() const { return order_.size(); }

    /** True when nothing is buffered. */
    bool empty() const { return order_.empty(); }

    /** Slots allocated so far (grows by doubling up to the bound). */
    size_t slotCount() const { return slots_.size(); }

    /** Visit each buffered (addr, value) pair once, in put order. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (uint32_t idx : order_) {
            const Slot &s = slots_[idx];
            fn(s.addr, s.value);
        }
    }

    /** Discard all buffered writes; the table keeps its grown size. */
    void
    clear()
    {
        ++stamp_;
        order_.clear();
    }

  private:
    struct Slot
    {
        uint64_t *addr = nullptr;
        uint64_t value = 0;
        uint64_t stamp = 0;
    };

    void
    resize(size_t slots)
    {
        slots_.assign(slots, Slot{});
        mask_ = slots - 1;
        limit_ = slots / 4 * 3;
        order_.reserve(limit_);
    }

    /** Double the slot count, re-putting the live entries in order. */
    void
    grow()
    {
        std::vector<Slot> old;
        old.swap(slots_);
        std::vector<uint32_t> order;
        order.swap(order_);
        resize(old.size() * 2);
        for (uint32_t idx : order)
            put(old[idx].addr, old[idx].value);
    }

    size_t bound_;
    size_t mask_ = 0;
    size_t limit_ = 0;
    std::vector<Slot> slots_;
    uint64_t stamp_;
    std::vector<uint32_t> order_;
};

} // namespace rhtm

#endif // RHTM_HTM_FIXED_TABLE_H
