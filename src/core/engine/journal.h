/**
 * @file
 * Write journals and the value-based read log shared by every
 * algorithm's software phase.
 *
 * Eager algorithms (NOrec eager, hybrid NOrec, RH NOrec, TL2) write in
 * place and keep an UndoJournal of old values to replay backwards on
 * abort. Lazy algorithms buffer writes in a RedoBuffer and publish at
 * commit. Value-based algorithms (the NOrec family) additionally keep
 * a ValueReadLog and revalidate it whenever the global clock moves.
 *
 * The UndoJournal inlines its first entries so the common short
 * transaction never touches the heap on its write path.
 */

#ifndef RHTM_CORE_ENGINE_JOURNAL_H
#define RHTM_CORE_ENGINE_JOURNAL_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/engine/session.h"
#include "src/htm/fixed_table.h"

namespace rhtm
{

/** One in-place write to undo if the transaction aborts. */
struct UndoEntry
{
    uint64_t *addr;
    uint64_t oldValue;
};

/**
 * Old-value journal for eager (write-in-place) phases. Rolled back in
 * reverse push order so a location written twice ends at its pre-txn
 * value. The first kInlineEntries live in the object itself;
 * pathological write sets spill to a vector that keeps its capacity
 * across transactions.
 */
class UndoJournal
{
  public:
    static constexpr size_t kInlineEntries = 64;

    /** Record @p addr's pre-write value. */
    void
    push(uint64_t *addr, uint64_t oldValue)
    {
        if (size_ < kInlineEntries)
            inline_[size_] = {addr, oldValue};
        else
            overflow_.push_back({addr, oldValue});
        ++size_;
    }

    /** Replay old values newest-first through @p mem. */
    template <typename Mem>
    void
    rollback(const Mem &mem)
    {
        for (size_t i = size_; i > kInlineEntries; --i) {
            const UndoEntry &e = overflow_[i - kInlineEntries - 1];
            mem.store(e.addr, e.oldValue);
        }
        size_t live = size_ < kInlineEntries ? size_ : kInlineEntries;
        for (size_t i = live; i > 0; --i) {
            const UndoEntry &e = inline_[i - 1];
            mem.store(e.addr, e.oldValue);
        }
    }

    void
    clear()
    {
        size_ = 0;
        overflow_.clear();
    }

    bool empty() const { return size_ == 0; }

    size_t size() const { return size_; }

  private:
    std::array<UndoEntry, kInlineEntries> inline_;
    std::vector<UndoEntry> overflow_;
    size_t size_ = 0;
};

/**
 * Speculative write buffer for lazy (buffered) phases: lookups service
 * read-after-write, forEach publishes in program order at commit.
 *
 * Layout (docs/COMMIT_PATH.md): a dense append log of (addr, value)
 * entries -- duplicate addresses collapse in place, so forEach still
 * visits each word exactly once -- plus a stamped open-addressing
 * index mapping address to log position, making read-own-writes O(1).
 * (The simulated HTM keeps using the bounded WriteBuffer in
 * src/htm/fixed_table.h: hardware write sets are capacity-bounded;
 * this one grows without bound.)
 */
class RedoBuffer
{
  public:
    /** @param slots_log2 log2 of the initial index slot count. */
    explicit RedoBuffer(unsigned slots_log2 = 10)
        : mask_((size_t(1) << slots_log2) - 1),
          idx_(size_t(1) << slots_log2), stamp_(1)
    {
        log_.reserve(256);
    }

    /** Buffer @p value for @p addr (overwrites an earlier buffering). */
    void
    putGrowing(uint64_t *addr, uint64_t value)
    {
        if (log_.size() >= (mask_ + 1) / 4 * 3)
            grow();
        size_t i = mixHash(reinterpret_cast<uint64_t>(addr)) & mask_;
        for (;;) {
            IdxSlot &s = idx_[i];
            if (s.stamp != stamp_) {
                s.stamp = stamp_;
                s.pos = static_cast<uint32_t>(log_.size());
                log_.push_back({addr, value});
                return;
            }
            if (log_[s.pos].addr == addr) {
                log_[s.pos].value = value;
                return;
            }
            i = (i + 1) & mask_;
        }
    }

    /**
     * Fetch the buffered value for @p addr (read-own-writes).
     * @return true and set @p out if present.
     */
    bool
    lookup(const uint64_t *addr, uint64_t &out) const
    {
        if (log_.empty())
            return false;
        size_t i = mixHash(reinterpret_cast<uint64_t>(addr)) & mask_;
        for (;;) {
            const IdxSlot &s = idx_[i];
            if (s.stamp != stamp_)
                return false;
            if (log_[s.pos].addr == addr) {
                out = log_[s.pos].value;
                return true;
            }
            i = (i + 1) & mask_;
        }
    }

    /** Number of distinct buffered words. */
    size_t sizeWords() const { return log_.size(); }

    /** True when nothing is buffered. */
    bool empty() const { return log_.empty(); }

    /** Visit each buffered (addr, value) pair once, in program order. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (const Entry &e : log_)
            fn(e.addr, e.value);
    }

    /** Discard all buffered writes in O(1). */
    void
    clear()
    {
        log_.clear();
        ++stamp_;
    }

  private:
    struct Entry
    {
        uint64_t *addr;
        uint64_t value;
    };

    struct IdxSlot
    {
        uint32_t pos = 0;
        uint64_t stamp = 0;
    };

    /** Double the index and re-point it at the live log entries. */
    void
    grow()
    {
        size_t slots = (mask_ + 1) * 2;
        mask_ = slots - 1;
        idx_.assign(slots, IdxSlot{});
        ++stamp_;
        for (size_t pos = 0; pos < log_.size(); ++pos) {
            size_t i = mixHash(reinterpret_cast<uint64_t>(
                           log_[pos].addr)) &
                       mask_;
            while (idx_[i].stamp == stamp_)
                i = (i + 1) & mask_;
            idx_[i].stamp = stamp_;
            idx_[i].pos = static_cast<uint32_t>(pos);
        }
    }

    std::vector<Entry> log_;
    size_t mask_;
    std::vector<IdxSlot> idx_;
    uint64_t stamp_;
};

/** One value-validated read (NOrec family). */
struct ReadEntry
{
    const uint64_t *addr;
    uint64_t value;
};

/**
 * Value-based read log (NOrec's validation set): remembers every
 * location/value a software read phase observed and re-checks them
 * whenever the global clock moves.
 */
class ValueReadLog
{
  public:
    ValueReadLog() { log_.reserve(1024); }

    void
    push(const uint64_t *addr, uint64_t value)
    {
        log_.push_back({addr, value});
    }

    void clear() { log_.clear(); }

    bool empty() const { return log_.empty(); }

    size_t size() const { return log_.size(); }

    /** True when every logged location still holds its logged value. */
    template <typename Mem>
    bool
    consistent(const Mem &mem) const
    {
        for (const ReadEntry &e : log_) {
            if (mem.load(e.addr) != e.value)
                return false;
        }
        return true;
    }

    /**
     * NOrec's validation loop: take a stable (unlocked) clock sample,
     * value-check the log, and retry until the clock holds still
     * across the check. Returns the snapshot the log is now valid at;
     * throws TxRestart if any value changed.
     */
    template <typename Mem, typename StableRead>
    uint64_t
    revalidate(const Mem &mem, const uint64_t *clock,
               StableRead stableRead) const
    {
        for (;;) {
            uint64_t snapshot = stableRead();
            if (!consistent(mem))
                throw TxRestart{};
            if (mem.load(clock) == snapshot)
                return snapshot;
        }
    }

  private:
    std::vector<ReadEntry> log_;
};

} // namespace rhtm

#endif // RHTM_CORE_ENGINE_JOURNAL_H
