/**
 * @file
 * Growth tests for the bounded tracking tables: start at 64 slots,
 * double at 3/4 load up to the bound, agree with std::set/std::map
 * through every doubling, keep their size across clear(), and report
 * full at 3/4 of the bound.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "src/htm/fixed_table.h"
#include "src/util/rng.h"

namespace rhtm
{
namespace
{

TEST(TableGrowthTest, BoundHoldsTheCapacityUnderTheLoadCap)
{
    EXPECT_EQ(tableBoundLog2(0), 2u);
    EXPECT_EQ(tableBoundLog2(3), 2u);  // 4 slots hold 3 keys.
    EXPECT_EQ(tableBoundLog2(4), 3u);
    EXPECT_EQ(tableBoundLog2(448), 10u);    // 1024 * 3/4 = 768.
    EXPECT_EQ(tableBoundLog2(3072), 12u);   // Exactly 4096 * 3/4.
    EXPECT_EQ(tableBoundLog2(3073), 13u);
    EXPECT_EQ(tableBoundLog2(4096), 13u);
    EXPECT_EQ(tableBoundLog2(16384), 15u);
    for (size_t keys : {size_t(1), size_t(100), size_t(5000)}) {
        const size_t slots = size_t(1) << tableBoundLog2(keys);
        EXPECT_GE(slots / 4 * 3, keys);
        EXPECT_LT(slots / 8 * 3, keys);
    }
}

TEST(TableGrowthTest, HashSetMatchesStdSetThroughDoublings)
{
    FixedHashSet set(16);
    EXPECT_EQ(set.slotCount(), kTableInitialSlots);
    std::set<uint64_t> model;
    std::vector<size_t> sizes{set.slotCount()};
    Rng rng(5);
    for (int i = 0; i < 30000; ++i) {
        const uint64_t k = rng.nextBounded(40000);
        bool inserted = false;
        ASSERT_TRUE(set.insert(k, inserted));
        EXPECT_EQ(inserted, model.insert(k).second);
        if (set.slotCount() != sizes.back())
            sizes.push_back(set.slotCount());
        ASSERT_LE(set.size(), set.slotCount() / 4 * 3);
    }
    EXPECT_EQ(set.size(), model.size());
    for (uint64_t k = 0; k < 40000; ++k)
        ASSERT_EQ(set.contains(k), model.count(k) == 1) << k;
    // Doubled one step at a time from 64 slots.
    ASSERT_GE(sizes.size(), 6u);
    for (size_t i = 1; i < sizes.size(); ++i)
        EXPECT_EQ(sizes[i], sizes[i - 1] * 2);
}

TEST(TableGrowthTest, HashSetClearAfterGrowthKeepsSlotsForgetsKeys)
{
    FixedHashSet set(12);
    bool inserted = false;
    for (uint64_t k = 0; k < 1000; ++k)
        ASSERT_TRUE(set.insert(k * 977, inserted));
    const size_t grown = set.slotCount();
    EXPECT_GT(grown, kTableInitialSlots);
    set.clear();
    EXPECT_EQ(set.size(), 0u);
    EXPECT_EQ(set.slotCount(), grown);
    for (uint64_t k = 0; k < 1000; ++k)
        ASSERT_FALSE(set.contains(k * 977));
    std::set<uint64_t> model;
    Rng rng(6);
    for (int i = 0; i < 2000; ++i) {
        const uint64_t k = rng.nextBounded(3000);
        ASSERT_TRUE(set.insert(k, inserted));
        EXPECT_EQ(inserted, model.insert(k).second);
    }
    for (uint64_t k = 0; k < 3000; ++k)
        ASSERT_EQ(set.contains(k), model.count(k) == 1);
}

TEST(TableGrowthTest, HashSetFullAtThreeQuartersOfItsBound)
{
    FixedHashSet set(10); // Grows 64 -> 1024 slots, full at 768 keys.
    bool inserted = false;
    uint64_t k = 0;
    while (set.insert(k, inserted))
        ++k;
    EXPECT_EQ(set.size(), 768u);
    EXPECT_EQ(set.slotCount(), 1024u);
    EXPECT_FALSE(inserted);
    // Present keys still answer true at the bound; new ones do not.
    EXPECT_TRUE(set.insert(17, inserted));
    EXPECT_FALSE(inserted);
    EXPECT_FALSE(set.insert(100000, inserted));
    EXPECT_FALSE(set.contains(100000));
}

TEST(TableGrowthTest, WriteBufferMatchesStdMapThroughDoublings)
{
    WriteBuffer buf(16);
    EXPECT_EQ(buf.slotCount(), kTableInitialSlots);
    std::vector<uint64_t> words(20000);
    std::map<uint64_t *, uint64_t> model;
    std::vector<uint64_t *> firstPut;
    Rng rng(9);
    for (int i = 0; i < 40000; ++i) {
        uint64_t *a = &words[rng.nextBounded(words.size())];
        const uint64_t v = rng.next();
        ASSERT_TRUE(buf.put(a, v));
        if (model.find(a) == model.end())
            firstPut.push_back(a);
        model[a] = v;
    }
    EXPECT_GE(buf.slotCount(), size_t(1) << 14);
    EXPECT_EQ(buf.sizeWords(), model.size());
    for (uint64_t &w : words) {
        uint64_t out = 0;
        auto it = model.find(&w);
        ASSERT_EQ(buf.lookup(&w, out), it != model.end());
        if (it != model.end()) {
            ASSERT_EQ(out, it->second);
        }
    }
    // forEach keeps first-put order across every rehash.
    std::vector<uint64_t *> visited;
    buf.forEach([&](uint64_t *a, uint64_t v) {
        visited.push_back(a);
        EXPECT_EQ(v, model[a]);
    });
    EXPECT_EQ(visited, firstPut);
}

TEST(TableGrowthTest, WriteBufferClearAfterGrowthThenFullAtBound)
{
    WriteBuffer buf(10); // Full at 768 words.
    std::vector<uint64_t> words(2000);
    for (size_t i = 0; i < 500; ++i)
        ASSERT_TRUE(buf.put(&words[i], i));
    const size_t grown = buf.slotCount();
    buf.clear();
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(buf.slotCount(), grown);
    uint64_t out = 0;
    EXPECT_FALSE(buf.lookup(&words[0], out));
    size_t accepted = 0;
    for (uint64_t &w : words) {
        if (!buf.put(&w, 1))
            break;
        ++accepted;
    }
    EXPECT_EQ(accepted, 768u);
    EXPECT_EQ(buf.slotCount(), 1024u);
    EXPECT_EQ(buf.sizeWords(), 768u);
}

} // namespace
} // namespace rhtm
