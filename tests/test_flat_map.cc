/**
 * @file
 * Tests for FlatMap: a differential run against std::unordered_map,
 * filling to exactly the bound, backward-shift erase along collision
 * chains (including the wrap from the last slot to the first), and
 * the overflow panic.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/flat_map.hh"
#include "sim/random.hh"

using namespace critmem;

namespace
{

/**
 * The first @p count 64-byte-aligned addresses whose home slot in a
 * table of @p slots slots is @p home. Mirrors FlatMap's Fibonacci
 * hash, so the keys collide by construction.
 */
std::vector<Addr>
keysHomedAt(std::size_t slots, std::size_t home, std::size_t count)
{
    const int shift = 64 - std::countr_zero(slots);
    std::vector<Addr> keys;
    for (Addr k = 64; keys.size() < count; k += 64) {
        if (((k * 0x9e3779b97f4a7c15ull) >> shift) == home)
            keys.push_back(k);
    }
    return keys;
}

/** Every key of @p pool has the same presence and value in both. */
void
expectSame(const FlatMap<std::uint64_t> &flat,
           const std::unordered_map<Addr, std::uint64_t> &ref,
           const std::vector<Addr> &pool)
{
    ASSERT_EQ(flat.size(), ref.size());
    for (const Addr key : pool) {
        const std::uint64_t *got = flat.find(key);
        const auto want = ref.find(key);
        ASSERT_EQ(got != nullptr, want != ref.end()) << key;
        if (got) {
            ASSERT_EQ(*got, want->second) << key;
        }
    }
}

} // namespace

TEST(FlatMap, SizesSlotsFromTheBound)
{
    EXPECT_EQ(FlatMap<int>(0, "t").slots(), 2u);
    EXPECT_EQ(FlatMap<int>(1, "t").slots(), 2u);
    EXPECT_EQ(FlatMap<int>(5, "t").slots(), 16u);
    EXPECT_EQ(FlatMap<int>(32, "t").slots(), 64u);
    EXPECT_EQ(FlatMap<int>(100, "t").slots(), 256u);
}

TEST(FlatMap, MatchesUnorderedMapUnderRandomOps)
{
    // 48 entries in 128 slots. Half the key pool collides on purpose:
    // keys homed at slot 0, at the last slot (their probe runs wrap)
    // and at the slots between, so chains overlap and merge.
    constexpr std::size_t kMax = 48;
    FlatMap<std::uint64_t> flat(kMax, "test table");
    const std::size_t slots = flat.slots();
    std::vector<Addr> pool;
    for (const std::size_t home : {std::size_t{0}, std::size_t{1},
                                   std::size_t{2}, slots - 2, slots - 1}) {
        for (const Addr key : keysHomedAt(slots, home, 8))
            pool.push_back(key);
    }
    Rng rng(0xf1a7);
    while (pool.size() < 80)
        pool.push_back(rng.below(1u << 30) * 64);

    std::unordered_map<Addr, std::uint64_t> ref;
    std::uint64_t inserts = 0, erases = 0, fullRefusals = 0;
    for (int op = 0; op < 100000; ++op) {
        const Addr key = pool[rng.below(pool.size())];
        switch (rng.below(3)) {
          case 0: { // insert or update
            if (!ref.contains(key) && ref.size() == kMax) {
                ++fullRefusals;
                break;
            }
            const std::uint64_t value = rng.next();
            flat[key] += value;
            ref[key] += value;
            ++inserts;
            break;
          }
          case 1: { // find
            const std::uint64_t *got = flat.find(key);
            ASSERT_EQ(got != nullptr, ref.contains(key)) << op;
            if (got) {
                ASSERT_EQ(*got, ref.at(key)) << op;
            }
            break;
          }
          default: { // erase
            std::uint64_t *got = flat.find(key);
            ASSERT_EQ(got != nullptr, ref.contains(key)) << op;
            if (got) {
                flat.erase(got);
                ref.erase(key);
                ++erases;
            }
            break;
          }
        }
        ASSERT_EQ(flat.size(), ref.size()) << op;
        if (op % 997 == 0)
            expectSame(flat, ref, pool);
    }
    expectSame(flat, ref, pool);
    // The run really exercised every path, including a full table.
    EXPECT_GT(inserts, 10000u);
    EXPECT_GT(erases, 10000u);
    EXPECT_GT(fullRefusals, 100u);
}

TEST(FlatMap, FillsToExactlyItsBound)
{
    // Five colliding keys in a 16-slot table: one probe run of five.
    FlatMap<std::uint64_t> flat(5, "test table");
    const std::vector<Addr> keys = keysHomedAt(flat.slots(), 3, 5);
    for (std::size_t i = 0; i < keys.size(); ++i)
        flat[keys[i]] = i + 1;
    EXPECT_EQ(flat.size(), 5u);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        ASSERT_NE(flat.find(keys[i]), nullptr);
        EXPECT_EQ(*flat.find(keys[i]), i + 1);
    }
    // Updating a present key at the bound is not an insert.
    flat[keys[4]] = 50;
    EXPECT_EQ(*flat.find(keys[4]), 50u);
    EXPECT_FALSE(flat.contains(keysHomedAt(flat.slots(), 3, 6)[5]));
}

TEST(FlatMap, BackwardShiftKeepsChainsReachable)
{
    // Chain A homes at the last slot and wraps to slots 0..; chain B
    // homes at slot 0 and is pushed behind A. Erasing from the front
    // and middle of A must pull B's keys back without losing any.
    FlatMap<std::uint64_t> flat(8, "test table");
    const std::size_t slots = flat.slots();
    const std::vector<Addr> a = keysHomedAt(slots, slots - 1, 4);
    const std::vector<Addr> b = keysHomedAt(slots, 0, 4);
    std::unordered_map<Addr, std::uint64_t> ref;
    std::vector<Addr> pool;
    for (std::size_t i = 0; i < 4; ++i) {
        for (const Addr key : {a[i], b[i]}) {
            flat[key] = key / 64;
            ref[key] = key / 64;
            pool.push_back(key);
        }
    }
    expectSame(flat, ref, pool);
    for (const Addr key : {a[0], a[2], b[1], a[3], b[0]}) {
        flat.erase(flat.find(key));
        ref.erase(key);
        expectSame(flat, ref, pool);
    }
    // Reinsert in a different order: the chains rebuild and stay
    // reachable, and erased keys do not come back.
    for (const Addr key : {b[0], a[3], a[0]}) {
        flat[key] = 7;
        ref[key] = 7;
        expectSame(flat, ref, pool);
    }
    for (const Addr key : pool) {
        if (std::uint64_t *got = flat.find(key)) {
            flat.erase(got);
            ref.erase(key);
            expectSame(flat, ref, pool);
        }
    }
    EXPECT_TRUE(flat.empty());
}

TEST(FlatMap, OverflowPanics)
{
    FlatMap<int> flat(3, "store queue");
    flat[64] = 1;
    flat[128] = 2;
    flat[192] = 3;
    EXPECT_DEATH({ flat[256] = 4; }, "store queue: more than 3 entries");
    FlatMap<int> none(0, "empty file");
    EXPECT_DEATH({ none[64] = 1; }, "empty file: more than 0 entries");
}

TEST(FlatMap, NoAddrIsNotAKey)
{
    FlatMap<int> flat(4, "t");
    EXPECT_EQ(flat.find(kNoAddr), nullptr);
    EXPECT_DEATH({ flat[kNoAddr] = 1; }, "kNoAddr is not a valid key");
}
