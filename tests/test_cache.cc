/** @file Unit tests for the set-associative MESI cache array. */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "sim/random.hh"

using namespace critmem;

namespace
{

CacheConfig
smallCache(std::uint32_t ways = 2)
{
    CacheConfig cfg;
    cfg.sizeBytes = 1024;
    cfg.blockBytes = 64;
    cfg.ways = ways;
    return cfg;
}

} // namespace

class CacheTest : public ::testing::Test
{
  protected:
    stats::Group root_;
};

TEST_F(CacheTest, MissThenHit)
{
    Cache cache(smallCache(), "c", root_);
    EXPECT_EQ(cache.access(0x1000), Cache::kNoWay);
    cache.insert(0x1000, LineState::Exclusive);
    EXPECT_NE(cache.access(0x1000), Cache::kNoWay);
    EXPECT_EQ(cache.cacheStats().hits.value(), 1u);
    EXPECT_EQ(cache.cacheStats().misses.value(), 1u);
}

TEST_F(CacheTest, ProbeDoesNotTouchStats)
{
    Cache cache(smallCache(), "c", root_);
    EXPECT_EQ(cache.probe(0x40), LineState::Invalid);
    EXPECT_EQ(cache.cacheStats().misses.value(), 0u);
    cache.insert(0x40, LineState::Shared);
    EXPECT_EQ(cache.probe(0x40), LineState::Shared);
}

TEST_F(CacheTest, BlockAlign)
{
    Cache cache(smallCache(), "c", root_);
    EXPECT_EQ(cache.blockAlign(0x1234), 0x1200u & ~Addr{63});
    EXPECT_EQ(cache.blockAlign(0x1240), 0x1240u);
}

TEST_F(CacheTest, LruEviction)
{
    // 2-way: fill a set with two lines, touch the first, insert a
    // third -> the second (LRU) must be the victim.
    Cache cache(smallCache(2), "c", root_);
    const std::uint32_t setStride = 1024 / 2; // sets*block
    cache.insert(0x0, LineState::Exclusive);
    cache.insert(0x0 + setStride, LineState::Exclusive);
    cache.access(0x0); // make first MRU
    const Cache::Victim victim =
        cache.insert(0x0 + 2 * setStride, LineState::Exclusive);
    ASSERT_TRUE(victim.valid);
    EXPECT_EQ(victim.addr, 0x0 + setStride);
    EXPECT_EQ(cache.probe(0x0), LineState::Exclusive);
    EXPECT_EQ(cache.probe(0x0 + setStride), LineState::Invalid);
}

TEST_F(CacheTest, VictimReportsDirty)
{
    Cache cache(smallCache(1), "c", root_);
    cache.insert(0x0, LineState::Modified);
    const Cache::Victim victim =
        cache.insert(0x0 + 1024, LineState::Exclusive);
    ASSERT_TRUE(victim.valid);
    EXPECT_TRUE(victim.dirty);
    EXPECT_EQ(cache.cacheStats().writebacks.value(), 1u);
}

TEST_F(CacheTest, CleanVictimNotDirty)
{
    Cache cache(smallCache(1), "c", root_);
    cache.insert(0x0, LineState::Shared);
    const Cache::Victim victim =
        cache.insert(0x0 + 1024, LineState::Exclusive);
    ASSERT_TRUE(victim.valid);
    EXPECT_FALSE(victim.dirty);
}

TEST_F(CacheTest, InsertExistingUpdatesInPlace)
{
    Cache cache(smallCache(2), "c", root_);
    cache.insert(0x0, LineState::Shared);
    const Cache::Victim victim =
        cache.insert(0x0, LineState::Modified);
    EXPECT_FALSE(victim.valid);
    EXPECT_EQ(cache.probe(0x0), LineState::Modified);
}

TEST_F(CacheTest, SetStateOnResidentLine)
{
    Cache cache(smallCache(), "c", root_);
    cache.insert(0x80, LineState::Exclusive);
    cache.setState(0x80, LineState::Modified);
    EXPECT_EQ(cache.probe(0x80), LineState::Modified);
}

TEST_F(CacheTest, SetStateOnMissingLineIsNoop)
{
    Cache cache(smallCache(), "c", root_);
    cache.setState(0x80, LineState::Modified);
    EXPECT_EQ(cache.probe(0x80), LineState::Invalid);
}

TEST_F(CacheTest, InvalidateDropsLine)
{
    Cache cache(smallCache(), "c", root_);
    cache.insert(0x100, LineState::Shared);
    cache.invalidate(0x100);
    EXPECT_EQ(cache.probe(0x100), LineState::Invalid);
    EXPECT_EQ(cache.cacheStats().invalidations.value(), 1u);
}

TEST_F(CacheTest, PrefetchedFlagLifecycle)
{
    Cache cache(smallCache(), "c", root_);
    cache.insert(0x200, LineState::Exclusive, /*prefetched=*/true);
    const Cache::Way line = cache.lookup(0x200);
    ASSERT_NE(line, Cache::kNoWay);
    EXPECT_TRUE(cache.prefetched(line));
    cache.clearPrefetched(line);
    EXPECT_FALSE(cache.prefetched(line));
    EXPECT_EQ(cache.state(line), LineState::Exclusive);
}

TEST_F(CacheTest, OneSetScanPerAccess)
{
    // lookup(), probe(), access() and insert() each scan one set; the
    // accessors on a found line scan nothing.
    Cache cache(smallCache(4), "c", root_);
    cache.insert(0x40, LineState::Shared);
    EXPECT_EQ(cache.lookups(), 1u);
    const Cache::Way line = cache.access(0x40);
    ASSERT_NE(line, Cache::kNoWay);
    cache.setState(line, LineState::Modified);
    cache.hit(line);
    EXPECT_EQ(cache.state(line), LineState::Modified);
    EXPECT_EQ(cache.lookups(), 2u);
    EXPECT_EQ(cache.probe(0x40), LineState::Modified);
    EXPECT_EQ(cache.lookup(0x80), Cache::kNoWay);
    EXPECT_EQ(cache.lookups(), 4u);
    EXPECT_EQ(cache.cacheStats().hits.value(), 2u);
}

TEST_F(CacheTest, InvalidWaysFilledBeforeEviction)
{
    Cache cache(smallCache(2), "c", root_);
    cache.insert(0x0, LineState::Exclusive);
    const Cache::Victim victim =
        cache.insert(0x0 + 512, LineState::Exclusive);
    EXPECT_FALSE(victim.valid);
    EXPECT_EQ(cache.probe(0x0), LineState::Exclusive);
    EXPECT_EQ(cache.probe(0x0 + 512), LineState::Exclusive);
}

TEST(CacheDeath, NonPowerOfTwoBlockFatal)
{
    stats::Group root;
    CacheConfig cfg;
    cfg.sizeBytes = 960;
    cfg.blockBytes = 48;
    cfg.ways = 1;
    EXPECT_DEATH({ Cache cache(cfg, "c", root); }, "power of two");
}

/** Property: with W ways, the W most recently used blocks of a set
 *  always survive. */
class CacheWaysTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CacheWaysTest, MruBlocksSurvive)
{
    stats::Group root;
    CacheConfig cfg;
    cfg.sizeBytes = 4096;
    cfg.blockBytes = 64;
    cfg.ways = GetParam();
    Cache cache(cfg, "c", root);

    const std::uint32_t sets = cfg.sets();
    const Addr stride = static_cast<Addr>(sets) * cfg.blockBytes;
    // Insert 2W blocks that all map to set 0; the last W must remain.
    const std::uint32_t w = GetParam();
    for (std::uint32_t i = 0; i < 2 * w; ++i)
        cache.insert(stride * i, LineState::Exclusive);
    for (std::uint32_t i = w; i < 2 * w; ++i) {
        EXPECT_EQ(cache.probe(stride * i), LineState::Exclusive)
            << "way count " << w << " block " << i;
    }
    for (std::uint32_t i = 0; i < w; ++i)
        EXPECT_EQ(cache.probe(stride * i), LineState::Invalid);
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheWaysTest,
                         ::testing::Values(1, 2, 4, 8, 16));

namespace
{

/**
 * The cache array as it was before the tag-word layout: a 24-byte
 * line with a global last-use counter. The differential test below
 * holds the rank-LRU Cache to it.
 */
class ReferenceCache
{
  public:
    struct Line
    {
        Addr tag = 0;
        LineState state = LineState::Invalid;
        std::uint64_t lastUse = 0;
        bool prefetched = false;
    };

    explicit ReferenceCache(const CacheConfig &cfg)
        : cfg_(cfg), lines_(static_cast<std::size_t>(cfg.sets()) * cfg.ways)
    {
    }

    Line *
    find(Addr addr)
    {
        Line *base = set(addr);
        for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
            if (base[w].state != LineState::Invalid &&
                base[w].tag == addr / cfg_.blockBytes)
                return &base[w];
        }
        return nullptr;
    }

    Line *
    set(Addr addr)
    {
        return &lines_[(addr / cfg_.blockBytes % cfg_.sets()) * cfg_.ways];
    }

    bool
    access(Addr addr)
    {
        Line *line = find(addr);
        if (!line) {
            ++misses;
            return false;
        }
        ++hits;
        line->lastUse = ++useCounter_;
        return true;
    }

    Cache::Victim
    insert(Addr addr, LineState state, bool prefetched)
    {
        Cache::Victim victim;
        Line *dest = find(addr);
        if (!dest) {
            Line *base = set(addr);
            dest = base;
            for (std::uint32_t w = 1; w < cfg_.ways; ++w) {
                if (base[w].state == LineState::Invalid) {
                    dest = &base[w];
                    break;
                }
                if (dest->state != LineState::Invalid &&
                    base[w].lastUse < dest->lastUse)
                    dest = &base[w];
            }
            if (dest->state != LineState::Invalid) {
                victim = {true, dest->tag * cfg_.blockBytes,
                          dest->state == LineState::Modified,
                          dest->prefetched};
                ++evictions;
                writebacks += victim.dirty;
            }
        }
        *dest = {addr / cfg_.blockBytes, state, ++useCounter_, prefetched};
        return victim;
    }

    std::uint64_t hits = 0, misses = 0, evictions = 0, writebacks = 0;
    std::uint64_t invalidations = 0;

  private:
    CacheConfig cfg_;
    std::vector<Line> lines_;
    std::uint64_t useCounter_ = 0;
};

} // namespace

/**
 * 120k seeded random operations on one small geometry per way count,
 * each run against the reference: every return value, every victim
 * and every statistic must match, so rank LRU picks exactly the
 * victims the last-use counter picked.
 */
TEST_P(CacheWaysTest, MatchesLastUseReference)
{
    const std::uint32_t ways = GetParam();
    CacheConfig cfg;
    cfg.blockBytes = 32;
    cfg.ways = ways;
    cfg.sizeBytes = 4 * ways * cfg.blockBytes; // 4 sets
    stats::Group root;
    Cache cache(cfg, "c", root);
    ReferenceCache ref(cfg);
    Rng rng(0xcac4e + ways);
    const LineState kStates[] = {LineState::Invalid, LineState::Shared,
                                 LineState::Exclusive,
                                 LineState::Modified};
    for (int n = 0; n < 120'000; ++n) {
        // 3 x ways blocks per set keep sets full and evicting.
        const Addr addr = rng.below(12 * ways) * cfg.blockBytes +
            rng.below(cfg.blockBytes);
        const LineState state = kStates[1 + rng.below(3)];
        ReferenceCache::Line *line = ref.find(addr);
        const Cache::Way way = cache.lookup(addr);
        ASSERT_EQ(way == Cache::kNoWay, line == nullptr) << n;
        switch (rng.below(7)) {
          case 0:
          case 1: {
            const bool prefetched = rng.below(2) == 0;
            const Cache::Victim got = cache.insert(addr, state, prefetched);
            const Cache::Victim want = ref.insert(addr, state, prefetched);
            ASSERT_EQ(got.valid, want.valid) << n;
            ASSERT_EQ(got.addr, want.addr) << n;
            ASSERT_EQ(got.dirty, want.dirty) << n;
            ASSERT_EQ(got.prefetched, want.prefetched) << n;
            break;
          }
          case 2:
            ASSERT_EQ(cache.access(addr) != Cache::kNoWay,
                      ref.access(addr))
                << n;
            break;
          case 3:
            ASSERT_EQ(cache.probe(addr),
                      line ? line->state : LineState::Invalid)
                << n;
            break;
          case 4: {
            // Any state, Invalid included, as setState(Addr) allows.
            const LineState to = kStates[rng.below(4)];
            cache.setState(addr, to);
            if (line)
                line->state = to;
            break;
          }
          case 5:
            cache.invalidate(addr);
            if (line) {
                line->state = LineState::Invalid;
                ++ref.invalidations;
            }
            break;
          case 6:
            if (way != Cache::kNoWay) {
                ASSERT_EQ(cache.prefetched(way), line->prefetched) << n;
                cache.clearPrefetched(way);
                line->prefetched = false;
            }
            break;
        }
    }
    const Cache::Stats &s = cache.cacheStats();
    EXPECT_EQ(s.hits.value(), ref.hits);
    EXPECT_EQ(s.misses.value(), ref.misses);
    EXPECT_EQ(s.evictions.value(), ref.evictions);
    EXPECT_EQ(s.writebacks.value(), ref.writebacks);
    EXPECT_EQ(s.invalidations.value(), ref.invalidations);
    EXPECT_GT(ref.evictions, 1000u);
}
