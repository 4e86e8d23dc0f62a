/**
 * @file
 * Generic set-associative, true-LRU cache array with per-line MESI
 * state. Private L1s use the full MESI vocabulary; the shared L2 uses
 * Exclusive/Modified as clean/dirty.
 *
 * Each line is one 8-byte tag word, (block number << 3) | prefetched
 * << 2 | state, plus a one-byte recency rank: the ranks of a set are
 * a permutation, 0 the most recently used way. An access scans its
 * set once (lookup()) and acts on the returned Way.
 */

#ifndef CRITMEM_MEM_CACHE_HH
#define CRITMEM_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace critmem
{

/** Per-line coherence/dirtiness state. */
enum class LineState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive, ///< clean, sole copy
    Modified,  ///< dirty
};

/** A set-associative cache array (tags + state only; no data). */
class Cache
{
  public:
    /** One way of one set: an index into the tag array. */
    enum class Way : std::uint32_t
    {
    };

    /** lookup()'s and access()'s answer for a block not resident. */
    static constexpr Way kNoWay{~std::uint32_t{0}};

    /** Information about a line displaced by insert(). */
    struct Victim
    {
        bool valid = false;
        Addr addr = 0;
        bool dirty = false;
        bool prefetched = false;
    };

    Cache(const CacheConfig &cfg, const std::string &name,
          stats::Group &parent);

    /**
     * Scan @p addr's set once, touching neither LRU nor stats.
     * @return the resident line holding the block, or kNoWay.
     */
    Way lookup(Addr addr) const;

    /** @name Acting on a line lookup() found (never kNoWay). */
    /// @{
    LineState
    state(Way way) const
    {
        return static_cast<LineState>(tags_[index(way)] & kStateMask);
    }

    void
    setState(Way way, LineState state)
    {
        std::uint64_t &tag = tags_[index(way)];
        tag = (tag & ~kStateMask) | static_cast<std::uint64_t>(state);
    }

    bool
    prefetched(Way way) const
    {
        return (tags_[index(way)] & kPrefetchedBit) != 0;
    }

    void
    clearPrefetched(Way way)
    {
        tags_[index(way)] &= ~kPrefetchedBit;
    }

    /** Count a hit and make the line its set's most recently used. */
    void hit(Way way);

    /** Drop the line (coherence invalidation / inclusion victim). */
    void
    invalidate(Way way)
    {
        setState(way, LineState::Invalid);
        ++stats_.invalidations;
    }
    /// @}

    /** @return the line's state without touching LRU. */
    LineState probe(Addr addr) const;

    /**
     * LRU-updating lookup that counts a hit or, when @p countMiss, a
     * miss.
     * @return the hit line, or kNoWay on a miss.
     */
    Way access(Addr addr, bool countMiss = true);

    /** Change a resident line's state; no-op when absent. */
    void setState(Addr addr, LineState state);

    /**
     * Insert a block as its set's most recently used line. A resident
     * block is updated in place; otherwise the line goes to the first
     * invalid way among ways 1..n-1, else way 0 if invalid, else the
     * least recently used way. Only valid lines ever compete on
     * recency, so the rank order is the order of their last use.
     * @return the displaced victim, if any.
     */
    Victim insert(Addr addr, LineState state, bool prefetched = false);

    /** Drop a resident line; no-op when absent. */
    void invalidate(Addr addr);

    std::uint32_t blockBytes() const { return cfg_.blockBytes; }

    Addr
    blockAlign(Addr addr) const
    {
        return addr & ~static_cast<Addr>(cfg_.blockBytes - 1);
    }

    /**
     * Set scans so far: one per lookup() (probe, access and the
     * address-taking setState/invalidate included) and one per
     * insert(). A plain work counter, not a statistic.
     */
    std::uint64_t lookups() const { return lookups_; }

    /** Cache statistics (hits/misses counted by access()). */
    struct Stats
    {
        Stats(stats::Group &parent, const std::string &name);

        stats::Group group;
        stats::Scalar hits;
        stats::Scalar misses;
        stats::Scalar evictions;
        stats::Scalar writebacks;
        stats::Scalar invalidations;
    };

    Stats &cacheStats() { return stats_; }

  private:
    static constexpr std::uint64_t kStateMask = 3;
    static constexpr std::uint64_t kPrefetchedBit = 4;
    static constexpr unsigned kTagShift = 3;

    static std::size_t
    index(Way way)
    {
        return static_cast<std::size_t>(way);
    }

    /** First line of @p addr's set. */
    std::size_t
    setBase(Addr addr) const
    {
        return static_cast<std::size_t>(
                   static_cast<std::uint32_t>(addr >> blockShift_) &
                   (numSets_ - 1)) *
            cfg_.ways;
    }

    /** Make @p line the most recently used of the set at @p base. */
    void touch(std::size_t base, std::size_t line);

    CacheConfig cfg_;
    std::uint32_t numSets_;
    std::uint32_t blockShift_;
    /** One tag word per line, sets laid out contiguously. */
    std::vector<std::uint64_t> tags_;
    /** Per line: recency rank in its set, 0 = most recently used. */
    std::vector<std::uint8_t> ranks_;
    /** Bumped by the const lookup(): a work count, not cache state. */
    mutable std::uint64_t lookups_ = 0;
    Stats stats_;
};

// The per-access path, inline for the hierarchy's call sites.

inline Cache::Way
Cache::lookup(Addr addr) const
{
    ++lookups_;
    const std::uint64_t key = (addr >> blockShift_) << kTagShift;
    const std::size_t base = setBase(addr);
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        // Same block number and a state in 1..3 (valid); the
        // prefetched bit does not take part.
        const std::uint64_t diff =
            (tags_[base + w] ^ key) & ~kPrefetchedBit;
        if (diff - 1 < kStateMask)
            return static_cast<Way>(base + w);
    }
    return kNoWay;
}

inline void
Cache::touch(std::size_t base, std::size_t line)
{
    const std::uint8_t rank = ranks_[line];
    for (std::uint32_t w = 0; w < cfg_.ways; ++w)
        ranks_[base + w] += ranks_[base + w] < rank;
    ranks_[line] = 0;
}

inline void
Cache::hit(Way way)
{
    ++stats_.hits;
    const std::size_t line = index(way);
    // The resident tag word names the line's block, hence its set.
    const auto set = static_cast<std::uint32_t>(tags_[line] >> kTagShift) &
        (numSets_ - 1);
    touch(static_cast<std::size_t>(set) * cfg_.ways, line);
}

inline Cache::Way
Cache::access(Addr addr, bool countMiss)
{
    const Way way = lookup(addr);
    if (way != kNoWay)
        hit(way);
    else if (countMiss)
        ++stats_.misses;
    return way;
}

} // namespace critmem

#endif // CRITMEM_MEM_CACHE_HH
