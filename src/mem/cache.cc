#include "mem/cache.hh"

#include <bit>

#include "sim/log.hh"

namespace critmem
{

Cache::Stats::Stats(stats::Group &parent, const std::string &name)
    : group(name, &parent),
      hits(group, "hits", "accesses that hit"),
      misses(group, "misses", "accesses that missed"),
      evictions(group, "evictions", "lines displaced by fills"),
      writebacks(group, "writebacks", "dirty lines displaced"),
      invalidations(group, "invalidations",
                    "lines dropped by coherence/inclusion")
{
}

Cache::Cache(const CacheConfig &cfg, const std::string &name,
             stats::Group &parent)
    : cfg_(cfg), numSets_(cfg.sets()),
      blockShift_(static_cast<std::uint32_t>(
          std::bit_width(cfg.blockBytes) - 1)),
      tags_(static_cast<std::size_t>(numSets_) * cfg.ways, 0),
      ranks_(tags_.size()),
      stats_(parent, name)
{
    if (!std::has_single_bit(cfg.blockBytes))
        fatal("cache block size must be a power of two");
    if (numSets_ == 0 || !std::has_single_bit(numSets_))
        fatal("cache set count must be a nonzero power of two");
    if (cfg.ways > 256)
        fatal("cache associativity above 256 ways");
    for (std::size_t base = 0; base < ranks_.size(); base += cfg.ways) {
        for (std::uint32_t w = 0; w < cfg.ways; ++w)
            ranks_[base + w] = static_cast<std::uint8_t>(w);
    }
}

LineState
Cache::probe(Addr addr) const
{
    const Way way = lookup(addr);
    return way == kNoWay ? LineState::Invalid : state(way);
}

void
Cache::setState(Addr addr, LineState state)
{
    if (const Way way = lookup(addr); way != kNoWay)
        setState(way, state);
}

Cache::Victim
Cache::insert(Addr addr, LineState state, bool prefetched)
{
    Victim victim;
    const std::size_t base = setBase(addr);
    std::size_t line;
    if (const Way way = lookup(addr); way != kNoWay) {
        line = index(way);
    } else {
        // The first free way after way 0, else way 0 when free, else
        // the least recently used way (every way is valid then).
        line = base;
        for (std::uint32_t w = 1; w < cfg_.ways; ++w) {
            if ((tags_[base + w] & kStateMask) == 0) {
                line = base + w;
                break;
            }
        }
        if (line == base && (tags_[base] & kStateMask) != 0) {
            for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
                if (ranks_[base + w] == cfg_.ways - 1)
                    line = base + w;
            }
        }
        const std::uint64_t old = tags_[line];
        if ((old & kStateMask) != 0) {
            victim.valid = true;
            victim.addr = (old >> kTagShift) << blockShift_;
            victim.dirty = static_cast<LineState>(old & kStateMask) ==
                LineState::Modified;
            victim.prefetched = (old & kPrefetchedBit) != 0;
            ++stats_.evictions;
            if (victim.dirty)
                ++stats_.writebacks;
        }
    }
    tags_[line] = ((addr >> blockShift_) << kTagShift) |
        (prefetched ? kPrefetchedBit : 0) |
        static_cast<std::uint64_t>(state);
    touch(base, line);
    return victim;
}

void
Cache::invalidate(Addr addr)
{
    if (const Way way = lookup(addr); way != kNoWay)
        invalidate(way);
}

} // namespace critmem
