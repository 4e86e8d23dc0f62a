#include "dram/address_map.hh"

#include <bit>

#include "sim/log.hh"

namespace critmem
{

namespace
{

std::uint32_t
log2Exact(std::uint32_t v, const char *what)
{
    if (v == 0 || !std::has_single_bit(v))
        fatal("DRAM ", what, " must be a nonzero power of two, got ", v);
    return static_cast<std::uint32_t>(std::bit_width(v) - 1);
}

} // namespace

AddressMap::AddressMap(const DramConfig &cfg)
    : kind_(cfg.mapKind),
      rowShift_(log2Exact(cfg.rowBytes, "row size")),
      blockShift_(6), // 64 B cache blocks
      channelBits_(log2Exact(cfg.channels, "channel count")),
      bankBits_(log2Exact(cfg.banksPerRank, "bank count")),
      rankBits_(log2Exact(cfg.ranksPerChannel, "rank count"))
{
}

DramCoord
AddressMap::decode(Addr addr) const
{
    DramCoord coord;
    if (kind_ == AddressMapKind::PageInterleave) {
        std::uint32_t shift = rowShift_;
        coord.channel = static_cast<std::uint32_t>(addr >> shift) &
            ((1u << channelBits_) - 1);
        shift += channelBits_;
        coord.bank = static_cast<std::uint32_t>(addr >> shift) &
            ((1u << bankBits_) - 1);
        shift += bankBits_;
        coord.rank = static_cast<std::uint32_t>(addr >> shift) &
            ((1u << rankBits_) - 1);
        shift += rankBits_;
        coord.row = addr >> shift;
        return coord;
    }
    // Block interleave: channel from the block number, the row's
    // column bits above it, then bank/rank/row.
    std::uint32_t shift = blockShift_;
    coord.channel = static_cast<std::uint32_t>(addr >> shift) &
        ((1u << channelBits_) - 1);
    shift += channelBits_;
    shift += rowShift_ - blockShift_; // column within the row
    coord.bank = static_cast<std::uint32_t>(addr >> shift) &
        ((1u << bankBits_) - 1);
    shift += bankBits_;
    coord.rank = static_cast<std::uint32_t>(addr >> shift) &
        ((1u << rankBits_) - 1);
    shift += rankBits_;
    coord.row = addr >> shift;
    return coord;
}

} // namespace critmem
