/**
 * @file
 * Physical address mapping.
 *
 * Page interleaving (Table 3): consecutive addresses within one 1 KB
 * row stay in the same bank so that sequential streams enjoy
 * row-buffer hits; successive rows rotate across channels, then
 * banks, then ranks:
 *
 *   | row | rank | bank | channel | row offset |
 *   MSB                                      LSB
 *
 * Block interleaving (ablation): consecutive 64 B blocks rotate
 * across channels first, maximizing channel parallelism:
 *
 *   | row | rank | bank | column | channel | block offset |
 *   MSB                                                LSB
 */

#ifndef CRITMEM_DRAM_ADDRESS_MAP_HH
#define CRITMEM_DRAM_ADDRESS_MAP_HH

#include "dram/command.hh"
#include "sim/config.hh"
#include "sim/types.hh"

namespace critmem
{

/** Decodes physical addresses into DRAM coordinates. */
class AddressMap
{
  public:
    /**
     * @param cfg DRAM organization; channel/rank/bank counts and the
     *            row size must all be powers of two.
     */
    explicit AddressMap(const DramConfig &cfg);

    /** Decode an address into channel/rank/bank/row. */
    DramCoord decode(Addr addr) const;

  private:
    AddressMapKind kind_;
    std::uint32_t rowShift_;
    std::uint32_t blockShift_;
    std::uint32_t channelBits_;
    std::uint32_t bankBits_;
    std::uint32_t rankBits_;
};

} // namespace critmem

#endif // CRITMEM_DRAM_ADDRESS_MAP_HH
