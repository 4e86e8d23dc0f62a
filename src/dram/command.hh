/**
 * @file
 * DRAM command vocabulary and the candidate descriptors the channel
 * presents to a memory scheduler each DRAM cycle.
 */

#ifndef CRITMEM_DRAM_COMMAND_HH
#define CRITMEM_DRAM_COMMAND_HH

#include <cstdint>

#include "sim/types.hh"

namespace critmem
{

/** DDR3 commands the controller can place on the command bus. */
enum class DramCmd : std::uint8_t
{
    Act,   ///< activate (RAS): open a row
    Read,  ///< column read (CAS)
    Write, ///< column write (CAS-W)
    Pre,   ///< precharge: close the bank's open row
    Ref,   ///< all-bank refresh
};

/** Decoded DRAM coordinates of an address. */
struct DramCoord
{
    std::uint32_t channel = 0;
    std::uint32_t rank = 0;
    std::uint32_t bank = 0;
    std::uint64_t row = 0;

    bool
    operator==(const DramCoord &other) const
    {
        return channel == other.channel && rank == other.rank &&
            bank == other.bank && row == other.row;
    }
};

/**
 * One legal command the scheduler may issue this DRAM cycle, with all
 * the metadata the evaluated scheduling policies consult.
 *
 * A candidate always advances exactly one queued transaction: the
 * channel maps the winning candidate back to its transaction via
 * queueIndex.
 */
struct SchedCandidate
{
    DramCmd cmd = DramCmd::Act;
    /** Index into the channel's transaction queue. */
    std::uint32_t queueIndex = 0;
    DramCoord coord;
    /** True when cmd is a CAS to an already-open row. */
    bool rowHit = false;
    /** True when the underlying transaction is a write(back). */
    bool isWrite = false;
    /** True when the underlying transaction is a prefetch. */
    bool isPrefetch = false;
    /** Originating core. */
    CoreId core = 0;
    /** Criticality magnitude piggybacked on the request. */
    CritLevel crit = 0;
    /** DRAM cycle the transaction entered the queue. */
    DramCycle arrival = 0;
    /** Global FCFS id of the transaction (smaller = older). */
    std::uint64_t seq = 0;

    /** True for a column command (Read or Write). */
    bool
    isCas() const
    {
        return cmd == DramCmd::Read || cmd == DramCmd::Write;
    }
};

} // namespace critmem

#endif // CRITMEM_DRAM_COMMAND_HH
