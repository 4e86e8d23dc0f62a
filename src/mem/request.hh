/**
 * @file
 * Memory request descriptor exchanged between the cache hierarchy and
 * the DRAM subsystem.
 *
 * The request carries the criticality information the processor side
 * piggybacks onto L2 misses (Section 3.2): a magnitude whose meaning
 * depends on the configured predictor (1 bit for Binary, stall cycles
 * for MaxStallTime, ...). Zero always means "not critical".
 */

#ifndef CRITMEM_MEM_REQUEST_HH
#define CRITMEM_MEM_REQUEST_HH

#include <cstdint>

#include "sim/types.hh"

namespace critmem
{

/** Request categories seen by the memory controller. */
enum class ReqType : std::uint8_t
{
    Read,      ///< demand load / fetch miss
    Write,     ///< dirty writeback
    Prefetch,  ///< L2 stream prefetcher fill
};

/** A block-granularity memory transaction. */
struct MemRequest
{
    /** Block-aligned physical address. */
    Addr addr = 0;
    ReqType type = ReqType::Read;
    /** Originating core (writebacks keep the evicting core's id). */
    CoreId core = 0;
    /**
     * Criticality magnitude predicted by the processor side; the
     * scheduler prepends this to its age comparator. 0 = non-critical.
     */
    CritLevel crit = 0;
    /** Unique id; also the request's global age for FCFS ordering. */
    std::uint64_t id = 0;
};

/**
 * Receives every read and prefetch whose data burst has finished
 * (DramSystem::setFillListener). Writebacks complete silently.
 */
class FillListener
{
  public:
    virtual ~FillListener() = default;
    virtual void onFill(const MemRequest &req) = 0;
};

} // namespace critmem

#endif // CRITMEM_MEM_REQUEST_HH
