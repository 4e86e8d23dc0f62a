/**
 * @file
 * Fundamental scalar types shared by every critmem module.
 */

#ifndef CRITMEM_SIM_TYPES_HH
#define CRITMEM_SIM_TYPES_HH

#include <cstdint>
#include <limits>

// lint:allow-file(clock-domain): the definitions of both clock types.

namespace critmem
{

/** Physical (simulated) memory address, byte granularity. */
using Addr = std::uint64_t;

/** A time stamp in CPU clock cycles. */
using Cycle = std::uint64_t;

/** A time stamp in DRAM (bus) clock cycles. */
using DramCycle = std::uint64_t;

/** Identifier of a core (equivalently, a hardware thread). */
using CoreId = std::uint32_t;

/** Monotonically increasing per-core dynamic instruction number. */
using SeqNum = std::uint64_t;

/** Sentinel for "no cycle" / "never". */
inline constexpr Cycle kNoCycle = std::numeric_limits<Cycle>::max();

/** Sentinel for an invalid address. */
inline constexpr Addr kNoAddr = std::numeric_limits<Addr>::max();

/** Sentinel for an invalid core. */
inline constexpr CoreId kNoCore = std::numeric_limits<CoreId>::max();

/**
 * Criticality magnitude attached to a memory request.
 *
 * Zero means "not critical"; larger values are more critical. The
 * scheduler treats this value as the upper bits of its age comparator
 * (Section 3.2 of the paper), so relative magnitude is all that
 * matters.
 */
using CritLevel = std::uint32_t;

} // namespace critmem

#endif // CRITMEM_SIM_TYPES_HH
