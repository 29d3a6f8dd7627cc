/**
 * @file
 * Fundamental scalar types shared by every StreamPIM module.
 *
 * The simulator counts time in ticks of one picosecond, mirroring the
 * gem5 convention. The 100 MHz RM core clock of the paper (Table III)
 * therefore corresponds to 10'000 ticks per cycle.
 */

#ifndef STREAMPIM_COMMON_TYPES_HH_
#define STREAMPIM_COMMON_TYPES_HH_

#include <cstdint>

namespace streampim
{

/** Simulated time in picoseconds. */
using Tick = std::uint64_t;

/** A count of clock cycles of some clocked component. */
using Cycle = std::uint64_t;

/** Byte address within the simulated physical address space. */
using Addr = std::uint64_t;

/** Energy in picojoules, accumulated as double for dynamic range. */
using PicoJoule = double;

/** Latency expressed in nanoseconds (device datasheet granularity). */
using NanoSec = double;

/** Sentinel for "no tick"/"never". */
inline constexpr Tick kTickMax = ~Tick(0);

/** Ticks per nanosecond. */
inline constexpr Tick kTicksPerNs = 1000;

/** Convert a (possibly fractional) nanosecond latency to ticks. */
constexpr Tick
nsToTicks(NanoSec ns)
{
    return static_cast<Tick>(ns * static_cast<double>(kTicksPerNs) + 0.5);
}

/** Convert ticks to seconds (for bandwidth/throughput reporting). */
constexpr double
ticksToSeconds(Tick t)
{
    return static_cast<double>(t) * 1e-12;
}

/** The word width of StreamPIM operands, per Table III (8-bit design). */
inline constexpr unsigned kOperandBits = 8;

/** Width of a scalar product of two operands. */
inline constexpr unsigned kProductBits = 2 * kOperandBits;

/**
 * Accumulator width of the circle adder. Dot products of length 2000
 * over 8-bit operands need ceil(log2(2000 * 255 * 255)) = 28 bits; we
 * provision a full 32-bit accumulator.
 */
inline constexpr unsigned kAccumulatorBits = 32;

} // namespace streampim

#endif // STREAMPIM_COMMON_TYPES_HH_
