/**
 * @file
 * Strong unit types and conversion helpers used across the framework.
 *
 * The simulator operates on an integer cycle clock; the energy model
 * operates on physical units (joules, seconds, bytes). Keeping the two
 * domains explicitly typed avoids the classic pJ-vs-nJ and
 * bit-vs-byte unit bugs that plague energy models.
 */

#ifndef MMGPU_COMMON_UNITS_HH
#define MMGPU_COMMON_UNITS_HH

#include <cstdint>

#include "common/fields.hh"

namespace mmgpu
{

/** Simulator time in cycles of the GPM core clock. */
using Cycles = std::uint64_t;

/** Event/transaction counts. */
using Count = std::uint64_t;

/** Byte quantities (footprints, traffic volumes). */
using Bytes = std::uint64_t;

/** Physical energy in joules. */
using Joules = double;

/** Physical power in watts. */
using Watts = double;

/** Physical time in seconds. */
using Seconds = double;

namespace units
{

/** Joules per nanojoule. */
inline constexpr double nJ = 1e-9;

/** Joules per picojoule. */
inline constexpr double pJ = 1e-12;

/** Joules per millijoule. */
inline constexpr double mJ = 1e-3;

/** Seconds per millisecond. */
inline constexpr double ms = 1e-3;

/** Seconds per microsecond. */
inline constexpr double us = 1e-6;

/** Bytes per kibibyte / mebibyte / gibibyte. */
inline constexpr Bytes KiB = 1024;
inline constexpr Bytes MiB = 1024 * KiB;
inline constexpr Bytes GiB = 1024 * MiB;

/** Bytes per second for a GB/s figure (decimal GB as vendors quote). */
inline constexpr double GBps = 1e9;

/**
 * Convert a per-bit energy (pJ/bit) and a transfer size in bytes into
 * joules. This is the canonical conversion for link and DRAM
 * interface energies quoted by the paper.
 *
 * @param pj_per_bit Energy cost in picojoules per bit.
 * @param bytes Transfer size in bytes.
 * @return Energy in joules.
 */
constexpr Joules
energyPerTransfer(double pj_per_bit, Bytes bytes)
{
    return pj_per_bit * pJ * 8.0 * static_cast<double>(bytes);
}

} // namespace units

/**
 * Frequency description of a clock domain, with cycle<->seconds
 * conversions. All GPMs share one core clock in this study.
 */
class ClockDomain
{
  public:
    /** @param freq_hz Clock frequency in hertz. */
    explicit constexpr ClockDomain(double freq_hz) : freqHz(freq_hz) {}

    /** Clock frequency in hertz. */
    constexpr double frequency() const { return freqHz; }

    /** Convert a cycle count into seconds. */
    constexpr Seconds
    toSeconds(Cycles cycles) const
    {
        return static_cast<double>(cycles) / freqHz;
    }

    /** Convert a physical duration into (truncated) cycles. */
    constexpr Cycles
    toCycles(Seconds seconds) const
    {
        return static_cast<Cycles>(seconds * freqHz);
    }

    /**
     * Bytes-per-cycle capacity of a channel quoted in bytes/second.
     * Used to configure bandwidth servers from GB/s datasheet values.
     */
    constexpr double
    bytesPerCycle(double bytes_per_second) const
    {
        return bytes_per_second / freqHz;
    }

    auto operator<=>(const ClockDomain &) const = default;

    template <FieldsOf<ClockDomain> S, typename Visit>
    friend constexpr void
    forEachField(S &self, Visit &&visit)
    {
        auto &[freqHz] = self;
        visit("freqHz", freqHz);
    }

  private:
    double freqHz;
};

} // namespace mmgpu

#endif // MMGPU_COMMON_UNITS_HH
