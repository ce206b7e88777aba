/**
 * @file
 * The GPUJoule energy model — the paper's Eq. 4:
 *
 *   E_GPU = sum_c EPI_c * IC_c
 *         + sum_m EPT_m * TC_m
 *         + EP_stall * stalls
 *         + Const_Power * Execution_Time
 *
 * extended for multi-module GPUs (§V-A2) with inter-GPM link energy
 * (per byte-hop and per switch crossing), the HBM DRAM interface
 * energy, and constant-energy amortization across GPMs.
 *
 * The model consumes plain event counts (EnergyInputs) and is
 * deliberately independent of the performance simulator — the same
 * top-down decoupling the paper argues for.
 */

#ifndef MMGPU_GPUJOULE_ENERGY_MODEL_HH
#define MMGPU_GPUJOULE_ENERGY_MODEL_HH

#include <array>
#include <string>

#include "common/fields.hh"
#include "common/units.hh"
#include "gpujoule/energy_table.hh"
#include "isa/instruction.hh"
#include "isa/opcode.hh"
#include "telemetry/telemetry.hh"

namespace mmgpu::joule
{

/** Event counts of one run (Eq. 4 right-hand side). */
struct EnergyInputs
{
    /** Warp-level instruction counts per opcode (the model expands
     *  them by the 32 lanes of a warp). */
    std::array<Count, isa::numOpcodes> warpInstrs{};

    /** Memory transaction counts per level. */
    std::array<Count, isa::numTxnLevels> txns{};

    /** SM-cycles spent stalled with resident work, summed over SMs. */
    double smStallCycles = 0.0;

    /** End-to-end execution time. */
    Seconds execTime = 0.0;

    /** GPM count of the configuration. */
    unsigned gpmCount = 1;

    /** Bytes entering the inter-GPM network (counted per message,
     *  matching the per-transferred-bit energy figures). */
    Count linkBytes = 0;

    /** Bytes through the switch fabric. */
    Count switchBytes = 0;

    /** Circuit reconfigurations of a circuit-scheduled fabric (0 on
     *  every other topology). */
    Count reconfigs = 0;

    /** SM-cycles inside active windows, summed over SMs (used only
     *  by the gating extension; 0 when untracked). */
    double smOccupiedCycles = 0.0;

    /** Total SM-cycle capacity (SM count x execution cycles; used
     *  only by the gating extension; 0 when untracked). */
    double smCycleCapacity = 0.0;
};

/** Model coefficients for one device/configuration. */
struct EnergyParams
{
    /** Calibrated EPI/EPT table. */
    EnergyTable table;

    /** Joules per stalled SM-cycle (EP_stall). */
    Joules stallEnergyPerSmCycle = 0.0;

    /** Constant (idle) power of one GPM (Const_Power). */
    Watts constPowerPerGpm = 0.0;

    /**
     * Fraction of per-GPM constant power that replicates with GPM
     * count; the rest is shared platform overhead (paper's Constant
     * Energy Amortization). 1.0 models on-board integration (no
     * sharing); 0.5 is the paper's on-package baseline.
     * Effective constant power = constPowerPerGpm *
     *   (growthFraction * N + (1 - growthFraction)).
     */
    double constGrowthFraction = 1.0;

    /** Inter-GPM link energy per transferred bit. */
    double linkPjPerBit = 0.0;

    /** Additional energy per bit through a switch crossing. */
    double switchPjPerBit = 0.0;

    /** Energy per circuit reconfiguration of a circuit-scheduled
     *  fabric (0 everywhere else). */
    Joules reconfigJoules = 0.0;

    /** Effective GPM-count multiplier on constant power. */
    double
    constScale(unsigned gpm_count) const
    {
        if (gpm_count <= 1)
            return 1.0;
        return constGrowthFraction * gpm_count +
               (1.0 - constGrowthFraction);
    }
};

/** Eq. 4 output, broken down by the Figure 7 components. */
struct EnergyBreakdown
{
    Joules smBusy = 0.0;     //!< "SM Pipeline (Busy)": EPI terms
    Joules smIdle = 0.0;     //!< "SM Pipeline (Idle)": EP_stall term
    Joules constant = 0.0;   //!< "Constant Energy Overhead"
    Joules shmToReg = 0.0;   //!< shared memory -> register file
    Joules l1ToReg = 0.0;    //!< "L1 -> Reg"
    Joules l2ToL1 = 0.0;     //!< "L2 -> L1"
    Joules dramToL2 = 0.0;   //!< "DRAM -> L2"
    Joules interModule = 0.0; //!< "Inter-Module" link + switch energy

    /** Total GPU energy. */
    Joules
    total() const
    {
        return smBusy + smIdle + constant + shmToReg + l1ToReg +
               l2ToL1 + dramToL2 + interModule;
    }

    auto operator<=>(const EnergyBreakdown &) const = default;
};

template <FieldsOf<EnergyBreakdown> S, typename Visit>
constexpr void
forEachField(S &self, Visit &&visit)
{
    auto &[smBusy, smIdle, constant, shmToReg, l1ToReg, l2ToL1, dramToL2,
           interModule] = self;
    visit("smBusy", smBusy);
    visit("smIdle", smIdle);
    visit("constant", constant);
    visit("shmToReg", shmToReg);
    visit("l1ToReg", l1ToReg);
    visit("l2ToL1", l2ToL1);
    visit("dramToL2", dramToL2);
    visit("interModule", interModule);
}

/** Evaluate Eq. 4. */
EnergyBreakdown estimate(const EnergyInputs &inputs,
                         const EnergyParams &params);

/**
 * Evaluate Eq. 4 and record the per-component breakdown into
 * @p telemetry as "energy/..." gauges (joules) plus the derived
 * "energy/total_j" and "energy/avg_power_w" figures. Pass the same
 * Telemetry the simulator filled so one export carries both the
 * performance activity and its energy attribution.
 */
EnergyBreakdown estimate(const EnergyInputs &inputs,
                         const EnergyParams &params,
                         telemetry::Telemetry &telemetry);

/**
 * Energy-accounting audit: re-derives every Eq. 4 term of
 * @p breakdown from @p inputs and @p params with independent
 * (long double, reverse-order) arithmetic and checks the reported
 * components and total against them to a 1e-9 relative tolerance —
 * catching silently dropped terms, unit slips, and accumulation
 * error, the class of defect EnergAIzer-style calibration pipelines
 * are most sensitive to. Also rejects non-finite or negative
 * components outright.
 *
 * @return empty string when the books balance, else a diagnostic.
 *         Plain-function form so tests can exercise it at any
 *         contract level; estimate() wraps it in MMGPU_INVARIANT in
 *         audit builds (MMGPU_CONTRACTS=2).
 */
std::string auditEstimate(const EnergyInputs &inputs,
                          const EnergyParams &params,
                          const EnergyBreakdown &breakdown);

} // namespace mmgpu::joule

#endif // MMGPU_GPUJOULE_ENERGY_MODEL_HH
