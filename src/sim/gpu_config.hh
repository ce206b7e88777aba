/**
 * @file
 * Whole-GPU configuration (paper Tables III and IV).
 *
 * The basic GPU module mirrors the paper's simulated 1-GPM building
 * block: 16 SMs with 32 KB L1s, a 2 MB module-side L2, and one HBM
 * stack at 256 GB/s. Multi-module configurations replicate the GPM
 * 2-32x and attach an inter-GPM network whose per-GPM bandwidth is
 * set relative to local DRAM bandwidth (1x-BW = 1:2, 2x-BW = 1:1,
 * 4x-BW = 2:1).
 */

#ifndef MMGPU_SIM_GPU_CONFIG_HH
#define MMGPU_SIM_GPU_CONFIG_HH

#include <string>
#include <vector>

#include "common/fields.hh"
#include "common/result.hh"
#include "common/units.hh"
#include "fault/fault_plan.hh"
#include "mem/mem_system.hh"
#include "noc/interconnect.hh"
#include "sm/cta_scheduler.hh"

namespace mmgpu::sim
{

/** Table IV inter-GPM bandwidth settings. */
enum class BwSetting : std::uint8_t
{
    Bw1x,  //!< 128 GB/s per GPM, inter-GPM:DRAM = 1:2 (on-board)
    Bw2x,  //!< 256 GB/s per GPM, 1:1 (on-package)
    Bw4x,  //!< 512 GB/s per GPM, 2:1 (on-package, next-gen signaling)
};

/** @return "1x-BW" etc. */
const char *bwSettingName(BwSetting bw);

/** @return per-GPM inter-GPM bandwidth in bytes/cycle at 1 GHz. */
double bwSettingBytesPerCycle(BwSetting bw);

/** Physical integration domain (determines link energy + constant
 *  energy amortization in the energy model). */
enum class IntegrationDomain : std::uint8_t
{
    OnPackage,  //!< 0.54 pJ/bit links, shared platform overheads
    OnBoard,    //!< 10 pJ/bit links, per-GPM platform overheads
};

/** @return "on-package" / "on-board". */
const char *domainName(IntegrationDomain domain);

/**
 * Page-placement policy. FirstTouchOwner is the paper's baseline
 * (first touch under distributed CTA scheduling, which homes each
 * page on the GPM owning its byte range); Striped round-robins pages
 * across GPMs — locality-oblivious, used by the ablation study of
 * the paper's §V-E locality discussion. Locality mines the kernel
 * profile's access patterns for a per-page traffic matrix and homes
 * each page on the GPM with the largest estimated weight (see
 * engine::PlacementStrategy).
 */
enum class PlacementPolicy : std::uint8_t
{
    FirstTouchOwner,
    Striped,
    Locality,
};

/** @return human-readable placement-policy name. */
const char *placementPolicyName(PlacementPolicy policy);

/** Complete machine description for one simulation. */
struct GpuConfig
{
    std::string name = "1-GPM";

    unsigned gpmCount = 1;
    unsigned smsPerGpm = 16;
    unsigned warpSlotsPerSm = 32;
    double issueSlotsPerCycle = 2.0;

    /** Memory hierarchy parameters (gpmCount/smsPerGpm mirrored in). */
    mem::MemConfig memory;

    noc::Topology topology = noc::Topology::None;
    IntegrationDomain domain = IntegrationDomain::OnPackage;

    /** NUMA policy knobs (paper baselines; ablations override). */
    PlacementPolicy placement = PlacementPolicy::FirstTouchOwner;
    sm::CtaSchedPolicy ctaScheduling = sm::CtaSchedPolicy::Distributed;

    /** Per-GPM inter-GPM I/O bandwidth, bytes/cycle per direction. */
    double interGpmBytesPerCycle = 256.0;

    Cycles hopLatency = 40;
    Cycles switchLatency = 60;

    /** Idle gap between consecutive kernel launches (driver/launch
     *  overhead), charged only against constant power. */
    Cycles launchOverhead = 2000;

    /** Core clock. All configurations run at 1 GHz. */
    ClockDomain clock{1.0e9};

    /** Degraded or failed inter-GPM links for fault studies. Empty
     *  in every healthy configuration. */
    fault::LinkFaultSpec linkFaults;

    /** Total SMs across the GPU. */
    unsigned totalSms() const { return gpmCount * smsPerGpm; }

    /**
     * Consistency checks. Reports the first problem found with an
     * actionable message; library code that must not abort calls
     * this instead of validate().
     */
    Result<void> check() const;

    /** Consistency checks; fatal() on user error. */
    void validate() const;

    auto operator<=>(const GpuConfig &) const = default;
};

/**
 * The configuration's one field list: every run identity (memo key,
 * machine-pool key, run-cache fingerprint, serve machine identity)
 * derives from it, so no field can be left out of any of them.
 */
template <FieldsOf<GpuConfig> S, typename Visit>
constexpr void
forEachField(S &self, Visit &&visit)
{
    auto &[name, gpmCount, smsPerGpm, warpSlotsPerSm, issueSlotsPerCycle,
           memory, topology, domain, placement, ctaScheduling,
           interGpmBytesPerCycle, hopLatency, switchLatency,
           launchOverhead, clock, linkFaults] = self;
    visit("name", name);
    visit("gpmCount", gpmCount);
    visit("smsPerGpm", smsPerGpm);
    visit("warpSlotsPerSm", warpSlotsPerSm);
    visit("issueSlotsPerCycle", issueSlotsPerCycle);
    visit("memory", memory);
    visit("topology", topology);
    visit("domain", domain);
    visit("placement", placement);
    visit("ctaScheduling", ctaScheduling);
    visit("interGpmBytesPerCycle", interGpmBytesPerCycle);
    visit("hopLatency", hopLatency);
    visit("switchLatency", switchLatency);
    visit("launchOverhead", launchOverhead);
    visit("clock", clock);
    visit("linkFaults", linkFaults);
}

/** The paper's basic 1-GPM building block (Table III column 1). */
GpuConfig baselineConfig();

/**
 * A Table III multi-module configuration.
 *
 * @param gpm_count 2..32 GPMs.
 * @param bw Table IV bandwidth setting.
 * @param topology Ring (default in the paper) or Switch.
 * @param domain Integration domain; the paper pairs 1x-BW with
 *        on-board and 2x/4x-BW with on-package, but the pairing is
 *        overridable for the point studies.
 */
GpuConfig multiGpmConfig(unsigned gpm_count, BwSetting bw,
                         noc::Topology topology = noc::Topology::Ring,
                         IntegrationDomain domain =
                             IntegrationDomain::OnPackage);

/** Table IV's default domain pairing for a bandwidth setting. */
IntegrationDomain defaultDomainFor(BwSetting bw);

/**
 * A hypothetical monolithic GPU with @p scale times the baseline
 * resources on one die (used for the Figure 7 monolithic-scaling
 * comparison): scale x SMs, scale x L2, scale x DRAM bandwidth, no
 * inter-GPM network.
 */
GpuConfig monolithicConfig(unsigned scale);

/** All Table III GPM counts: {2, 4, 8, 16, 32}. */
const std::vector<unsigned> &tableThreeGpmCounts();

/** All Table IV bandwidth settings. */
const std::vector<BwSetting> &tableFourBwSettings();

} // namespace mmgpu::sim

#endif // MMGPU_SIM_GPU_CONFIG_HH
