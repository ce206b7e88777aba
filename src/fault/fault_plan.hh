/**
 * @file
 * Deterministic, seed-driven fault injection.
 *
 * Real GPUJoule-style measurement campaigns contend with a sensor
 * that drops samples, spikes, and glitches, with links that fail or
 * degrade, and with sweep points that hang or die. A FaultPlan
 * describes all of that declaratively so any campaign can be rerun
 * bit-identically: everything stochastic draws from streams derived
 * from the plan's seed, and nothing about worker interleaving feeds
 * back into the draws (sensor faults are keyed per read off a
 * private stream, link faults are fixed at network construction,
 * harness faults match sweep points by name).
 *
 * Taxonomy and the determinism contract are documented in DESIGN.md
 * "Fault model & degraded modes".
 */

#ifndef MMGPU_FAULT_FAULT_PLAN_HH
#define MMGPU_FAULT_FAULT_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/fields.hh"

namespace mmgpu::fault
{

/**
 * Sensor misbehaviour rates. All probabilities are per read; a read
 * suffers at most one of {dropout, spike, glitch}, checked in that
 * order.
 */
struct SensorFaultSpec
{
    /** P(read returns no sample — an NVML error). */
    double dropoutRate = 0.0;

    /** P(read is an outlier spike). */
    double spikeRate = 0.0;

    /** Spike multiplies the true reading by (1 + spikeMagnitude). */
    double spikeMagnitude = 1.5;

    /** P(read is offset by a quantization glitch). */
    double glitchRate = 0.0;

    /** Glitch offset in quantization steps (signed draw). */
    double glitchSteps = 4.0;

    /** Refresh-latch jitter as a fraction of the refresh period:
     *  each read's latch tick arrives uniformly up to this fraction
     *  of a period late. */
    double jitterFraction = 0.0;

    /** True when any rate is non-zero. */
    bool
    enabled() const
    {
        return dropoutRate > 0.0 || spikeRate > 0.0 ||
               glitchRate > 0.0 || jitterFraction > 0.0;
    }
};

template <FieldsOf<SensorFaultSpec> S, typename Visit>
constexpr void
forEachField(S &self, Visit &&visit)
{
    auto &[dropoutRate, spikeRate, spikeMagnitude, glitchRate,
           glitchSteps, jitterFraction] = self;
    visit("dropoutRate", dropoutRate);
    visit("spikeRate", spikeRate);
    visit("spikeMagnitude", spikeMagnitude);
    visit("glitchRate", glitchRate);
    visit("glitchSteps", glitchSteps);
    visit("jitterFraction", jitterFraction);
}

/**
 * The default sensor-fault campaign used by tests and docs: >= 5%
 * dropout plus occasional spikes/glitches and latch jitter. The
 * calibration tolerance stated in DESIGN.md is against this plan.
 */
SensorFaultSpec defaultSensorFaults();

/** One degraded or failed inter-GPM link. */
struct LinkFault
{
    /** GPM whose outgoing link is affected. */
    unsigned gpm = 0;

    /** Direction/port, interpreted per topology: ring 0 =
     *  clockwise, 1 = counter-clockwise; switch 0 = uplink, 1 =
     *  downlink; fullmesh = peer GPM id of the pairwise link (a
     *  failed pair reroutes via a 2-hop relay); ocs 0 = circuit
     *  plane (a failed circuit drops the GPM from the matching),
     *  1 = electrical fallback port (must keep some width). */
    unsigned channel = 0;

    /** Remaining capacity fraction in (0, 1]; exactly 0 marks the
     *  link failed (ring traffic reroutes the long way around). */
    double capacityScale = 1.0;

    bool failed() const { return capacityScale == 0.0; }

    auto operator<=>(const LinkFault &) const = default;
};

template <FieldsOf<LinkFault> S, typename Visit>
constexpr void
forEachField(S &self, Visit &&visit)
{
    auto &[gpm, channel, capacityScale] = self;
    visit("gpm", gpm);
    visit("channel", channel);
    visit("capacityScale", capacityScale);
}

/**
 * The set of link faults applied to one configuration. Part of
 * GpuConfig, so it enters every run identity through the
 * configuration's own field list: degraded runs never alias healthy
 * ones, and fault order matters.
 */
struct LinkFaultSpec
{
    std::vector<LinkFault> faults;

    bool empty() const { return faults.empty(); }

    auto operator<=>(const LinkFaultSpec &) const = default;
};

template <FieldsOf<LinkFaultSpec> S, typename Visit>
constexpr void
forEachField(S &self, Visit &&visit)
{
    auto &[faults] = self;
    visit("faults", faults);
}

/**
 * Sweep-point sabotage for harness robustness testing. Points are
 * matched by workload name or by "config|workload".
 */
struct HarnessFaultSpec
{
    /** Points that fail with SimError{InjectedFault}. */
    std::vector<std::string> failPoints;

    /** Points that stall (in wall-clock time) before computing,
     *  until hangSeconds elapse or the runner's plan is detached or
     *  replaced (ScalingRunner::setFaultPlan). */
    std::vector<std::string> hangPoints;

    /** How long an injected hang stalls when the plan stays put. */
    double hangSeconds = 30.0;

    bool
    enabled() const
    {
        return !failPoints.empty() || !hangPoints.empty();
    }

    /** @return true when @p points lists this (config, workload). */
    static bool matches(const std::vector<std::string> &points,
                        const std::string &config,
                        const std::string &workload);
};

template <FieldsOf<HarnessFaultSpec> S, typename Visit>
constexpr void
forEachField(S &self, Visit &&visit)
{
    auto &[failPoints, hangPoints, hangSeconds] = self;
    visit("failPoints", failPoints);
    visit("hangPoints", hangPoints);
    visit("hangSeconds", hangSeconds);
}

/**
 * Serve-layer sabotage: deterministic chaos for the mmgpu_serve
 * daemon so every self-healing mechanism (shard supervision, client
 * retry, WAL replay, reconnect) is exercised by tests, not by hand.
 * Counters are global per process (job N means the Nth job executed
 * by any shard), so a campaign replays identically at any shard
 * count under a serial load and deterministically under the same
 * interleaving otherwise.
 */
struct ServeFaultSpec
{
    /** Crash the executing shard on every Nth job (0 disables). The
     *  supervisor must restart the shard and re-queue or poison the
     *  work. */
    std::uint64_t shardCrashEveryJobs = 0;

    /** Stall the service dispatcher once, before delivering job N
     *  (0 disables), for dispatcherStallMs. */
    std::uint64_t dispatcherStallAtJob = 0;

    /** How long the injected dispatcher stall lasts. */
    std::uint64_t dispatcherStallMs = 500;

    /** Tear the Nth run-cache WAL append (0 disables): the record is
     *  written truncated mid-payload, as a crash between write() and
     *  fsync would leave it. Replay must drop exactly that record. */
    std::uint64_t walTearAtAppend = 0;

    /** Reset (hard-close) a serve connection after every Nth
     *  response line written (0 disables); exercises client
     *  reconnect-on-broken-socket. */
    std::uint64_t connResetEveryWrites = 0;

    /** Crash the shard executing any job whose work matches one of
     *  these points ("workload" or "config|workload", same matcher
     *  as HarnessFaultSpec). Unlike shardCrashEveryJobs this targets
     *  specific work, so quarantine-after-K-strikes is testable
     *  deterministically regardless of interleaving. */
    std::vector<std::string> crashPoints;

    bool
    enabled() const
    {
        return shardCrashEveryJobs != 0 ||
               dispatcherStallAtJob != 0 || walTearAtAppend != 0 ||
               connResetEveryWrites != 0 || !crashPoints.empty();
    }
};

template <FieldsOf<ServeFaultSpec> S, typename Visit>
constexpr void
forEachField(S &self, Visit &&visit)
{
    auto &[shardCrashEveryJobs, dispatcherStallAtJob,
           dispatcherStallMs, walTearAtAppend, connResetEveryWrites,
           crashPoints] = self;
    visit("shardCrashEveryJobs", shardCrashEveryJobs);
    visit("dispatcherStallAtJob", dispatcherStallAtJob);
    visit("dispatcherStallMs", dispatcherStallMs);
    visit("walTearAtAppend", walTearAtAppend);
    visit("connResetEveryWrites", connResetEveryWrites);
    visit("crashPoints", crashPoints);
}

/** A complete, reproducible fault campaign. */
struct FaultPlan
{
    /** Master seed; every fault stream is derived from it. */
    std::uint64_t seed = 0x0f4a17;

    SensorFaultSpec sensor;
    HarnessFaultSpec harness;
    ServeFaultSpec serve;

    /** True when any category injects anything. */
    bool
    enabled() const
    {
        return sensor.enabled() || harness.enabled() ||
               serve.enabled();
    }

    /**
     * FNV-1a fingerprint over every field (hashFields over the
     * forEachField lists below): two plans with equal fingerprints
     * inject bit-identical faults.
     */
    std::uint64_t fingerprint() const;

    /** Derived seed for an independent consumer stream ("sensor",
     *  "calibration", ...): equal plans give equal streams. */
    std::uint64_t streamFor(const std::string &consumer) const;

    /**
     * Build a plan from the environment: `MMGPU_FAULT_SEED=<n>`
     * enables the default sensor campaign under seed n;
     * `MMGPU_FAULT_DROPOUT` / `MMGPU_FAULT_SPIKE` /
     * `MMGPU_FAULT_GLITCH` / `MMGPU_FAULT_JITTER` override the
     * individual rates. The serve-layer chaos knobs
     * `MMGPU_FAULT_SERVE_CRASH_EVERY`,
     * `MMGPU_FAULT_SERVE_STALL_AT_JOB`,
     * `MMGPU_FAULT_SERVE_STALL_MS`, `MMGPU_FAULT_SERVE_WAL_TEAR_AT`,
     * `MMGPU_FAULT_SERVE_CONN_RESET_EVERY`, and
     * `MMGPU_FAULT_SERVE_CRASH_POINT` (comma-separated point list)
     * are independent of the seed (they are counter- or
     * point-driven, not stochastic). Returns a disabled plan when
     * nothing is set.
     */
    static FaultPlan fromEnv();
};

template <FieldsOf<FaultPlan> S, typename Visit>
constexpr void
forEachField(S &self, Visit &&visit)
{
    auto &[seed, sensor, harness, serve] = self;
    visit("seed", seed);
    visit("sensor", sensor);
    visit("harness", harness);
    visit("serve", serve);
}

} // namespace mmgpu::fault

#endif // MMGPU_FAULT_FAULT_PLAN_HH
