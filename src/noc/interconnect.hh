/**
 * @file
 * Inter-GPM interconnection networks: the abstract network, its
 * traffic books, and the registry-driven factory.
 *
 * The paper evaluates two topologies (§V-A1, §V-C) — a ring and a
 * high-radix switch. This layer generalizes them into a pluggable
 * family: each fabric lives in src/noc/topologies/ behind the
 * InterGpmNetwork interface and registers a TopologyDesc (name,
 * geometry, energy-attribution hooks, fault validation) in the
 * registry (noc/topology_registry.hh). Machine assembly, energy
 * attribution, configuration validation, and CLI/wire parsing all
 * consult the descriptor instead of branching on the enum, so adding
 * a fabric is: write the plugin, add one registry row.
 *
 * All fabrics report the traffic quantities GPUJoule charges energy
 * for: byte-hops over GPM endpoint links, bytes through electrical
 * fabrics, and circuit reconfigurations.
 */

#ifndef MMGPU_NOC_INTERCONNECT_HH
#define MMGPU_NOC_INTERCONNECT_HH

#include <memory>
#include <string>

#include "common/fields.hh"
#include "common/units.hh"
#include "fault/fault_plan.hh"
#include "noc/bandwidth_server.hh"

namespace mmgpu::noc
{

/** Inter-GPM topology selector. */
enum class Topology : std::uint8_t
{
    None,     //!< monolithic GPU, no inter-GPM network
    Ring,     //!< bidirectional ring, shortest-direction routing
    Switch,   //!< single-hop high-radix switch
    Fullmesh, //!< dedicated pairwise links, one hop
    Circuit,  //!< circuit-scheduled (OCS-style) reconfigurable fabric
};

/** @return human-readable topology name. */
const char *topologyName(Topology topology);

/** Traffic accounting for link-energy attribution. */
struct LinkTraffic
{
    /**
     * Bytes × links-traversed: the *bandwidth* consumed on the
     * network (through-traffic loads every intermediate ring link).
     * Diagnostic for congestion analyses.
     */
    Count byteHops = 0;

    /**
     * Bytes entering the network, counted once per message. The
     * inter-GPM pJ/bit energy figures the paper uses ([23], [5])
     * are per transferred bit, so GPUJoule charges link energy
     * against this quantity.
     */
    Count messageBytes = 0;

    /** Bytes passing through an electrical fabric (switch crossing,
     *  or the circuit-scheduled fabric's thin electrical fallback);
     *  multiplied by the additional per-switch pJ/bit energy. */
    Count switchBytes = 0;

    /** Messages that crossed the network. */
    Count transfers = 0;

    /** Hops forced away from the preferred route by a failed link
     *  (degraded-mode diagnostic; 0 when healthy). */
    Count rerouted = 0;

    /** Messages whose final hop arrived at the destination GPM.
     *  Equals transfers whenever the network is quiescent — the
     *  flit-conservation audit. */
    Count arrivals = 0;

    /** Bytes delivered at destinations (the arrival-side twin of
     *  messageBytes; equal at quiescent points). */
    Count deliveredBytes = 0;

    /** Circuit reconfigurations performed (circuit-scheduled fabric
     *  only; each one is charged a fixed energy penalty). */
    Count reconfigs = 0;

    void reset() { *this = LinkTraffic{}; }

    auto operator<=>(const LinkTraffic &) const = default;
};

template <FieldsOf<LinkTraffic> S, typename Visit>
constexpr void
forEachField(S &self, Visit &&visit)
{
    auto &[byteHops, messageBytes, switchBytes, transfers, rerouted,
           arrivals, deliveredBytes, reconfigs] = self;
    visit("byteHops", byteHops);
    visit("messageBytes", messageBytes);
    visit("switchBytes", switchBytes);
    visit("transfers", transfers);
    visit("rerouted", rerouted);
    visit("arrivals", arrivals);
    visit("deliveredBytes", deliveredBytes);
    visit("reconfigs", reconfigs);
}

/** Outcome of advancing a message by one network hop. */
struct HopOutcome
{
    /** Time the message is available at the next node. */
    Tick ready = 0.0;

    /** Node the message is now at (may be a fabric sentinel id ==
     *  gpmCount for switch-like topologies). */
    unsigned next = 0;

    /** True once the message has reached its destination GPM. */
    bool arrived = false;
};

/**
 * Abstract inter-GPM network.
 *
 * The primary interface is stepwise: the simulation engine advances a
 * message one hop per calendar event via step(), so every link sees
 * arrivals in calendar-time order even under congestion. The
 * synchronous transfer() convenience walks all hops at once and is
 * reserved for quiescent points (kernel-boundary writeback drains)
 * and tests.
 */
class InterGpmNetwork
{
  public:
    virtual ~InterGpmNetwork() = default;

    /**
     * Advance @p bytes currently at node @p current one hop toward
     * GPM @p dst, contending on that hop's link starting at @p t.
     */
    virtual HopOutcome step(unsigned current, unsigned dst, Tick t,
                            double bytes) = 0;

    /**
     * Move @p bytes from GPM @p src to GPM @p dst starting at @p t,
     * walking all hops synchronously.
     * @return delivery completion time.
     */
    Tick
    transfer(Tick t, unsigned src, unsigned dst, double bytes)
    {
        noteTransfer(bytes);
        unsigned node = src;
        Tick now = t;
        while (true) {
            HopOutcome hop = step(node, dst, now, bytes);
            now = hop.ready;
            node = hop.next;
            if (hop.arrived)
                return now;
        }
    }

    /** Count one logical message of @p bytes entering the network
     *  (called by the engine when it starts a stepwise journey). */
    void
    noteTransfer(double bytes)
    {
        ++traffic_.transfers;
        traffic_.messageBytes += static_cast<Count>(bytes);
    }

    /** Accumulated traffic since the last reset. */
    const LinkTraffic &traffic() const { return traffic_; }

    /**
     * Flit-conservation audit, meaningful only at quiescent points
     * (no message mid-journey): every message and byte injected into
     * the network must have arrived at a destination exactly once —
     * including traffic rerouted the long way around a degraded
     * ring or relayed around a failed mesh link. Topology plugins
     * add their own identities (a switch message crosses exactly
     * two endpoint links; a healthy ring never reroutes; a mesh
     * keeps per-pair books; circuit traffic splits exactly between
     * circuits and the electrical fallback).
     *
     * @return empty string when the books balance, else a diagnostic.
     *         Plain-function form (rather than asserting internally)
     *         so tests can exercise it at any contract level; the
     *         simulator wraps it in MMGPU_INVARIANT at end of run.
     */
    virtual std::string auditConservation() const;

    /** Aggregate queueing cycles across all links (congestion probe). */
    virtual double totalQueueing() const = 0;

    /** Aggregate busy cycles across all links (utilization probe). */
    virtual double totalBusy() const = 0;

    /**
     * Register one Busy utilization track per physical link in
     * @p timeline (under the "link/" group) and mirror every link's
     * busy intervals into it. The timeline must outlive the network
     * (the engine attaches a fresh network each run).
     */
    virtual void attachTelemetry(telemetry::Timeline &timeline) = 0;

    /**
     * Null every link's telemetry sink. Build-once machines call
     * this when running detached so tracks from an earlier run's
     * Timeline cannot dangle (reset() deliberately preserves sinks).
     */
    virtual void detachTelemetry() = 0;

    /** Clear link state and traffic counters. */
    virtual void reset() = 0;

  protected:
    LinkTraffic traffic_;
};

/** Format one violated conservation identity for audit diagnostics:
 *  "<what>: <lhs> != <rhs>". Shared by the topology plugins. */
std::string trafficImbalance(const char *what, Count lhs, Count rhs);

/** Everything a topology factory needs to build its network. */
struct TopologyParams
{
    /** Number of GPMs attached (>= 2 for every real fabric). */
    unsigned gpmCount = 0;

    /** Per-GPM inter-GPM I/O bandwidth, bytes/cycle per direction.
     *  Each plugin splits this across its own link geometry (the
     *  ring halves it per direction; the fullmesh divides it across
     *  N-1 pairwise links). */
    double perGpmIoBytesPerCycle = 0.0;

    /** Per-hop pipeline latency in cycles. */
    Cycles hopLatency = 0;

    /** Fabric-crossing latency in cycles (switch-like fabrics). */
    Cycles switchLatency = 0;

    /** Degraded/failed links; meaning of LinkFault::channel is
     *  per-topology (see TopologyDesc::checkFaults). */
    fault::LinkFaultSpec faults;
};

/**
 * Do @p faults' failed links leave some pair of GPMs on a
 * @p gpm_count ring unreachable in both directions? Exposed so
 * configuration validation can reject such plans before a fatal
 * deep inside network construction.
 */
bool ringPartitioned(unsigned gpm_count,
                     const fault::LinkFaultSpec &faults);

/**
 * Build the network for @p topology via the registry, wiring in any
 * link faults.
 * @return nullptr for Topology::None.
 */
std::unique_ptr<InterGpmNetwork>
makeNetwork(Topology topology, unsigned gpm_count,
            double per_gpm_io_bytes_per_cycle, Cycles hop_latency,
            Cycles switch_latency,
            const fault::LinkFaultSpec &faults = {});

} // namespace mmgpu::noc

#endif // MMGPU_NOC_INTERCONNECT_HH
