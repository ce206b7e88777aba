#include "noc/topologies/ring.hh"

#include "common/logging.hh"
#include "noc/topologies/detail.hh"

namespace mmgpu::noc
{

using detail::linkName;
using detail::linkScales;

RingNetwork::RingNetwork(unsigned gpm_count, double link_bytes_per_cycle,
                         Cycles hop_latency,
                         const fault::LinkFaultSpec &faults)
    : gpmCount(gpm_count), hopLatency(hop_latency)
{
    if (gpm_count < 2)
        mmgpu_fatal("ring requires >= 2 GPMs, got ", gpm_count);
    auto scales = linkScales("ring", gpm_count, faults);
    links.reserve(gpm_count);
    failed.assign(gpm_count, std::array<bool, 2>{false, false});
    for (unsigned g = 0; g < gpm_count; ++g) {
        // Failed links keep their nominal capacity but are excluded
        // from routing; derated links run at reduced width.
        std::array<double, 2> rate;
        for (unsigned c = 0; c < 2; ++c) {
            failed[g][c] = scales[g][c] == 0.0;
            anyFailed = anyFailed || failed[g][c];
            rate[c] = failed[g][c]
                          ? link_bytes_per_cycle
                          : link_bytes_per_cycle * scales[g][c];
        }
        links.push_back(std::array<BandwidthServer, 2>{
            BandwidthServer(linkName("ring", g, ".cw"), rate[0]),
            BandwidthServer(linkName("ring", g, ".ccw"), rate[1])});
    }
    if (anyFailed) {
        viaCw.assign(std::size_t{gpmCount} * gpmCount, false);
        viaCcw.assign(std::size_t{gpmCount} * gpmCount, false);
        for (unsigned s = 0; s < gpmCount; ++s) {
            for (unsigned d = 0; d < gpmCount; ++d) {
                if (s == d)
                    continue;
                std::size_t at = std::size_t{s} * gpmCount + d;
                viaCw[at] = cwViable(s, d);
                viaCcw[at] = ccwViable(s, d);
                if (!viaCw[at] && !viaCcw[at])
                    mmgpu_fatal("link faults partition the ring: GPM ",
                                s, " cannot reach GPM ", d,
                                " in either direction");
            }
        }
    }
}

bool
RingNetwork::cwViable(unsigned src, unsigned dst) const
{
    for (unsigned u = src; u != dst; u = (u + 1) % gpmCount) {
        if (failed[u][0])
            return false;
    }
    return true;
}

bool
RingNetwork::ccwViable(unsigned src, unsigned dst) const
{
    for (unsigned u = src; u != dst; u = (u + gpmCount - 1) % gpmCount) {
        if (failed[u][1])
            return false;
    }
    return true;
}

unsigned
RingNetwork::hopCount(unsigned src, unsigned dst) const
{
    mmgpu_assert(src < gpmCount && dst < gpmCount, "bad GPM id");
    unsigned forward = (dst + gpmCount - src) % gpmCount;
    unsigned backward = gpmCount - forward;
    return forward <= backward ? forward : backward;
}

HopOutcome
RingNetwork::step(unsigned current, unsigned dst, Tick t, double bytes)
{
    mmgpu_assert(current < gpmCount && dst < gpmCount, "bad GPM id");
    mmgpu_assert(current != dst, "ring step at destination");

    unsigned forward = (dst + gpmCount - current) % gpmCount;
    unsigned backward = gpmCount - forward;
    bool clockwise = forward <= backward;
    if (anyFailed) {
        // Graceful reroute: when the preferred (shortest) direction
        // crosses a failed link, go the long way around. Progress in
        // the chosen direction only shrinks its remaining arc, so a
        // message never oscillates between directions; the
        // constructor guaranteed one direction is always viable.
        bool preferred_ok =
            clockwise ? viaCw[std::size_t{current} * gpmCount + dst]
                      : viaCcw[std::size_t{current} * gpmCount + dst];
        if (!preferred_ok) {
            clockwise = !clockwise;
            ++traffic_.rerouted;
        }
    }

    BandwidthServer &link =
        clockwise ? links[current][0] : links[current][1];
    HopOutcome hop;
    hop.ready = link.acquire(t, bytes) + static_cast<double>(hopLatency);
    hop.next = clockwise ? (current + 1) % gpmCount
                         : (current + gpmCount - 1) % gpmCount;
    hop.arrived = hop.next == dst;
    traffic_.byteHops += static_cast<Count>(bytes);
    if (hop.arrived) {
        ++traffic_.arrivals;
        traffic_.deliveredBytes += static_cast<Count>(bytes);
    }
    return hop;
}

std::string
RingNetwork::auditConservation() const
{
    std::string base = InterGpmNetwork::auditConservation();
    if (!base.empty())
        return base;
    // A healthy ring routes every message the shortest way; reroutes
    // can only come from the degraded path.
    if (!anyFailed && traffic_.rerouted != 0)
        return trafficImbalance("reroutes on a healthy ring",
                                traffic_.rerouted, 0);
    // Ring messages never cross a switch fabric.
    if (traffic_.switchBytes != 0)
        return trafficImbalance("switch bytes on a ring",
                                traffic_.switchBytes, 0);
    return {};
}

double
RingNetwork::totalQueueing() const
{
    double total = 0.0;
    for (const auto &pair : links)
        total += pair[0].queueingCycles() + pair[1].queueingCycles();
    return total;
}

double
RingNetwork::totalBusy() const
{
    double total = 0.0;
    for (const auto &pair : links)
        total += pair[0].busyCycles() + pair[1].busyCycles();
    return total;
}

void
RingNetwork::attachTelemetry(telemetry::Timeline &timeline)
{
    using Kind = telemetry::TimelineTrack::Kind;
    for (unsigned g = 0; g < gpmCount; ++g) {
        links[g][0].setTelemetrySink(&timeline.track(
            linkName("link/gpm", g, ".cw"), Kind::Busy));
        links[g][1].setTelemetrySink(&timeline.track(
            linkName("link/gpm", g, ".ccw"), Kind::Busy));
    }
}

void
RingNetwork::detachTelemetry()
{
    for (auto &pair : links) {
        pair[0].setTelemetrySink(nullptr);
        pair[1].setTelemetrySink(nullptr);
    }
}

void
RingNetwork::reset()
{
    for (auto &pair : links) {
        pair[0].reset();
        pair[1].reset();
    }
    traffic_.reset();
}

bool
ringPartitioned(unsigned gpm_count, const fault::LinkFaultSpec &faults)
{
    std::vector<std::array<bool, 2>> down(
        gpm_count, std::array<bool, 2>{false, false});
    bool any_down = false;
    for (const auto &f : faults.faults) {
        if (f.gpm >= gpm_count || f.channel > 1)
            continue; // malformed entries are rejected elsewhere
        if (f.capacityScale == 0.0)
            down[f.gpm][f.channel] = any_down = true;
    }
    // Every configuration is validated on every run, disk hits
    // included, and the pair walk below is cubic in the GPM count
    // (about 1 us at 8 GPMs, 95 us at 32); with no link down every
    // pair is reachable.
    if (!any_down)
        return false;
    for (unsigned s = 0; s < gpm_count; ++s) {
        for (unsigned d = 0; d < gpm_count; ++d) {
            if (s == d)
                continue;
            bool cw_ok = true;
            for (unsigned u = s; u != d; u = (u + 1) % gpm_count)
                cw_ok = cw_ok && !down[u][0];
            bool ccw_ok = true;
            for (unsigned u = s; u != d;
                 u = (u + gpm_count - 1) % gpm_count)
                ccw_ok = ccw_ok && !down[u][1];
            if (!cw_ok && !ccw_ok)
                return true;
        }
    }
    return false;
}

} // namespace mmgpu::noc
