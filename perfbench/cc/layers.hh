/**
 * @file
 * The traced pass: per-layer metrics.
 *
 * A traced run repeats a shortened form of its workload with spans on
 * (one sweep round, the nominal serve rate, one cache pass) and then
 * times each layer's public entry point directly on design points
 * drawn from the same workload:
 *
 *   trace     WarpTrace over every (cta, warp) of the point's profile
 *   engine    Calendar schedule/pop at the config's resident warps
 *   mem       SectoredCache replay of the trace's addresses; PageTable
 *   noc       topologyDesc(t).make(...) then transfer, all 4 fabrics
 *   sim       GpuSim construction and run, with exact event counts
 *   gpujoule  inputsFrom + estimate
 *   harness   cold point, memo hit, fingerprint, RunCache I/O,
 *             scalingStudy aggregation, parallel efficiency
 *   serve     parseRequest, encodeOutcome, in-process warm submit,
 *             service counters under open-loop load
 *   gen       the load generator's own lag and counts
 *
 * Spans nest; per-layer self time, span counts and the cost of the
 * recording itself are reported next to the layer metrics, and the
 * spans are written as Chrome-trace JSON.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <string>

#include "bench.hh"

namespace perfbench
{

/**
 * Run the traced pass of options.workload, fill report.perLayer, and
 * write the spans to @p trace_path.
 */
void runTraced(const Options &options, Report &report,
               const std::string &trace_path);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
