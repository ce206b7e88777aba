/**
 * @file
 * The three benchmark workloads and the golden-table writer.
 *
 * Untraced runs fill Report::endToEnd; traced runs (layers.hh) fill
 * Report::perLayer. Both count attempted/failed operations and digest
 * mismatches into the report.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "bench.hh"
#include "points.hh"
#include "serve_load.hh"

namespace perfbench
{

/**
 * What a workload measured, in the shape every workload reports:
 * "cold" answers are the first for their design point in the
 * process, "warm" answers repeat one the caller already holds.
 */
struct Measured
{
    std::vector<double> setups; //!< set-up seconds, one per repetition

    /** Cold / warm answer latencies (ms), one vector per repetition
     *  of the measurement; a percentile is the mean over them. */
    std::vector<std::vector<double>> coldMs, warmMs;

    double pointsPerS = 0.0;
    double maxRateRps = 0.0;
};

/**
 * Host time of each job of one drain, from the completion times
 * @p done (seconds since the drain began, in queue order): job i
 * starts when a worker frees up, i.e. at the (i - workers + 1)-th
 * completion.
 */
std::vector<double> pointLatenciesMs(const std::vector<double> &done,
                                     unsigned workers);

/**
 * sweep_cold: rounds of seeded fig6 points drained cold through
 * ParallelRunner on a fresh runner and empty cache directory. Cold
 * latency is one point's host time within the drain; warm latency is
 * answering the point again from that cache through a fresh runner,
 * as a re-run of the sweep in a new process would.
 * Runs until options.seconds and enough cold samples for p90, or a
 * single round when @p single_round.
 */
Measured measureSweep(const Options &options, Report &report,
                      Tracer &tracer, bool single_round);

/**
 * serve_mixed: the seeded open-loop schedule at each ladder rate
 * (only the nominal one when @p nominal_only), each against a fresh
 * service; latencies come from the nominal rate, whose full result
 * is copied to @p nominal_out when non-null.
 */
Measured measureServe(const Options &options, Report &report,
                      Tracer &tracer, bool nominal_only,
                      RungResult *nominal_out);

/**
 * cache_restart: fill a run-cache file (untimed), then per pass open
 * it fresh and answer its grid through a fresh runner — disk hits
 * (cold), memo hits (warm), scalingStudy aggregation. Runs until
 * options.seconds, or one pass when @p single_pass.
 */
Measured measureCache(const Options &options, Report &report,
                      Tracer &tracer, bool single_pass);

/** The end-to-end metrics of @p m (plus peak RSS) into @p report. */
void reportEndToEnd(const Measured &m, Report &report);

/** serve_mixed's nominal rate, requests/s, and the rate ladder. */
constexpr double serveNominalRate = 4000.0;
std::vector<double> serveLadder();

/** Warm p99 limit a ladder rate must meet, ms. */
constexpr double serveWarmP99LimitMs = 1000.0;

/** Build the serve_mixed schedule for @p seed at @p rate. */
std::vector<ScheduledRequest> serveSchedule(std::uint64_t seed,
                                            std::size_t count,
                                            double rate);

/** Repetitions of the nominal rate (latencies are their mean, rates
 *  their median). */
constexpr int serveNominalRepeats = 5;

/** Requests per ladder rate: enough warm samples for p99. */
std::size_t serveRequestsPerRate();

/**
 * Recompute every sweep point and every serve catalog answer and
 * write perfbench/golden/{sweep_points,serve_bodies}.tsv.
 * @return 0 on success.
 */
int writeGolden(const Options &options);

/** A cold fresh-runner outcome digest check for one point. */
bool checkPoint(const GoldenTable &golden, const Point &point,
                const mmgpu::sim::PerfResult &perf,
                const mmgpu::joule::EnergyBreakdown &energy);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
