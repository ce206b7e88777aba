/**
 * @file
 * Sample statistics with an explicit sample-count rule.
 *
 * A tail percentile computed from a handful of samples is mostly
 * noise: p99 of 50 samples is just the largest one. Every percentile
 * the benchmark reports therefore carries its sample count and the
 * number of samples strictly beyond it, and only percentiles with at
 * least minBeyond (10) samples beyond them are reportable — p50
 * needs 20 samples, p90 100, p99 1000.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench
{

/** Samples that must lie beyond a percentile for it to be reported. */
constexpr std::size_t minBeyond = 10;

/** One nearest-rank percentile with its evidence. */
struct Percentile
{
    double value = 0.0;      //!< the rank-th smallest sample
    std::size_t samples = 0; //!< sample count
    std::size_t beyond = 0;  //!< samples ranked after the percentile

    bool reportable() const { return beyond >= minBeyond; }

    /** "12.3 (n=1000, 10 beyond)" — the form printed beside it. */
    std::string describe() const;
};

/**
 * Nearest-rank percentile: rank = ceil(q * n), value = the rank-th
 * smallest sample, beyond = n - rank. Empty input gives samples 0
 * (never reportable).
 */
Percentile percentile(std::vector<double> samples, double q);

/** Smallest sample count whose q-percentile is reportable. */
std::size_t samplesNeeded(double q);

/** Median (average of the middle two for even sizes); 0 if empty. */
double median(std::vector<double> samples);

/** Arithmetic mean; 0 if empty. */
double mean(const std::vector<double> &samples);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
