/**
 * @file
 * Run options and the result report shared by every workload.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "digest.hh"
#include "spans.hh"
#include "stats.hh"

namespace perfbench
{

/** The seed a plain run uses, and the held-out seed kept for
 *  checking that nothing was tuned to the default one. */
constexpr std::uint64_t defaultSeed = 1;
constexpr std::uint64_t heldOutSeed = 20191;

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = defaultSeed;
    double seconds = 40.0;
    bool trace = false;
    std::string workDir;   //!< scratch directory (caches, sockets)
    std::string goldenDir; //!< perfbench/golden
    unsigned workers = 4;  //!< sweep workers = min(nproc, 4)
};

/** One named metric value. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one run measured and whether its outputs were correct. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;     //!< failed + rejected + mismatched
    std::uint64_t mismatched = 0; //!< digest mismatches (subset of failed)
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    std::vector<std::string> problems; //!< reasons the run is invalid

    /** Outputs were all correct (no digest mismatch). */
    bool correct() const { return mismatched == 0; }

    void
    e2e(const std::string &name, double value, const std::string &unit)
    {
        endToEnd.push_back({name, value, unit});
    }

    void
    layer(const std::string &name, double value,
          const std::string &unit)
    {
        perLayer.push_back({name, value, unit});
    }

    /**
     * Add percentile @p q as metric @p name, measured over one or more
     * repetitions (@p groups of samples): the metric is the mean of
     * the per-repetition percentiles, printed with the sample counts.
     * If any repetition misses the sample-count rule (fewer than
     * minBeyond samples beyond its percentile) the metric is recorded
     * as a problem instead of reported.
     */
    void percentileMetric(bool end_to_end, const std::string &name,
                          const std::vector<std::vector<double>> &groups,
                          double q, const std::string &unit);

    /** Count one mismatched output (also a failure). */
    void
    mismatch(const std::string &what)
    {
        ++mismatched;
        ++failed;
        problems.push_back("digest mismatch: " + what);
    }
};

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/**
 * Hand the allocator's free pages back to the system between
 * repetitions, so the process-wide peak RSS is the heaviest
 * repetition's own footprint rather than an accident of how earlier
 * repetitions fragmented the per-thread malloc arenas.
 */
void releaseFreeMemory();

/** Make @p path (and parents) a fresh, empty directory. */
void freshDirectory(const std::string &path);

/** Load a golden table or record a problem when it is missing. */
GoldenTable loadGolden(const Options &options, const std::string &file,
                       Report &report);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
