/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench --workload sweep_cold|serve_mixed|cache_restart
 *             --seed N --seconds S --trace 0|1
 *             --work-dir DIR --golden-dir perfbench/golden
 *   perfbench --write-golden --golden-dir perfbench/golden
 *
 * Prints human-readable progress, then as its last line one JSON
 * object {"correct", "attempted", "failed", "metrics"}: end-to-end
 * metrics untraced, per-layer metrics traced. Exits 1 on any digest
 * mismatch or failed operation and 2 when a metric could not be
 * measured; neither case prints the JSON line.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hh"
#include "layers.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload sweep_cold|serve_mixed|"
                 "cache_restart --seed N --seconds S --trace 0|1\n"
                 "                 --work-dir DIR --golden-dir DIR\n"
                 "       perfbench --write-golden --golden-dir DIR\n",
                 why);
    return 2;
}

std::string
resultLine(const Report &report, const std::vector<Metric> &metrics)
{
    // Values keep every digit measured (%.17g round-trips a double).
    std::string out = "{\"correct\": ";
    out += report.correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(report.attempted);
    out += ", \"failed\": " + std::to_string(report.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[40];
        std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
        out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
               value + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    return out + "}}";
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    bool write_golden = false;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (arg == "--workload") {
            options.workload = value();
            have_workload = true;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::atof(value().c_str());
        } else if (arg == "--trace") {
            options.trace = value() == "1";
        } else if (arg == "--work-dir") {
            options.workDir = value();
        } else if (arg == "--golden-dir") {
            options.goldenDir = value();
        } else if (arg == "--write-golden") {
            write_golden = true;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    // Runs attach their own caches; never touch the per-directory
    // process cache.
    setenv("MMGPU_NO_CACHE", "1", 1);
    unsigned hw = std::thread::hardware_concurrency();
    options.workers = std::clamp(hw, 1u, 4u);
    if (options.goldenDir.empty())
        return usage("--golden-dir is required");
    if (write_golden)
        return writeGolden(options);
    if (!have_workload || options.workDir.empty())
        return usage("--workload and --work-dir are required");
    if (options.workload != "sweep_cold" && options.workload != "serve_mixed" &&
        options.workload != "cache_restart")
        return usage(("unknown workload " + options.workload).c_str());

    std::filesystem::create_directories(options.workDir);
    std::printf("perfbench %s seed %llu, %.1f s, trace %d, %u workers\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0, options.workers);
    std::fflush(stdout);

    Report report;
    if (options.trace) {
        std::string path = options.workDir + "/../trace-" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".json";
        runTraced(options, report, path);
    } else {
        Tracer off(false);
        Measured m;
        if (options.workload == "sweep_cold")
            m = measureSweep(options, report, off, false);
        else if (options.workload == "serve_mixed")
            m = measureServe(options, report, off, false, nullptr);
        else
            m = measureCache(options, report, off, false);
        reportEndToEnd(m, report);
    }
    std::filesystem::remove_all(options.workDir);

    const auto &metrics = options.trace ? report.perLayer : report.endToEnd;
    for (const Metric &m : metrics)
        std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("failed_ratio %.6f (%llu of %llu operations)\n",
                report.attempted
                    ? static_cast<double>(report.failed) / report.attempted
                    : 0.0,
                static_cast<unsigned long long>(report.failed),
                static_cast<unsigned long long>(report.attempted));
    for (const std::string &problem : report.problems)
        std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
    if (!report.correct() || report.failed > 0) {
        std::fprintf(stderr, "perfbench: %llu failed operations, %llu "
                             "digest mismatches\n",
                     static_cast<unsigned long long>(report.failed),
                     static_cast<unsigned long long>(report.mismatched));
        return 1;
    }
    if (!report.problems.empty())
        return 2;
    std::printf("%s\n", resultLine(report, metrics).c_str());
    return 0;
}
