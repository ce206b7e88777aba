#include "harness/parallel_runner.hh"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "common/logging.hh"
#include "common/wallclock.hh"

namespace mmgpu::harness
{

ParallelRunner::ParallelRunner(ScalingRunner &runner, unsigned workers)
    : runner_(&runner),
      workers_(workers > 0 ? workers : defaultWorkers())
{
}

unsigned
ParallelRunner::defaultWorkers()
{
    if (const char *jobs = std::getenv("MMGPU_JOBS");
        jobs != nullptr && *jobs != '\0') {
        char *end = nullptr;
        long parsed = std::strtol(jobs, &end, 10);
        if (end != jobs && *end == '\0' && parsed >= 1)
            return static_cast<unsigned>(parsed);
        warn("ignoring malformed MMGPU_JOBS='", jobs, "'");
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void
ParallelRunner::enqueue(const sim::GpuConfig &config,
                        const trace::KernelProfile &profile,
                        double link_energy_scale,
                        double const_growth_override)
{
    const RunPoint point{link_energy_scale, const_growth_override,
                         &config, &profile};
    if (queued_.contains(point) ||
        runner_->cached(config, profile, link_energy_scale,
                        const_growth_override))
        return;
    jobs_.push_back(RunKey{link_energy_scale, const_growth_override,
                           config, profile});
    queued_.insert(jobs_.back().point());
}

void
ParallelRunner::enqueueStudy(
    const sim::GpuConfig &config,
    const std::vector<trace::KernelProfile> &workloads,
    double link_energy_scale, double const_growth_override)
{
    const sim::GpuConfig baseline = sim::baselineConfig();
    for (const auto &profile : workloads) {
        enqueue(baseline, profile);
        enqueue(config, profile, link_energy_scale,
                const_growth_override);
    }
}

DrainReport
ParallelRunner::drain()
{
    queued_.clear();
    std::deque<RunKey> jobs = std::move(jobs_);
    jobs_.clear();
    DrainReport report;
    if (jobs.empty())
        return report;

    // Per-point watchdog bookkeeping: start time in milliseconds
    // since the drain began (-1 = not started, -2 = finished) and a
    // cooperative cancel flag the point's computation polls.
    struct JobState
    {
        std::atomic<std::int64_t> startMs{-1};
        std::atomic<bool> cancel{false};
    };
    std::vector<JobState> states(jobs.size());
    const std::int64_t epoch = wallclock::nowMs();
    auto now_ms = [epoch] { return wallclock::nowMs() - epoch; };

    std::mutex report_mutex;
    std::atomic<std::size_t> completed{0};
    auto work = [&](std::size_t index) {
        JobState &state = states[index];
        state.startMs.store(now_ms(), std::memory_order_release);
        const RunKey &job = jobs[index];
        Result<const RunOutcome *> result = runner_->tryRun(
            job.config, job.profile, job.linkEnergyScale,
            job.constGrowthOverride, &state.cancel);
        state.startMs.store(-2, std::memory_order_release);
        if (result.ok()) {
            std::size_t done =
                completed.fetch_add(1, std::memory_order_relaxed) + 1;
            if (checkpointEvery_ > 0 &&
                done % checkpointEvery_ == 0) {
                if (RunCache *cache = runner_->persistentCache())
                    cache->flush();
            }
        } else {
            std::lock_guard<std::mutex> lock(report_mutex);
            report.failures.push_back(
                PointFailure{job, result.error()});
        }
    };

    // The watchdog monitor raises cancel flags on overdue points;
    // workers stay joinable because cancellation is cooperative.
    std::atomic<bool> monitor_stop{false};
    std::thread monitor;
    if (watchdogSeconds_ > 0.0) {
        const auto budget_ms =
            static_cast<std::int64_t>(watchdogSeconds_ * 1000.0);
        // budget_ms by value: it dies with this block, but the
        // monitor thread runs until after the workers join.
        monitor = std::thread([&, budget_ms] {
            while (!monitor_stop.load(std::memory_order_acquire)) {
                std::int64_t now = now_ms();
                for (JobState &state : states) {
                    std::int64_t started =
                        state.startMs.load(std::memory_order_acquire);
                    if (started >= 0 && now - started > budget_ms)
                        state.cancel.store(
                            true, std::memory_order_release);
                }
                wallclock::sleepMs(50);
            }
        });
    }

    unsigned threads = static_cast<unsigned>(
        std::min<std::size_t>(workers_, jobs.size()));
    if (threads <= 1) {
        for (std::size_t i = 0; i < jobs.size(); ++i)
            work(i);
    } else {
        std::atomic<std::size_t> cursor{0};
        auto worker = [&] {
            while (true) {
                std::size_t index =
                    cursor.fetch_add(1, std::memory_order_relaxed);
                if (index >= jobs.size())
                    return;
                work(index);
            }
        };

        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back(worker);
        for (auto &thread : pool)
            thread.join();
    }

    if (monitor.joinable()) {
        monitor_stop.store(true, std::memory_order_release);
        monitor.join();
    }

    report.completed = completed.load(std::memory_order_relaxed);
    for (const PointFailure &failure : report.failures) {
        warn("sweep point ", runKeyName(failure.key), " failed: ",
             failure.error.describe());
    }
    return report;
}

} // namespace mmgpu::harness
