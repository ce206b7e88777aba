#include "harness/parallel_runner.hh"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "common/logging.hh"

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

    std::mutex report_mutex;
    std::atomic<std::size_t> completed{0};
    auto work = [&](std::size_t index) {
        const RunKey &job = jobs[index];
        Result<const RunOutcome *> result =
            runner_->tryRun(job.config, job.profile,
                            job.linkEnergyScale, job.constGrowthOverride);
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

    report.completed = completed.load(std::memory_order_relaxed);
    for (const PointFailure &failure : report.failures) {
        warn("sweep point ", runKeyName(failure.key), " failed: ",
             failure.error.describe());
    }
    return report;
}

} // namespace mmgpu::harness
