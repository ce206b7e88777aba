/**
 * @file
 * Parallel batch executor for independent simulation runs.
 *
 * The paper's evaluation is a large (workload x configuration)
 * sweep, and every point is an independent single-threaded
 * simulation: each run builds its own GpuSim against an immutable
 * StudyContext. The ParallelRunner exploits that: benches (and
 * scalingStudy()) enqueue whole sweeps up front, drain() executes
 * them on a worker pool — one worker per hardware thread by default,
 * `MMGPU_JOBS=<n>` overrides — and every outcome lands in the
 * ScalingRunner's memo cache, where the subsequent (serial)
 * aggregation passes find it. Execution order never affects results:
 * the simulator is deterministic per point, so parallel and serial
 * sweeps are bit-identical (asserted by tests/test_parallel_runner).
 */

#ifndef MMGPU_HARNESS_PARALLEL_RUNNER_HH
#define MMGPU_HARNESS_PARALLEL_RUNNER_HH

#include <cstddef>
#include <deque>
#include <set>
#include <vector>

#include "common/result.hh"
#include "harness/study.hh"

namespace mmgpu::harness
{

/** One sweep point that failed to compute. */
struct PointFailure
{
    RunKey key;
    SimError error;
};

/** What a drain() pass accomplished. */
struct DrainReport
{
    /** Points that completed (fresh or memoized). */
    std::size_t completed = 0;

    /** Points that failed, with their errors; the rest of the batch
     *  still ran to completion (failed-point isolation). */
    std::vector<PointFailure> failures;

    /** Every point completed. */
    bool ok() const { return failures.empty(); }
};

/** Batch executor filling a ScalingRunner's memo cache. */
class ParallelRunner
{
  public:
    /**
     * @param runner Thread-safe memoizing runner (not owned).
     * @param workers Worker-thread cap; 0 = defaultWorkers().
     */
    explicit ParallelRunner(ScalingRunner &runner,
                            unsigned workers = 0);

    /**
     * Worker count used when none is requested: the `MMGPU_JOBS`
     * environment override if set (clamped to >= 1), else
     * std::thread::hardware_concurrency().
     */
    static unsigned defaultWorkers();

    /**
     * Queue one run. Points already memoized by the runner — or
     * already queued in this batch (e.g. the shared 1-GPM baseline
     * of several enqueueStudy() calls) — are skipped. The
     * config/profile are copied — the batch owns its inputs until
     * drain() returns.
     */
    void enqueue(const sim::GpuConfig &config,
                 const trace::KernelProfile &profile,
                 double link_energy_scale = 1.0,
                 double const_growth_override = -1.0);

    /**
     * Queue a whole scaling study: every workload on the 1-GPM
     * baseline (no overrides) and on @p config (with overrides) —
     * the exact point set scalingStudy() reads.
     */
    void enqueueStudy(const sim::GpuConfig &config,
                      const std::vector<trace::KernelProfile> &workloads,
                      double link_energy_scale = 1.0,
                      double const_growth_override = -1.0);

    /** Queued, not-yet-drained run count. */
    std::size_t pending() const { return jobs_.size(); }

    /** The effective worker count drain() will use. */
    unsigned workers() const { return workers_; }

    /**
     * Checkpoint partial progress: flush the runner's persistent
     * cache after every @p n completed points (0 disables, the
     * default). An interrupted sweep then resumes from the last
     * checkpoint instead of recomputing from scratch.
     */
    void setCheckpointEvery(std::size_t n) { checkpointEvery_ = n; }

    /**
     * Execute every queued run and block until all complete. Jobs
     * are claimed off a shared atomic cursor; with one worker (or a
     * single job) everything runs inline on the calling thread.
     * The queue is empty afterwards; the runner's memo cache holds
     * the outcomes.
     *
     * A failing point (invalid config, injected fault, simulator
     * panic) is isolated: the remaining points still execute, and
     * the failure is reported in the returned DrainReport. Nothing
     * cancels a point that never finishes; a sweep relies on the
     * timeout of whatever process runs it.
     */
    DrainReport drain();

  private:
    ScalingRunner *runner_;
    unsigned workers_;
    std::size_t checkpointEvery_ = 0;
    std::deque<RunKey> jobs_; //!< deque: queued_ points into it

    /** Duplicate suppression per batch: views of jobs_ entries. */
    std::set<RunPoint> queued_;
};

} // namespace mmgpu::harness

#endif // MMGPU_HARNESS_PARALLEL_RUNNER_HH
