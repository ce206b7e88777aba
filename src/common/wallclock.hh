/**
 * @file
 * The repo's only sanctioned access to host time.
 *
 * Simulation results must be a pure function of configuration,
 * workload, and seed — bit-identical across runs, hosts, and worker
 * counts — so mmgpu-lint bans std::chrono clocks, time(), rand(),
 * and friends everywhere outside src/common's rng/clock shims. The
 * pieces of the harness that legitimately need wall-clock time
 * (client timeouts, retry backoff, fault-plan hang windows) go
 * through this shim, which keeps every such site greppable and keeps
 * host time out of anything that feeds simulation state.
 *
 * Values are milliseconds on a monotonic clock with an arbitrary
 * epoch: good for measuring elapsed time, meaningless as a calendar
 * timestamp — deliberately, so nobody is tempted to persist one.
 */

#ifndef MMGPU_COMMON_WALLCLOCK_HH
#define MMGPU_COMMON_WALLCLOCK_HH

#include <cstdint>

namespace mmgpu::wallclock
{

/** Monotonic host time in milliseconds since an arbitrary epoch. */
std::int64_t nowMs();

/**
 * Monotonic host time in nanoseconds since an arbitrary epoch.
 * The profiler's clock (common/prof.hh): millisecond granularity is
 * useless for timing engine hot loops. Same epoch caveat as nowMs()
 * — never persist or compare across processes.
 */
std::int64_t nowNs();

/** Block the calling thread for @p ms milliseconds (>= 0). */
void sleepMs(std::int64_t ms);

} // namespace mmgpu::wallclock

#endif // MMGPU_COMMON_WALLCLOCK_HH
