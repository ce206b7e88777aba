/**
 * @file
 * Persistent cross-process cache of simulated runs.
 *
 * Every bench binary replays overlapping slices of the same
 * (workload x configuration) sweep: the 1-GPM baseline alone is
 * recomputed by each of the 17 binaries. The RunCache persists
 * finished `PerfResult` + `EnergyBreakdown` pairs to
 * `.mmgpu-cache/runs.json` (relative to the working directory, i.e.
 * next to the build tree the benches run from) so the sweep one
 * binary computes is free for the next.
 *
 * Keys are a 64-bit FNV-1a fingerprint over *every* input that can
 * change a result: the link-energy scale and constant-growth
 * overrides, every GpuConfig and KernelProfile field (hashFields()
 * over each struct's forEachField list, so a new field joins the key
 * by construction), the calibration outcome the energy model used,
 * and a schema-version salt. Bumping `runCacheSchemaVersion`
 * invalidates every existing cache file; stale or corrupt files
 * degrade to a cache miss, never an error.
 *
 * Serialization is exact and derived the same way: fieldsToJson()
 * over the PerfResult and EnergyBreakdown field lists stores doubles
 * as C99 hexfloat strings ("%a") and event counts as decimal
 * strings, so a cache round-trip reproduces every field of the
 * freshly computed result — the determinism tests assert this.
 *
 * Escape hatches: `MMGPU_NO_CACHE=1` disables the process-wide cache
 * entirely; `MMGPU_CACHE_DIR=<dir>` relocates it (used by the test
 * suite for isolation); `MMGPU_CACHE_FLUSH_SEC=<s>` arms a periodic
 * background flush so a long-lived process (the mmgpu_serve daemon)
 * persists warm entries without waiting for shutdown. Flushes are
 * atomic (tmp + rename), so a crash between flushes leaves the last
 * flushed file intact.
 *
 * Durability between flushes comes from a write-ahead journal: every
 * insert appends one checksummed, hexfloat-exact record to
 * `runs.wal` next to the cache file before it becomes visible to
 * lookups of a restarted process. The journal is replayed on open
 * (newest record wins over the snapshot) and truncated after a
 * successful atomic flush, so a `kill -9` at any point loses zero
 * completed simulations — at worst a torn final record, which the
 * per-record FNV-1a checksum rejects on replay. Records are framed
 * by a *leading* newline, so a torn tail is terminated (and
 * invalidated) by the next append instead of corrupting it. fsync is
 * batched (process death alone never loses page-cache writes; only
 * power loss needs sync). `MMGPU_CACHE_WAL=0` disables the journal,
 * restoring the flush-only durability story.
 */

#ifndef MMGPU_HARNESS_RUN_CACHE_HH
#define MMGPU_HARNESS_RUN_CACHE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "common/fields.hh"
#include "common/thread_safety.hh"
#include "gpujoule/calibration.hh"
#include "gpujoule/energy_model.hh"
#include "sim/gpu_config.hh"
#include "sim/perf_result.hh"
#include "trace/kernel_profile.hh"

namespace mmgpu::harness
{

/**
 * Version salt folded into every cache key and written to the file
 * header. Bump when the simulator, the energy model, or the
 * serialized layout changes meaning.
 */
constexpr std::uint64_t runCacheSchemaVersion = 4;

/** Fingerprint of a calibration outcome (energy-param inputs). */
std::uint64_t
calibrationFingerprint(const joule::CalibrationResult &calib);

/**
 * Cache key of one run. @p calib_fingerprint comes from
 * calibrationFingerprint() (the StudyContext caches it).
 */
std::uint64_t runFingerprint(const sim::GpuConfig &config,
                             const trace::KernelProfile &profile,
                             double link_energy_scale,
                             double const_growth_override,
                             std::uint64_t calib_fingerprint);

/** On-disk run cache; all methods are thread-safe. */
class RunCache
{
  public:
    /**
     * Bind to @p path, load whatever valid entries it holds, and
     * replay the write-ahead journal on top (journal records win).
     * Missing, corrupt, or version-mismatched files yield an empty
     * cache (a warning is emitted for corrupt ones).
     */
    explicit RunCache(std::string path);

    /** Stops the auto-flush thread (final flush included if it was
     *  running, see stopAutoFlush()) and closes the journal. */
    ~RunCache();

    RunCache(const RunCache &) = delete;
    RunCache &operator=(const RunCache &) = delete;

    /**
     * Look up @p key.
     * @return true and fill @p perf / @p energy on a hit.
     */
    bool lookup(std::uint64_t key, sim::PerfResult &perf,
                joule::EnergyBreakdown &energy);

    /** Record a finished run under @p key. */
    void insert(std::uint64_t key, const sim::PerfResult &perf,
                const joule::EnergyBreakdown &energy);

    /**
     * Write back to disk if any insert happened since the last
     * flush. Entries written by other processes in the meantime are
     * merged, not clobbered. Failures warn and return false.
     */
    bool flush();

    /** The bound file path. */
    const std::string &path() const { return path_; }

    /** The write-ahead journal path (`runs.wal` beside `path()`). */
    const std::string &walPath() const { return walPath_; }

    /** True unless `MMGPU_CACHE_WAL=0` disabled the journal. */
    bool walEnabled() const { return walEnabled_; }

    /** Journal records replayed by the constructor (torn or corrupt
     *  records are excluded — they are dropped with a warning). */
    std::size_t walReplayed() const { return walReplayed_; }

    /**
     * Chaos hook: tear the @p nth journal append from now (1-based);
     * the record is written truncated mid-payload, exactly as a
     * crash between write() and completion would leave it. 0 disarms.
     * Wired to `MMGPU_FAULT_SERVE_WAL_TEAR_AT` by the serve daemon.
     */
    void armWalTear(std::uint64_t nth);

    /** Entries currently held (loaded + inserted). */
    std::size_t size() const;

    /** Lookup hits since construction. */
    std::uint64_t hits() const { return hits_.load(); }

    /** Lookup misses since construction. */
    std::uint64_t misses() const { return misses_.load(); }

    /**
     * Start a background thread that flushes every @p seconds (> 0)
     * while the cache is alive — the persistence story of a
     * long-lived daemon, where "at process exit" may be days away.
     * Idempotent: a second call retunes the period. The thread only
     * writes when inserts happened since the last flush.
     */
    void startAutoFlush(double seconds);

    /**
     * Stop the background flush thread: joins it, then performs one
     * final flush (which also truncates the journal) so a daemon's
     * orderly shutdown leaves a clean snapshot and an empty WAL.
     * No-op — and no flush — when the flusher was never started, so
     * scratch caches still discard unflushed inserts on destruction.
     */
    void stopAutoFlush();

    /** Background flushes performed since construction. */
    std::uint64_t autoFlushes() const { return autoFlushes_.load(); }

    /**
     * The `MMGPU_CACHE_FLUSH_SEC` environment knob: seconds between
     * background flushes, or 0 when unset/malformed/non-positive
     * (auto-flush disabled).
     */
    static double autoFlushSecondsFromEnv();

    /**
     * The process-wide cache at `$MMGPU_CACHE_DIR/runs.json`
     * (default `.mmgpu-cache/runs.json`), created on first use and
     * flushed automatically at process exit. Returns nullptr when
     * `MMGPU_NO_CACHE=1` is set.
     */
    static RunCache *processCache();

  private:
    /** One record; its field list is the on-disk layout. */
    struct Entry
    {
        sim::PerfResult perf;
        joule::EnergyBreakdown energy;

        template <FieldsOf<Entry> S, typename Visit>
        friend constexpr void
        forEachField(S &self, Visit &&visit)
        {
            auto &[perf, energy] = self;
            visit("perf", perf);
            visit("energy", energy);
        }
    };

    void loadLocked() MMGPU_REQUIRES(mutex_);
    void replayWalLocked() MMGPU_REQUIRES(mutex_);
    void appendWalLocked(std::uint64_t key, const Entry &entry)
        MMGPU_REQUIRES(mutex_);
    void truncateWalLocked() MMGPU_REQUIRES(mutex_);

    std::string path_;
    std::string walPath_;
    mutable std::mutex mutex_;
    std::map<std::uint64_t, Entry> entries_ MMGPU_GUARDED_BY(mutex_);
    bool dirty_ MMGPU_GUARDED_BY(mutex_) = false;
    bool walEnabled_ = true; //!< set once in the ctor, then read-only
    int walFd_ MMGPU_GUARDED_BY(mutex_) = -1;
    bool walOpenFailed_ MMGPU_GUARDED_BY(mutex_) = false;
    std::size_t walReplayed_ = 0; //!< ctor-only writes
    std::uint64_t walAppends_ MMGPU_GUARDED_BY(mutex_) = 0;
    std::uint64_t walUnsynced_ MMGPU_GUARDED_BY(mutex_) = 0;
    std::uint64_t walTearAt_ MMGPU_GUARDED_BY(mutex_) = 0;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};

    // Auto-flush thread state. flusherStop_ is polled between short
    // sleeps so stopAutoFlush() returns promptly even with a long
    // flush period.
    std::thread flusher_;
    std::atomic<bool> flusherStop_{false};
    std::atomic<std::int64_t> flushPeriodMs_{0};
    std::atomic<std::uint64_t> autoFlushes_{0};
};

} // namespace mmgpu::harness

#endif // MMGPU_HARNESS_RUN_CACHE_HH
