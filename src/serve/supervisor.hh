/**
 * @file
 * Shard supervision: crash isolation, strike accounting, quarantine,
 * restart backoff, and request-class circuit breaking.
 *
 * The serve tier must survive its own engine. A simulation that dies
 * inside a shard (an injected chaos crash, a contract-audit panic
 * unwound to the shard's PanicScope) is a *shard* problem, not a
 * *daemon* problem: the supervisor restarts the shard after a
 * bounded exponential backoff, and either re-queues the work
 * (clients never see the crash) or — after maxStrikes crashes on the
 * same work fingerprint — quarantines that fingerprint so it is
 * answered with ErrCode::Poisoned instead of crashing a shard a
 * fourth time.
 *
 * Everything here is clock-free: callers pass wall-times in, so the
 * policy is unit-testable deterministically and the lint determinism
 * rule holds. Thread-safe; one instance is shared by all shards.
 */

#ifndef MMGPU_SERVE_SUPERVISOR_HH
#define MMGPU_SERVE_SUPERVISOR_HH

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/lockdep.hh"
#include "common/thread_safety.hh"

namespace mmgpu::serve
{

/** Tunables for ShardSupervisor. */
struct SupervisorOptions
{
    /** Crashes on the same work fingerprint before it is poisoned. */
    unsigned maxStrikes = 3;

    /** First restart delay after a shard crash. */
    std::uint64_t backoffBaseMs = 100;

    /** Restart delay ceiling (doubles per consecutive crash). */
    std::uint64_t backoffCapMs = 5000;

    /** Bounded in-memory event log length (oldest dropped). */
    std::size_t eventLogCap = 128;
};

/** What the supervisor decided about a crashed job. */
enum class CrashVerdict
{
    Requeue, ///< transparent retry on a fresh shard/machine
    Poison,  ///< fingerprint quarantined; answer ErrCode::Poisoned
};

/** One supervision event, kept in a bounded log for --stats. */
struct SupervisorEvent
{
    std::uint64_t wallMs = 0;
    unsigned shard = 0;
    std::uint64_t fingerprint = 0;
    unsigned strike = 0;
    CrashVerdict verdict = CrashVerdict::Requeue;
    std::string message;
};

/** Aggregate supervision counters. */
struct SupervisorStats
{
    std::uint64_t crashes = 0;    ///< shard crashes observed
    std::uint64_t requeues = 0;   ///< crashes answered by retry
    std::uint64_t poisonings = 0; ///< fingerprints quarantined
    std::size_t quarantined = 0;  ///< quarantine set size now
    std::uint64_t backoffMsTotal = 0; ///< restart delay handed out
};

/**
 * Crash bookkeeping shared by every shard of a SimService.
 */
class ShardSupervisor
{
  public:
    explicit ShardSupervisor(const SupervisorOptions &options = {});

    /** The supervisor's ruling on one crash. */
    struct Outcome
    {
        CrashVerdict verdict = CrashVerdict::Requeue;
        /** How long the crashed shard must sleep before restart. */
        std::uint64_t backoffMs = 0;
        /** Strike count for the fingerprint, including this crash. */
        unsigned strike = 0;
    };

    /**
     * Record that @p shard crashed while executing work
     * @p fingerprint, and decide its fate. @p message is the panic /
     * fault text for the event log.
     */
    Outcome onCrash(unsigned shard, std::uint64_t fingerprint,
                    const std::string &message, std::uint64_t wall_ms);

    /** A shard finished a job cleanly; its backoff resets. */
    void onHealthy(unsigned shard);

    /** @return true when @p fingerprint has been poisoned. */
    bool quarantined(std::uint64_t fingerprint) const;

    SupervisorStats stats() const;

    /** Snapshot of the bounded event log, oldest first. */
    std::vector<SupervisorEvent> events() const;

  private:
    mutable sync::Mutex mutex_;
    SupervisorOptions options_;
    std::unordered_map<std::uint64_t, unsigned> strikes_
        MMGPU_GUARDED_BY(mutex_);
    std::unordered_set<std::uint64_t> quarantine_
        MMGPU_GUARDED_BY(mutex_);
    std::unordered_map<unsigned, std::uint64_t> shardBackoffMs_
        MMGPU_GUARDED_BY(mutex_);
    std::deque<SupervisorEvent> events_ MMGPU_GUARDED_BY(mutex_);
    std::uint64_t crashes_ MMGPU_GUARDED_BY(mutex_) = 0;
    std::uint64_t requeues_ MMGPU_GUARDED_BY(mutex_) = 0;
    std::uint64_t poisonings_ MMGPU_GUARDED_BY(mutex_) = 0;
    std::uint64_t backoffMsTotal_ MMGPU_GUARDED_BY(mutex_) = 0;
};

/** Tunables for CircuitBreaker. */
struct BreakerOptions
{
    /** Sliding window length per request class. */
    std::size_t window = 16;

    /** Error fraction at which the class opens (sheds). */
    double tripRatio = 0.5;

    /** Outcomes required before the ratio is trusted. */
    std::size_t minSamples = 8;

    /** How long an open class sheds before closing again. */
    std::uint64_t cooldownMs = 2000;
};

/**
 * Per-request-class circuit breaker. When a class's recent error
 * rate spikes (>= tripRatio over the last `window` outcomes), the
 * class opens: the service sheds new requests of that class with a
 * Retry-After hint instead of feeding more work to a failing path.
 * After cooldownMs the class closes with a fresh window.
 *
 * Clock-free like the supervisor: callers pass wall-times.
 */
class CircuitBreaker
{
  public:
    /** @p classes is the number of request classes tracked. */
    explicit CircuitBreaker(std::size_t classes,
                            const BreakerOptions &options = {});

    /** Record one outcome for @p cls (true = success). */
    void record(std::size_t cls, bool ok, std::uint64_t wall_ms);

    /** @return true when @p cls is open (shed it). */
    bool open(std::size_t cls, std::uint64_t wall_ms) const;

    /** Milliseconds until @p cls closes; 0 when it is not open. */
    std::uint64_t retryAfterMs(std::size_t cls,
                               std::uint64_t wall_ms) const;

    /** Total times any class opened. */
    std::uint64_t trips() const;

  private:
    struct ClassState
    {
        std::vector<std::uint8_t> ring; ///< 1 = error
        std::size_t head = 0;
        std::size_t count = 0;
        std::size_t errors = 0;
        std::uint64_t openUntilMs = 0;
    };

    void resetLocked(ClassState &state) const
        MMGPU_REQUIRES(mutex_);

    mutable sync::Mutex mutex_;
    BreakerOptions options_;
    std::vector<ClassState> classes_ MMGPU_GUARDED_BY(mutex_);
    std::uint64_t trips_ MMGPU_GUARDED_BY(mutex_) = 0;
};

} // namespace mmgpu::serve

#endif // MMGPU_SERVE_SUPERVISOR_HH
