/**
 * @file
 * The long-lived simulation service behind mmgpu_serve.
 *
 * A SimService owns what a bench binary normally rebuilds per
 * process — the calibrated StudyContext, the memoizing ScalingRunner
 * with its build-once machine pool, and the persistent run cache —
 * and serves simulation requests against them indefinitely. Request
 * lifecycle (DESIGN.md §10):
 *
 *   RECEIVED -> ADMITTED | REJECTED            (bounded queue)
 *   ADMITTED -> ATTACHED | ROUTED              (in-flight dedup)
 *   ROUTED   -> RUNNING -> COMPLETED | FAILED  (shard worker)
 *
 * Duplicate work never simulates twice: a request whose work
 * identity matches an in-flight job *attaches* to it as an extra
 * subscriber, and completed work is served from the runner's memo
 * cache (and the persistent cache across restarts). A housekeeper
 * thread samples service health into a bounded timeseries, arms the
 * per-shard watchdog that cancels hung points, and the attached run
 * cache's background flush persists warm entries between requests.
 *
 * Threading: submit() is safe from any thread (socket connection
 * handlers call it concurrently); responses are delivered on worker
 * threads via the callback passed to submit(). start() before the
 * first submit(); beginShutdown() may be called from any thread
 * (including a response path); join() from the owning thread only.
 */

#ifndef MMGPU_SERVE_SERVICE_HH
#define MMGPU_SERVE_SERVICE_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/lockdep.hh"
#include "common/prof.hh"
#include "common/thread_safety.hh"
#include "fault/fault_plan.hh"
#include "harness/study.hh"
#include "serve/admission.hh"
#include "serve/request.hh"
#include "serve/router.hh"
#include "serve/supervisor.hh"
#include "telemetry/telemetry.hh"

namespace mmgpu::serve
{

/** Service tuning knobs (all have serviceable defaults). */
struct ServeOptions
{
    std::size_t shards = 2;        //!< worker shard count
    std::size_t queueDepth = 64;   //!< admission bound
    double watchdogSeconds = 30.0; //!< per-job budget; 0 disables
    double cacheFlushSec = 0.0;    //!< run-cache background flush; 0
                                   //!< defers to MMGPU_CACHE_FLUSH_SEC
    std::int64_t sampleMs = 200;   //!< health-sample period
    std::size_t timeseriesCap = 512; //!< health samples retained
    std::size_t routerSlack = 2;   //!< affinity load headroom (jobs)

    // Self-healing knobs (DESIGN.md "Failure model & self-healing").
    SupervisorOptions supervisor; //!< strikes / quarantine / backoff
    BreakerOptions breaker;       //!< per-class circuit breaking
    double quotaRatePerSec = 0.0; //!< per-client admission quota;
                                  //!< 0 disables quotas
    double quotaBurst = 16.0;     //!< per-client burst allowance
    double shedWatermark = 0.85;  //!< overload shed point (fraction
                                  //!< of queueDepth)

    /** Chaos plan for the serve-layer fault knobs (not owned; may be
     *  null, and a disabled plan injects nothing). */
    const fault::FaultPlan *faultPlan = nullptr;
};

/** One health sample of the running service. */
struct StatsSample
{
    std::int64_t tMs = 0;        //!< wallclock of the sample
    std::size_t queueDepth = 0;  //!< admission queue depth
    std::size_t busyShards = 0;  //!< shards mid-simulation
    std::size_t inflight = 0;    //!< distinct in-flight identities
    double cacheHitRate = 0.0;   //!< persistent-cache hit fraction
    std::uint64_t crashes = 0;   //!< supervised shard crashes so far
};

/** Aggregate service statistics (the "stats" request payload). */
struct ServiceStats
{
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t dedupAttached = 0; //!< subscribers on in-flight work
    std::uint64_t simulationsStarted = 0; //!< genuinely uncached points
    std::uint64_t affinityHits = 0;
    std::size_t queueDepth = 0;
    std::size_t inflight = 0;
    std::size_t busyShards = 0;
    std::size_t shards = 0;
    double cacheHitRate = 0.0;
    double latencyP50Ms = 0.0; //!< admission -> response, recent
    double latencyP95Ms = 0.0;

    // Self-healing counters.
    std::uint64_t quotaRejected = 0; //!< per-client quota rejects
    std::uint64_t shed = 0;          //!< overload sheds
    std::uint64_t crashes = 0;       //!< supervised shard crashes
    std::uint64_t requeues = 0;      //!< crashes retried invisibly
    std::uint64_t poisonings = 0;    //!< fingerprints quarantined
    std::size_t quarantined = 0;     //!< quarantine set size
    std::uint64_t breakerTrips = 0;  //!< circuit-breaker opens
};

/** Response sink; invoked exactly once per submitted request. */
using ResponseCallback = std::function<void(const Response &)>;

/** The daemon's request engine. */
class SimService
{
  public:
    /**
     * @param options Tuning knobs.
     * @param context Calibrated study context (not owned; outlives
     *        the service).
     */
    SimService(const ServeOptions &options,
               const harness::StudyContext &context);

    /** Joins every service thread (beginShutdown() + join()). */
    ~SimService();

    SimService(const SimService &) = delete;
    SimService &operator=(const SimService &) = delete;

    /** Spawn dispatcher, shard workers, and housekeeper. */
    void start();

    /**
     * Submit a parsed request. @p done fires exactly once, on a
     * worker thread (run/study) or inline (ping/stats/shutdown and
     * every reject path).
     */
    void submit(Request request, ResponseCallback done)
        MMGPU_EXCLUDES(inflightMutex_);

    /**
     * Submit a raw protocol line: parse errors become error
     * responses addressed to whatever id could be salvaged. A
     * request that names no "client" is accounted against
     * @p default_client (the socket front end passes its
     * per-connection identity).
     */
    void submitLine(const std::string &line, ResponseCallback done,
                    const std::string &default_client = {});

    /** Synchronous submit() — blocks until the response lands. */
    Response call(Request request);

    /**
     * Stop admitting new work and let queued work drain; safe from
     * any thread, including a response callback. Idempotent.
     */
    void beginShutdown();

    /** True once a shutdown request / beginShutdown() happened. */
    bool shuttingDown() const { return shutdown_.load(); }

    /** Block until shuttingDown() (the daemon's run loop). */
    void waitShutdown();

    /** Join all service threads (after beginShutdown()). */
    void join();

    /** Aggregate statistics snapshot. */
    ServiceStats stats() const MMGPU_EXCLUDES(statsMutex_);

    /** The bounded health timeseries (oldest first). */
    std::vector<StatsSample> timeseries() const
        MMGPU_EXCLUDES(statsMutex_);

    /** The shard supervisor (tests inspect quarantine/strikes). */
    const ShardSupervisor &supervisor() const { return supervisor_; }

    /**
     * Attach a front-end description (socket path, line cap, write
     * budget) echoed verbatim under "frontend" in stats responses,
     * so `--stats` shows the knobs the daemon actually runs with.
     */
    void setFrontendInfo(JsonValue info)
        MMGPU_EXCLUDES(frontendMutex_);

    /** Service telemetry (serve/... counters and gauges). */
    const telemetry::Telemetry &serviceTelemetry() const
    {
        return tel_;
    }

    /** The underlying runner (tests compare against direct runs). */
    harness::ScalingRunner &runner() { return runner_; }

  private:
    /** Subscribers awaiting one in-flight piece of work. */
    struct InFlight
    {
        std::vector<std::pair<std::string, ResponseCallback>> sinks;
    };

    /** A job plus its routing/accounting context. */
    struct RoutedJob
    {
        Job job;
        std::size_t shard = 0;
    };

    void dispatchLoop();
    void workerLoop(std::size_t shard);
    void housekeepLoop();

    /** Execute one admitted job and fan its response out. */
    void execute(std::size_t shard, const Job &job);

    /**
     * Run the job body inside a PanicScope (a panic unwinds back here
     * instead of aborting the daemon). @return true when the job
     * crashed; @p crash_msg then holds the panic text, otherwise
     * @p response holds the answer.
     */
    bool runGuarded(std::size_t shard, const Job &job,
                    Response &response, std::string &crash_msg);

    /** Injected chaos: panic when the fault plan targets this job. */
    void maybeInjectCrash(std::uint64_t job_index,
                          const Request &request);

    /**
     * Supervised crash recovery: consult the supervisor, re-queue
     * or poison, and sleep the shard's restart backoff. The job's
     * sinks stay attached on re-queue — server-side recovery is
     * invisible to clients.
     */
    void crashRecover(std::size_t shard, const Job &job,
                      const std::string &crash_msg);

    /** Detach and answer every sink of @p identity with @p response
     *  (each sink sees its own request id). */
    void answerSinks(std::uint64_t identity, const Response &response)
        MMGPU_EXCLUDES(inflightMutex_);

    /** Run/Study bodies; @p cancel is the shard watchdog flag. */
    Response executeRun(const Request &request,
                        const std::atomic<bool> *cancel);
    Response executeStudy(const Request &request,
                          const std::atomic<bool> *cancel);
    Response statsResponse(const std::string &id);
    Response profResponse(const std::string &id);

    /** Record an admission->response latency observation. */
    void recordLatency(double ms) MMGPU_EXCLUDES(statsMutex_);

    double cacheHitRate() const;
    std::size_t busyShardCount() const;

    const ServeOptions options_;
    const harness::StudyContext &context_;
    harness::ScalingRunner runner_;
    AdmissionQueue queue_;
    Router router_;
    ShardSupervisor supervisor_;
    CircuitBreaker breaker_;
    telemetry::Telemetry tel_;

    // Chaos accounting: global job/dispatch indices for the
    // counter-driven serve fault knobs (1-based; see ServeFaultSpec).
    std::atomic<std::uint64_t> jobsExecuted_{0};
    std::atomic<std::uint64_t> jobsDispatched_{0};
    std::atomic<bool> dispatcherStalled_{false};

    // In-flight dedup table, keyed on Request::workIdentity().
    // Lock order: the dedup lock is outermost — telemetry updates
    // nest inside it on the attach-or-admit path.
    mutable sync::Mutex inflightMutex_
        MMGPU_ACQUIRED_BEFORE(telMutex_);
    std::map<std::uint64_t, InFlight> inflight_
        MMGPU_GUARDED_BY(inflightMutex_);

    // Per-shard feed queues (dispatcher -> worker).
    struct ShardQueue
    {
        sync::Mutex mutex;
        sync::ConditionVariable cv MMGPU_GUARDED_BY(mutex);
        std::deque<RoutedJob> jobs MMGPU_GUARDED_BY(mutex);
        bool closed MMGPU_GUARDED_BY(mutex) = false;
    };
    std::vector<std::unique_ptr<ShardQueue>> shardQueues_;

    // Shard prefetch-slot occupancy (slotMutex_). The dispatcher
    // delivers only to shards with a free slot — one full shard must
    // not block delivery to idle ones — and waits on slotCv_ only
    // when every slot is taken; workers signal as they drain.
    sync::Mutex slotMutex_;
    sync::ConditionVariable slotCv_ MMGPU_GUARDED_BY(slotMutex_);
    std::vector<std::size_t> shardPending_
        MMGPU_GUARDED_BY(slotMutex_);

    // Per-shard job timers ("serve/shard<N>" profiler sites).
    // Sampled unconditionally — shard job-time aggregates are cheap
    // (one clock pair per job, not per event) and the stats/prof
    // verbs report them whether or not MMGPU_PROFILE is set.
    std::vector<prof::Site *> shardSites_;

    // Per-shard watchdog state: busySinceMs_ == 0 means idle.
    // generation_ stamps job epochs (bumped at job start and end) so
    // the watchdog only cancels the job it actually observed as
    // over-budget, never a fresh one that took the shard since.
    std::vector<std::unique_ptr<std::atomic<std::int64_t>>> busySinceMs_;
    std::vector<std::unique_ptr<std::atomic<bool>>> cancel_;
    std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> generation_;

    // Health timeseries + latency ring (statsMutex_).
    mutable sync::Mutex statsMutex_;
    std::deque<StatsSample> samples_ MMGPU_GUARDED_BY(statsMutex_);
    std::vector<double> latencyRing_ MMGPU_GUARDED_BY(statsMutex_);
    std::size_t latencyNext_ MMGPU_GUARDED_BY(statsMutex_) = 0;
    std::uint64_t latencyCount_ MMGPU_GUARDED_BY(statsMutex_) = 0;

    // Cached telemetry handles (registered in the constructor).
    telemetry::Counter *cAccepted_ = nullptr;
    telemetry::Counter *cRejected_ = nullptr;
    telemetry::Counter *cCompleted_ = nullptr;
    telemetry::Counter *cFailed_ = nullptr;
    telemetry::Counter *cDedup_ = nullptr;
    telemetry::Counter *cSims_ = nullptr;
    telemetry::Counter *cCrashes_ = nullptr;
    telemetry::Counter *cPoisonedAnswers_ = nullptr;
    telemetry::Gauge *gQueueDepth_ = nullptr;
    telemetry::Gauge *gInflight_ = nullptr;
    telemetry::Gauge *gBusyShards_ = nullptr;
    telemetry::Gauge *gHitRate_ = nullptr;
    mutable sync::Mutex telMutex_; //!< guards all counter/gauge
                                   //!< updates (through the cached
                                   //!< pointers above, so the fields
                                   //!< themselves stay const-ish)

    // Front-end self-description (frontendMutex_); see
    // setFrontendInfo().
    mutable sync::Mutex frontendMutex_;
    JsonValue frontendInfo_ MMGPU_GUARDED_BY(frontendMutex_);

    std::thread dispatcher_;
    std::vector<std::thread> workers_;
    std::thread housekeeper_;
    std::atomic<bool> shutdown_{false};
    std::atomic<bool> stopHousekeeper_{false};
    sync::Mutex shutdownMutex_;
    sync::ConditionVariable shutdownCv_
        MMGPU_GUARDED_BY(shutdownMutex_);
    bool started_ = false;
    bool joined_ = false;
};

} // namespace mmgpu::serve

#endif // MMGPU_SERVE_SERVICE_HH
