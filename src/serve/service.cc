#include "serve/service.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/wallclock.hh"
#include "trace/workloads.hh"

namespace mmgpu::serve
{

namespace
{

/** Circuit-breaker request classes: run-shaped vs. study-shaped. */
constexpr std::size_t breakerClasses = 2;

std::size_t
breakerClassOf(RequestType type)
{
    return type == RequestType::Study ? 1 : 0;
}

/**
 * Server-side failure classification: errors the *service* owns
 * (timeouts, crashes, injected faults, internal bugs) feed the
 * circuit breaker as failures; client mistakes (bad config, parse
 * errors) count as successes.
 */
bool
serverSideFailure(const Response &response)
{
    if (response.status != ResponseStatus::Error)
        return false;
    switch (response.code) {
      case ErrCode::Timeout:
      case ErrCode::InjectedFault:
      case ErrCode::Internal:
      case ErrCode::Unavailable:
        return true;
      default:
        return false;
    }
}

/** Latency observations retained for the percentile estimates. */
constexpr std::size_t latencyRingCap = 1024;

/** Watchdog / housekeeping poll granularity. */
constexpr std::int64_t pollMs = 50;

/**
 * Jobs a shard may hold beyond the one it is running. Kept at 1 so
 * the *admission* queue is where work waits: its depth bound stays
 * the real backpressure limit, and a job's priority keeps mattering
 * until the moment a shard can actually take it.
 */
constexpr std::size_t shardPendingCap = 1;

/** @p q-th percentile (0..1) of @p values; 0 when empty. */
double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(values.size() - 1) + 0.5);
    rank = std::min(rank, values.size() - 1);
    std::nth_element(values.begin(), values.begin() + rank,
                     values.end());
    return values[rank];
}

} // namespace

namespace
{

AdmissionOptions
admissionOptionsFor(const ServeOptions &options)
{
    AdmissionOptions admission;
    admission.maxDepth = options.queueDepth;
    admission.quotaRatePerSec = options.quotaRatePerSec;
    admission.quotaBurst = options.quotaBurst;
    admission.shedWatermark = options.shedWatermark;
    return admission;
}

} // namespace

SimService::SimService(const ServeOptions &options,
                       const harness::StudyContext &context)
    : options_(options), context_(context), runner_(context),
      queue_(admissionOptionsFor(options)),
      router_(options.shards, options.routerSlack),
      supervisor_(options.supervisor),
      breaker_(breakerClasses, options.breaker),
      tel_(telemetry::TelemetryConfig{})
{
    mmgpu_assert(options.shards > 0, "service needs >= 1 shard");
    shardPending_.assign(options.shards, 0);
    for (std::size_t i = 0; i < options.shards; ++i) {
        shardSites_.push_back(
            prof::dynamicSite("serve/shard" + std::to_string(i)));
        shardQueues_.push_back(std::make_unique<ShardQueue>());
        busySinceMs_.push_back(
            std::make_unique<std::atomic<std::int64_t>>(0));
        cancel_.push_back(
            std::make_unique<std::atomic<bool>>(false));
        generation_.push_back(
            std::make_unique<std::atomic<std::uint64_t>>(0));
    }
    telemetry::CounterRegistry &reg = tel_.counters();
    cAccepted_ = &reg.counter("serve/accepted");
    cRejected_ = &reg.counter("serve/rejected");
    cCompleted_ = &reg.counter("serve/completed");
    cFailed_ = &reg.counter("serve/failed");
    cDedup_ = &reg.counter("serve/dedup_attached");
    cSims_ = &reg.counter("serve/sims_started");
    cCrashes_ = &reg.counter("serve/shard_crashes");
    cPoisonedAnswers_ = &reg.counter("serve/poisoned_answers");
    gQueueDepth_ = &reg.gauge("serve/queue_depth");
    gInflight_ = &reg.gauge("serve/inflight");
    gBusyShards_ = &reg.gauge("serve/busy_shards");
    gHitRate_ = &reg.gauge("serve/cache_hit_rate");
}

SimService::~SimService()
{
    beginShutdown();
    join();
}

void
SimService::start()
{
    mmgpu_assert(!started_, "SimService::start() called twice");
    started_ = true;

    if (harness::RunCache *cache = runner_.persistentCache()) {
        double seconds = options_.cacheFlushSec > 0.0
                             ? options_.cacheFlushSec
                             : harness::RunCache::
                                   autoFlushSecondsFromEnv();
        if (seconds > 0.0)
            cache->startAutoFlush(seconds);
    }

    dispatcher_ = std::thread([this] { dispatchLoop(); });
    for (std::size_t i = 0; i < options_.shards; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
    housekeeper_ = std::thread([this] { housekeepLoop(); });
}

void
SimService::submit(Request request, ResponseCallback done)
{
    switch (request.type) {
      case RequestType::Ping: {
        JsonValue result = JsonValue::object();
        result.set("pong", true);
        done(Response::ok(request.id, std::move(result)));
        return;
      }
      case RequestType::Stats:
        done(statsResponse(request.id));
        return;
      case RequestType::Prof:
        done(profResponse(request.id));
        return;
      case RequestType::Shutdown: {
        JsonValue result = JsonValue::object();
        result.set("stopping", true);
        done(Response::ok(request.id, std::move(result)));
        beginShutdown();
        return;
      }
      case RequestType::Run:
      case RequestType::Study:
        break;
      default:
        done(Response::error(
            request.id,
            SimError::internal("unhandled request type")));
        return;
    }

    const std::uint64_t identity = request.workIdentity();
    const std::string id = request.id;

    // Quarantined work killed a shard maxStrikes times already; a
    // fourth simulation attempt is how outages start. Answer with
    // the dedicated Poisoned code so clients know not to retry.
    if (supervisor_.quarantined(identity)) {
        {
            std::lock_guard<sync::Mutex> tlock(telMutex_);
            cPoisonedAnswers_->add();
        }
        done(Response::error(
            id, SimError::poisoned(
                    "work quarantined after repeated shard "
                    "crashes")));
        return;
    }

    // An open circuit means this request class is currently failing
    // server-side; shed instead of feeding the failure.
    std::size_t cls = breakerClassOf(request.type);
    std::int64_t breaker_now = wallclock::nowMs();
    if (breaker_.open(cls, static_cast<std::uint64_t>(breaker_now))) {
        {
            std::lock_guard<sync::Mutex> tlock(telMutex_);
            cRejected_->add();
        }
        done(Response::rejected(
            id,
            std::string("circuit open for ") +
                requestTypeName(request.type) + " requests",
            breaker_.retryAfterMs(
                cls, static_cast<std::uint64_t>(breaker_now))));
        return;
    }

    Admit admit = Admit::Accepted;
    std::uint64_t retry_after_ms = 0;
    {
        // One lock spans the attach-or-admit decision so a duplicate
        // arriving between "no entry" and "queued" cannot slip
        // through and simulate twice.
        std::lock_guard<sync::Mutex> lock(inflightMutex_);
        auto it = inflight_.find(identity);
        if (it != inflight_.end()) {
            it->second.sinks.emplace_back(id, std::move(done));
            std::lock_guard<sync::Mutex> tlock(telMutex_);
            cDedup_->add();
            return;
        }
        admit = queue_.tryPush(std::move(request), wallclock::nowMs(),
                               &retry_after_ms);
        if (admit == Admit::Accepted)
            inflight_[identity].sinks.emplace_back(id,
                                                   std::move(done));
    }
    if (admit == Admit::Accepted) {
        std::lock_guard<sync::Mutex> tlock(telMutex_);
        cAccepted_->add();
        return;
    }
    {
        std::lock_guard<sync::Mutex> tlock(telMutex_);
        cRejected_->add();
    }
    const char *reason = "admission queue is full";
    switch (admit) {
      case Admit::Stopped:
        reason = "service is shutting down";
        break;
      case Admit::QuotaExceeded:
        reason = "client quota exceeded";
        break;
      case Admit::Shedding:
        reason = "service overloaded; low-priority work shed";
        break;
      default:
        break;
    }
    done(Response::rejected(id, reason, retry_after_ms));
}

void
SimService::submitLine(const std::string &line, ResponseCallback done,
                       const std::string &default_client)
{
    Result<Request> parsed = parseRequest(line);
    if (!parsed.ok()) {
        done(Response::error(parseRequestId(line), parsed.error()));
        return;
    }
    if (parsed.value().client.empty())
        parsed.value().client = default_client;
    submit(std::move(parsed.value()), std::move(done));
}

Response
SimService::call(Request request)
{
    sync::Mutex mutex;
    sync::ConditionVariable cv;
    bool ready = false;
    Response out;
    submit(std::move(request), [&](const Response &response) {
        std::lock_guard<sync::Mutex> lock(mutex);
        out = response;
        ready = true;
        cv.notify_one();
    });
    std::unique_lock<sync::Mutex> lock(mutex);
    cv.wait(lock, [&] { return ready; });
    return out;
}

void
SimService::beginShutdown()
{
    if (shutdown_.exchange(true))
        return;
    queue_.stop();
    // Notify under the mutex waitShutdown() checks its predicate
    // with: a bare notify can land between that check and the block
    // and be lost, hanging the daemon's run loop forever.
    {
        std::lock_guard<sync::Mutex> lock(shutdownMutex_);
        shutdownCv_.notify_all();
    }
}

void
SimService::waitShutdown()
{
    std::unique_lock<sync::Mutex> lock(shutdownMutex_);
    shutdownCv_.wait(lock, [this] { return shutdown_.load(); });
}

void
SimService::join()
{
    if (!started_ || joined_)
        return;
    joined_ = true;
    if (dispatcher_.joinable())
        dispatcher_.join();
    for (std::thread &worker : workers_)
        if (worker.joinable())
            worker.join();
    stopHousekeeper_.store(true);
    if (housekeeper_.joinable())
        housekeeper_.join();

    // Every queued job has now drained. Defensive sweep: any sink
    // still attached (a crash re-queue that raced shutdown) gets an
    // Unavailable answer — a submitted request is answered exactly
    // once, even across a dying service.
    std::vector<std::uint64_t> leftover;
    {
        std::lock_guard<sync::Mutex> lock(inflightMutex_);
        for (const auto &[identity, entry] : inflight_)
            leftover.push_back(identity);
    }
    for (std::uint64_t identity : leftover) {
        answerSinks(identity,
                    Response::error(
                        std::string(),
                        SimError::unavailable(
                            "service shut down before the work "
                            "could run")));
    }

    // Stop ordering (shards drained above, socket closed by the
    // owner after we return): final cache flush *before* the daemon
    // exits, so the snapshot is complete and the WAL truncates to
    // empty — a restart replays nothing and loses nothing.
    if (harness::RunCache *cache = runner_.persistentCache()) {
        cache->stopAutoFlush();
        cache->flush();
    }
}

void
SimService::dispatchLoop()
{
    while (std::optional<Job> job = queue_.pop()) {
        // Injected chaos: stall the dispatcher once, right before
        // delivering job N. Clients see latency, never errors — the
        // admission queue absorbs the backlog.
        std::uint64_t dispatched = jobsDispatched_.fetch_add(1) + 1;
        if (options_.faultPlan != nullptr) {
            const fault::ServeFaultSpec &serve =
                options_.faultPlan->serve;
            if (serve.dispatcherStallAtJob != 0 &&
                dispatched == serve.dispatcherStallAtJob &&
                !dispatcherStalled_.exchange(true)) {
                warn("serve: injected dispatcher stall (",
                     serve.dispatcherStallMs, " ms)");
                wallclock::sleepMs(static_cast<std::int64_t>(
                    serve.dispatcherStallMs));
            }
        }
        // Route only over shards with a free prefetch slot, so one
        // full shard never head-of-line-blocks delivery to idle
        // ones (affinity then degrades to balance, which is the
        // right trade: a warm machine is worth queueing slack, not
        // starving the rest of the fleet). Block only when *every*
        // slot is taken — then the admission queue really is the
        // place work waits.
        std::size_t shard = 0;
        {
            std::unique_lock<sync::Mutex> lock(slotMutex_);
            std::vector<std::uint8_t> open(options_.shards, 0);
            slotCv_.wait(lock, [&] {
                bool any = false;
                for (std::size_t i = 0; i < options_.shards; ++i) {
                    open[i] =
                        shardPending_[i] < shardPendingCap ? 1 : 0;
                    any = any || open[i] != 0;
                }
                return any;
            });
            shard = router_.route(
                job->request.spec.machineIdentity(), &open);
            ++shardPending_[shard];
        }
        RoutedJob routed;
        routed.job = std::move(*job);
        routed.shard = shard;
        ShardQueue &sq = *shardQueues_[shard];
        {
            std::lock_guard<sync::Mutex> lock(sq.mutex);
            sq.jobs.push_back(std::move(routed));
            sq.cv.notify_all();
        }
    }
    // Admission stopped and drained: close every shard feed.
    for (auto &sq : shardQueues_) {
        {
            std::lock_guard<sync::Mutex> lock(sq->mutex);
            sq->closed = true;
            sq->cv.notify_all();
        }
    }
}

void
SimService::workerLoop(std::size_t shard)
{
    ShardQueue &sq = *shardQueues_[shard];
    while (true) {
        RoutedJob routed;
        {
            std::unique_lock<sync::Mutex> lock(sq.mutex);
            sq.cv.wait(lock, [&sq] {
                return !sq.jobs.empty() || sq.closed;
            });
            if (sq.jobs.empty())
                return; // closed and drained
            routed = std::move(sq.jobs.front());
            sq.jobs.pop_front();
        }
        {
            // A prefetch slot freed: tell the dispatcher.
            std::lock_guard<sync::Mutex> lock(slotMutex_);
            --shardPending_[shard];
            slotCv_.notify_all();
        }
        execute(shard, routed.job);
    }
}

void
SimService::execute(std::size_t shard, const Job &job)
{
    // New job epoch: the watchdog cancels only against the
    // generation it observed, so a cancel aimed at the previous job
    // cannot land on this one.
    generation_[shard]->fetch_add(1);
    cancel_[shard]->store(false);
    busySinceMs_[shard]->store(wallclock::nowMs());

    std::int64_t job_start_ns = wallclock::nowNs();
    Response response;
    std::string crash_msg;
    bool crashed = runGuarded(shard, job, response, crash_msg);
    auto job_ns = static_cast<std::uint64_t>(wallclock::nowNs() -
                                             job_start_ns);
    shardSites_[shard]->addSample(job_ns, job_ns);

    if (crashed) {
        crashRecover(shard, job, crash_msg);
        return;
    }

    busySinceMs_[shard]->store(0);
    generation_[shard]->fetch_add(1); // idle epoch
    router_.release(shard);

    // Server-side failures (timeout, injected fault, internal error)
    // feed the breaker; client mistakes count as success.
    bool failure = serverSideFailure(response);
    if (!failure)
        supervisor_.onHealthy(static_cast<unsigned>(shard));
    breaker_.record(
        breakerClassOf(job.request.type), !failure,
        static_cast<std::uint64_t>(wallclock::nowMs()));

    std::int64_t served_ms = wallclock::nowMs() - job.admittedMs;
    queue_.noteServiced(served_ms);

    std::vector<std::pair<std::string, ResponseCallback>> sinks;
    {
        std::lock_guard<sync::Mutex> lock(inflightMutex_);
        auto it = inflight_.find(job.request.workIdentity());
        if (it != inflight_.end()) {
            sinks = std::move(it->second.sinks);
            inflight_.erase(it);
        }
    }
    {
        // Count *requests answered*, not jobs executed: every
        // dedup-attached subscriber of this job gets a response.
        std::lock_guard<sync::Mutex> tlock(telMutex_);
        if (response.status == ResponseStatus::Ok)
            cCompleted_->add(static_cast<double>(sinks.size()));
        else
            cFailed_->add(static_cast<double>(sinks.size()));
    }
    recordLatency(static_cast<double>(served_ms));
    for (auto &[sink_id, sink] : sinks) {
        Response copy = response;
        copy.id = sink_id;
        sink(copy);
    }
}

bool
SimService::runGuarded(std::size_t shard, const Job &job,
                       Response &response, std::string &crash_msg)
{
    try {
        PanicScope supervised;
        std::uint64_t job_index = jobsExecuted_.fetch_add(1) + 1;
        maybeInjectCrash(job_index, job.request);
        response = job.request.type == RequestType::Run
                       ? executeRun(job.request, cancel_[shard].get())
                       : executeStudy(job.request,
                                      cancel_[shard].get());
        return false;
    } catch (const Panic &panic) {
        crash_msg = panic.message;
        return true;
    }
}

void
SimService::maybeInjectCrash(std::uint64_t job_index,
                             const Request &request)
{
    if (options_.faultPlan == nullptr)
        return;
    const fault::ServeFaultSpec &serve = options_.faultPlan->serve;
    if (serve.shardCrashEveryJobs != 0 &&
        job_index % serve.shardCrashEveryJobs == 0) {
        mmgpu_panic("injected serve chaos: shard crash at job ",
                    job_index);
    }
    if (!serve.crashPoints.empty() &&
        fault::HarnessFaultSpec::matches(serve.crashPoints,
                                         request.spec.config().name,
                                         request.spec.workload)) {
        mmgpu_panic("injected serve chaos: crash point '",
                    request.spec.workload, "'");
    }
}

void
SimService::crashRecover(std::size_t shard, const Job &job,
                         const std::string &crash_msg)
{
    busySinceMs_[shard]->store(0);
    generation_[shard]->fetch_add(1); // idle epoch
    router_.release(shard);

    const std::uint64_t identity = job.request.workIdentity();
    ShardSupervisor::Outcome outcome = supervisor_.onCrash(
        static_cast<unsigned>(shard), identity, crash_msg,
        static_cast<std::uint64_t>(wallclock::nowMs()));
    {
        std::lock_guard<sync::Mutex> tlock(telMutex_);
        cCrashes_->add();
    }
    breaker_.record(breakerClassOf(job.request.type), false,
                    static_cast<std::uint64_t>(wallclock::nowMs()));
    warn("serve: shard ", shard, " crashed (strike ", outcome.strike,
         "): ", crash_msg);

    bool answered = false;
    if (outcome.verdict == CrashVerdict::Requeue) {
        // Transparent retry: the sinks stay attached under the work
        // identity, so when the re-queued job completes on a healthy
        // shard the clients get their answers as if nothing died.
        Job retry = job;
        if (!queue_.requeue(std::move(retry))) {
            // Shutting down: nothing will run it; answer now.
            answerSinks(identity,
                        Response::error(
                            job.request.id,
                            SimError::unavailable(
                                "shard crashed during shutdown: " +
                                crash_msg)));
            answered = true;
        }
    } else {
        {
            std::lock_guard<sync::Mutex> tlock(telMutex_);
            cPoisonedAnswers_->add();
        }
        answerSinks(identity,
                    Response::error(
                        job.request.id,
                        SimError::poisoned(
                            "work quarantined after " +
                            std::to_string(outcome.strike) +
                            " shard crashes: " + crash_msg)));
        answered = true;
    }
    if (answered) {
        recordLatency(static_cast<double>(wallclock::nowMs() -
                                          job.admittedMs));
    }

    // The logical shard restart: sleep the supervisor-assigned
    // backoff before taking more work, so a crash-looping shard
    // cannot burn the machine pool at full speed.
    wallclock::sleepMs(static_cast<std::int64_t>(outcome.backoffMs));
}

void
SimService::answerSinks(std::uint64_t identity,
                        const Response &response)
{
    std::vector<std::pair<std::string, ResponseCallback>> sinks;
    {
        std::lock_guard<sync::Mutex> lock(inflightMutex_);
        auto it = inflight_.find(identity);
        if (it != inflight_.end()) {
            sinks = std::move(it->second.sinks);
            inflight_.erase(it);
        }
    }
    {
        std::lock_guard<sync::Mutex> tlock(telMutex_);
        cFailed_->add(static_cast<double>(sinks.size()));
    }
    for (auto &[sink_id, sink] : sinks) {
        Response copy = response;
        copy.id = sink_id;
        sink(copy);
    }
}

Response
SimService::executeRun(const Request &request,
                       const std::atomic<bool> *cancel)
{
    const RunSpec &spec = request.spec;
    sim::GpuConfig config = spec.config();
    if (Result<void> check = config.check(); !check.ok())
        return Response::error(request.id, check.error());
    std::optional<trace::KernelProfile> profile =
        trace::findWorkload(spec.workload);
    if (!profile) {
        return Response::error(
            request.id, SimError::config("unknown workload '" +
                                         spec.workload + "'"));
    }
    if (!runner_.cached(config, *profile, spec.linkEnergyScale,
                        spec.constGrowthOverride)) {
        std::lock_guard<sync::Mutex> tlock(telMutex_);
        cSims_->add();
    }
    Result<const harness::RunOutcome *> outcome = runner_.tryRun(
        config, *profile, spec.linkEnergyScale,
        spec.constGrowthOverride, cancel);
    if (!outcome.ok())
        return Response::error(request.id, outcome.error());
    return Response::ok(request.id, encodeOutcome(*outcome.value()));
}

Response
SimService::executeStudy(const Request &request,
                         const std::atomic<bool> *cancel)
{
    const RunSpec &spec = request.spec;
    sim::GpuConfig config = spec.config();
    if (Result<void> check = config.check(); !check.ok())
        return Response::error(request.id, check.error());

    std::vector<trace::KernelProfile> workloads;
    if (spec.workload == "all") {
        workloads = trace::scalingWorkloads();
    } else {
        std::optional<trace::KernelProfile> profile =
            trace::findWorkload(spec.workload);
        if (!profile) {
            return Response::error(
                request.id, SimError::config("unknown workload '" +
                                             spec.workload + "'"));
        }
        workloads.push_back(std::move(*profile));
    }

    // Pre-run every point through the error-isolating tryRun() path
    // so one poisoned point yields an error *response* instead of
    // killing the daemon inside scalingStudy()'s fatal-on-error
    // aggregation. Afterwards scalingStudy() reads pure memo hits,
    // so its aggregation is bit-identical to the in-process path.
    const sim::GpuConfig baseline = sim::baselineConfig();
    for (const trace::KernelProfile &profile : workloads) {
        if (!runner_.cached(baseline, profile)) {
            std::lock_guard<sync::Mutex> tlock(telMutex_);
            cSims_->add();
        }
        Result<const harness::RunOutcome *> one =
            runner_.tryRun(baseline, profile, 1.0, -1.0, cancel);
        if (!one.ok())
            return Response::error(request.id, one.error());
        if (!runner_.cached(config, profile, spec.linkEnergyScale,
                            spec.constGrowthOverride)) {
            std::lock_guard<sync::Mutex> tlock(telMutex_);
            cSims_->add();
        }
        Result<const harness::RunOutcome *> scaled = runner_.tryRun(
            config, profile, spec.linkEnergyScale,
            spec.constGrowthOverride, cancel);
        if (!scaled.ok())
            return Response::error(request.id, scaled.error());
    }

    std::vector<harness::ScalingPoint> points = harness::scalingStudy(
        runner_, config, workloads, spec.linkEnergyScale,
        spec.constGrowthOverride);
    return Response::ok(request.id, encodeStudy(config, points));
}

Response
SimService::statsResponse(const std::string &id)
{
    ServiceStats s = stats();
    JsonValue doc = JsonValue::object();
    doc.set("accepted", s.accepted);
    doc.set("rejected", s.rejected);
    doc.set("completed", s.completed);
    doc.set("failed", s.failed);
    doc.set("dedup-attached", s.dedupAttached);
    doc.set("sims-started", s.simulationsStarted);
    doc.set("affinity-hits", s.affinityHits);
    doc.set("queue-depth", s.queueDepth);
    doc.set("inflight", s.inflight);
    doc.set("busy-shards", s.busyShards);
    doc.set("shards", s.shards);
    doc.set("cache-hit-rate", s.cacheHitRate);
    doc.set("latency-p50-ms", s.latencyP50Ms);
    doc.set("latency-p95-ms", s.latencyP95Ms);
    doc.set("quota-rejected", s.quotaRejected);
    doc.set("shed", s.shed);
    doc.set("crashes", s.crashes);
    doc.set("requeues", s.requeues);
    doc.set("poisonings", s.poisonings);
    doc.set("quarantined", s.quarantined);
    doc.set("breaker-trips", s.breakerTrips);
    JsonValue series = JsonValue::array();
    for (const StatsSample &sample : timeseries()) {
        JsonValue p = JsonValue::object();
        p.set("t-ms", static_cast<long long>(sample.tMs));
        p.set("queue-depth", sample.queueDepth);
        p.set("busy-shards", sample.busyShards);
        p.set("inflight", sample.inflight);
        p.set("cache-hit-rate", sample.cacheHitRate);
        p.set("crashes", sample.crashes);
        series.push(std::move(p));
    }
    doc.set("timeseries", std::move(series));
    // Last few supervision events, so an operator can see *what*
    // crashed and what the supervisor did about it.
    JsonValue events = JsonValue::array();
    for (const SupervisorEvent &event : supervisor_.events()) {
        JsonValue e = JsonValue::object();
        e.set("t-ms", static_cast<double>(event.wallMs));
        e.set("shard", event.shard);
        e.set("strike", event.strike);
        e.set("verdict", event.verdict == CrashVerdict::Poison
                             ? "poison"
                             : "requeue");
        e.set("message", event.message);
        events.push(std::move(e));
    }
    doc.set("supervisor-events", std::move(events));
    {
        std::lock_guard<sync::Mutex> lock(frontendMutex_);
        if (frontendInfo_.isObject())
            doc.set("frontend", frontendInfo_);
    }
    // Per-shard job-time aggregates from the profiler's
    // "serve/shard<N>" sites (sampled unconditionally in execute()).
    JsonValue shards = JsonValue::object();
    for (const prof::SiteSnapshot &site : prof::snapshot()) {
        if (site.label.rfind("serve/shard", 0) != 0)
            continue;
        JsonValue one = JsonValue::object();
        one.set("jobs", site.calls);
        one.set("busy-ms",
                static_cast<double>(site.inclusiveNs) / 1.0e6);
        shards.set(site.label, std::move(one));
    }
    doc.set("prof-shards", std::move(shards));
    return Response::ok(id, std::move(doc));
}

Response
SimService::profResponse(const std::string &id)
{
    JsonValue doc = JsonValue::object();
    doc.set("profiling-enabled", prof::enabled());
    JsonValue sites = JsonValue::array();
    for (const prof::SiteSnapshot &site : prof::snapshot()) {
        JsonValue one = JsonValue::object();
        one.set("label", site.label);
        one.set("calls", site.calls);
        one.set("inclusive-ns", site.inclusiveNs);
        one.set("exclusive-ns", site.exclusiveNs);
        if (site.count != 0)
            one.set("count", site.count);
        sites.push(std::move(one));
    }
    doc.set("sites", std::move(sites));
    return Response::ok(id, std::move(doc));
}

void
SimService::recordLatency(double ms)
{
    std::lock_guard<sync::Mutex> lock(statsMutex_);
    if (latencyRing_.size() < latencyRingCap)
        latencyRing_.push_back(ms);
    else
        latencyRing_[latencyNext_ % latencyRingCap] = ms;
    ++latencyNext_;
    ++latencyCount_;
}

double
SimService::cacheHitRate() const
{
    harness::RunCache *cache = runner_.persistentCache();
    if (cache == nullptr)
        return 0.0;
    double hits = static_cast<double>(cache->hits());
    double misses = static_cast<double>(cache->misses());
    double total = hits + misses;
    return total > 0.0 ? hits / total : 0.0;
}

std::size_t
SimService::busyShardCount() const
{
    std::size_t busy = 0;
    for (const auto &since : busySinceMs_)
        if (since->load() != 0)
            ++busy;
    return busy;
}

ServiceStats
SimService::stats() const
{
    ServiceStats s;
    {
        std::lock_guard<sync::Mutex> tlock(telMutex_);
        s.accepted = static_cast<std::uint64_t>(cAccepted_->value);
        s.rejected = static_cast<std::uint64_t>(cRejected_->value);
        s.completed = static_cast<std::uint64_t>(cCompleted_->value);
        s.failed = static_cast<std::uint64_t>(cFailed_->value);
        s.dedupAttached = static_cast<std::uint64_t>(cDedup_->value);
        s.simulationsStarted =
            static_cast<std::uint64_t>(cSims_->value);
    }
    s.affinityHits = router_.affinityHits();
    s.queueDepth = queue_.depth();
    {
        std::lock_guard<sync::Mutex> lock(inflightMutex_);
        s.inflight = inflight_.size();
    }
    s.busyShards = busyShardCount();
    s.shards = options_.shards;
    s.cacheHitRate = cacheHitRate();
    {
        std::lock_guard<sync::Mutex> lock(statsMutex_);
        s.latencyP50Ms = percentile(latencyRing_, 0.50);
        s.latencyP95Ms = percentile(latencyRing_, 0.95);
    }
    s.quotaRejected = queue_.quotaRejected();
    s.shed = queue_.shedRejected();
    SupervisorStats sup = supervisor_.stats();
    s.crashes = sup.crashes;
    s.requeues = sup.requeues;
    s.poisonings = sup.poisonings;
    s.quarantined = sup.quarantined;
    s.breakerTrips = breaker_.trips();
    return s;
}

void
SimService::setFrontendInfo(JsonValue info)
{
    std::lock_guard<sync::Mutex> lock(frontendMutex_);
    frontendInfo_ = std::move(info);
}

std::vector<StatsSample>
SimService::timeseries() const
{
    std::lock_guard<sync::Mutex> lock(statsMutex_);
    return {samples_.begin(), samples_.end()};
}

void
SimService::housekeepLoop()
{
    std::int64_t lastSample = wallclock::nowMs();
    while (!stopHousekeeper_.load()) {
        wallclock::sleepMs(pollMs);

        // Watchdog: cancel any shard stuck past its budget. tryRun
        // polls the flag at its cooperative points (injected hangs),
        // so a hung point comes back as a timeout error response and
        // the shard moves on — blast radius is one request.
        if (options_.watchdogSeconds > 0.0) {
            std::int64_t now = wallclock::nowMs();
            std::int64_t budget = static_cast<std::int64_t>(
                options_.watchdogSeconds * 1000.0);
            for (std::size_t i = 0; i < busySinceMs_.size(); ++i) {
                std::uint64_t gen = generation_[i]->load();
                std::int64_t since = busySinceMs_[i]->load();
                if (since == 0 || now - since <= budget)
                    continue;
                if (generation_[i]->load() != gen)
                    continue; // job turned over mid-observation
                cancel_[i]->store(true);
                // If a fresh job slipped in between the check and
                // the store, retract: a job milliseconds old cannot
                // be over budget, and it will be re-judged against
                // its own epoch on a later tick.
                if (generation_[i]->load() != gen)
                    cancel_[i]->store(false);
            }
        }

        std::int64_t now = wallclock::nowMs();
        if (now - lastSample < options_.sampleMs)
            continue;
        lastSample = now;

        StatsSample sample;
        sample.tMs = now;
        sample.queueDepth = queue_.depth();
        sample.busyShards = busyShardCount();
        {
            std::lock_guard<sync::Mutex> lock(inflightMutex_);
            sample.inflight = inflight_.size();
        }
        sample.cacheHitRate = cacheHitRate();
        sample.crashes = supervisor_.stats().crashes;
        {
            std::lock_guard<sync::Mutex> lock(statsMutex_);
            samples_.push_back(sample);
            while (samples_.size() > options_.timeseriesCap)
                samples_.pop_front();
        }
        {
            std::lock_guard<sync::Mutex> tlock(telMutex_);
            gQueueDepth_->set(
                static_cast<double>(sample.queueDepth));
            gInflight_->set(static_cast<double>(sample.inflight));
            gBusyShards_->set(
                static_cast<double>(sample.busyShards));
            gHitRate_->set(sample.cacheHitRate);
        }
    }
}

} // namespace mmgpu::serve
