/**
 * @file
 * Tests for the SimService engine and its socket front end:
 * bit-identity of served results against direct in-process
 * execution, in-flight dedup (one simulation per work identity),
 * bounded-queue backpressure, shard rerouting around a hung point,
 * admission/router unit behavior, and live-socket fuzz — a daemon
 * fed garbage must answer with error lines, not die.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/wallclock.hh"
#include "fault/fault_plan.hh"
#include "serve/admission.hh"
#include "serve/client.hh"
#include "serve/router.hh"
#include "serve/service.hh"
#include "serve/socket_server.hh"
#include "trace/workloads.hh"

namespace
{

using namespace mmgpu;
using namespace mmgpu::serve;

/** Shared context: calibration runs once for the whole suite. */
harness::StudyContext &
context()
{
    static harness::StudyContext instance;
    return instance;
}

/** A service isolated from the process-wide persistent cache. */
struct ServiceFixture
{
    explicit ServiceFixture(ServeOptions options = {})
        : service(options, context())
    {
        service.runner().attachPersistentCache(nullptr);
        service.start();
    }

    SimService service;
};

/**
 * Attaches a fault plan to a service's runner for one scope. The
 * destructor detaches it, which releases every injected hang at
 * once, so a failed ASSERT cannot leave a shard hung for the plan's
 * whole window while the fixture's join() waits on it. Declare it
 * after the plan, so the plan outlives the attachment.
 */
class PlanAttachment
{
  public:
    PlanAttachment(SimService &service, const fault::FaultPlan &plan)
        : runner_(service.runner())
    {
        runner_.setFaultPlan(&plan);
    }
    ~PlanAttachment() { detach(); }

    PlanAttachment(const PlanAttachment &) = delete;
    PlanAttachment &operator=(const PlanAttachment &) = delete;

    /** Release every injected hang now. */
    void detach() { runner_.setFaultPlan(nullptr); }

  private:
    harness::ScalingRunner &runner_;
};

/** Block (bounded) until @p service has a shard mid-job. */
bool
waitUntilBusy(SimService &service)
{
    const std::int64_t deadline = wallclock::nowMs() + 5000;
    while (service.stats().busyShards == 0 &&
           wallclock::nowMs() < deadline)
        wallclock::sleepMs(10);
    return service.stats().busyShards > 0;
}

Request
runRequest(const std::string &workload, unsigned gpms,
           const std::string &id, int priority = 1)
{
    Request request;
    request.type = RequestType::Run;
    request.id = id;
    request.spec.workload = workload;
    request.spec.gpms = gpms;
    request.priority = priority;
    return request;
}

TEST(ServeService, PingAndStatsAnswerInline)
{
    ServiceFixture fixture;
    Request ping;
    ping.type = RequestType::Ping;
    ping.id = "p1";
    Response response = fixture.service.call(ping);
    EXPECT_EQ(response.status, ResponseStatus::Ok);
    EXPECT_EQ(response.id, "p1");

    Request stats;
    stats.type = RequestType::Stats;
    response = fixture.service.call(stats);
    ASSERT_EQ(response.status, ResponseStatus::Ok);
    EXPECT_NE(response.result.find("queue-depth"), nullptr);
    EXPECT_NE(response.result.find("timeseries"), nullptr);
}

TEST(ServeService, ServedRunIsBitIdenticalToDirectExecution)
{
    ServiceFixture fixture;
    Response served =
        fixture.service.call(runRequest("Stream", 2, "r1"));
    ASSERT_EQ(served.status, ResponseStatus::Ok) << served.message;

    harness::ScalingRunner direct(context());
    direct.attachPersistentCache(nullptr);
    Request request = runRequest("Stream", 2, "r1");
    auto profile = trace::findWorkload("Stream");
    ASSERT_TRUE(profile.has_value());
    Result<const harness::RunOutcome *> outcome =
        direct.tryRun(request.spec.config(), *profile);
    ASSERT_TRUE(outcome.ok());

    // The encoded hexfloat payloads must match byte for byte.
    EXPECT_EQ(served.result.dumpCompact(),
              encodeOutcome(*outcome.value()).dumpCompact());
}

TEST(ServeService, ServedStudyIsBitIdenticalToScalingStudy)
{
    ServiceFixture fixture;
    Request request;
    request.type = RequestType::Study;
    request.id = "s1";
    request.spec.workload = "Stream";
    request.spec.gpms = 2;
    Response served = fixture.service.call(request);
    ASSERT_EQ(served.status, ResponseStatus::Ok) << served.message;

    harness::ScalingRunner direct(context());
    direct.attachPersistentCache(nullptr);
    auto profile = trace::findWorkload("Stream");
    ASSERT_TRUE(profile.has_value());
    std::vector<harness::ScalingPoint> points =
        harness::scalingStudy(direct, request.spec.config(),
                              {*profile});
    EXPECT_EQ(served.result.dumpCompact(),
              encodeStudy(request.spec.config(), points)
                  .dumpCompact());
}

TEST(ServeService, DuplicateRequestsSimulateExactlyOnce)
{
    ServiceFixture fixture;
    // Same work identity five times, distinct ids — whether each
    // lands as a dedup attach or a memo hit depends on timing, but
    // the simulation count must come out 1 either way.
    for (int i = 0; i < 5; ++i) {
        Response response = fixture.service.call(
            runRequest("Kmeans", 2, "dup-" + std::to_string(i)));
        ASSERT_EQ(response.status, ResponseStatus::Ok)
            << response.message;
        EXPECT_EQ(response.id, "dup-" + std::to_string(i));
    }
    ServiceStats stats = fixture.service.stats();
    EXPECT_EQ(stats.simulationsStarted, 1u);
    EXPECT_EQ(stats.completed, 5u);
}

TEST(ServeService, UnknownWorkloadFailsThePointNotTheService)
{
    ServiceFixture fixture;
    Response bad =
        fixture.service.call(runRequest("NoSuchKernel", 2, "b1"));
    EXPECT_EQ(bad.status, ResponseStatus::Error);
    EXPECT_EQ(bad.code, ErrCode::Config);

    Response good =
        fixture.service.call(runRequest("Stream", 2, "g1"));
    EXPECT_EQ(good.status, ResponseStatus::Ok) << good.message;
    EXPECT_EQ(fixture.service.stats().failed, 1u);
}

TEST(ServeService, FullQueueRejectsInsteadOfBlocking)
{
    ServeOptions options;
    options.shards = 1;
    options.queueDepth = 1;

    // Declared before the service: its sinks may still fire while
    // the fixture joins.
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t done = 0;
    std::size_t rejected = 0;
    auto sink = [&](const Response &response) {
        std::lock_guard<std::mutex> lock(mutex);
        ++done;
        if (response.status == ResponseStatus::Rejected)
            ++rejected;
        cv.notify_all();
    };

    ServiceFixture fixture(options);
    fault::FaultPlan plan;
    plan.harness.hangPoints.push_back("BFS");
    plan.harness.hangSeconds = 30.0;
    PlanAttachment attached(fixture.service, plan);

    // Occupy the single shard with a hang, then wait until it is
    // actually running so the flood below meets a busy service.
    fixture.service.submit(runRequest("BFS", 2, "hog"), sink);
    ASSERT_TRUE(waitUntilBusy(fixture.service));

    // Distinct work identities (the energy knob is part of the
    // fingerprint) so none of them dedup-attach. While the hog holds
    // the shard, the pipeline absorbs queueDepth + the shard
    // prefetch slot + one in the dispatcher's hand; eight must
    // overflow it.
    const int flood = 8;
    for (int i = 0; i < flood; ++i) {
        Request request =
            runRequest("Stream", 2, "f" + std::to_string(i), 2);
        request.spec.linkEnergyScale = 1.0 + 0.125 * (i + 1);
        fixture.service.submit(std::move(request), sink);
    }

    // A rejection is answered while the hog still hangs; only then
    // release it and let the admitted work drain.
    {
        std::unique_lock<std::mutex> lock(mutex);
        ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60),
                                [&] { return rejected > 0; }));
    }
    attached.detach();

    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60), [&] {
        return done == flood + 1;
    }));
    EXPECT_GE(rejected, 1u);
    EXPECT_EQ(fixture.service.stats().rejected, rejected);
}

TEST(ServeService, FullShardPrefetchDoesNotStarveIdleShards)
{
    ServeOptions options;
    options.shards = 2;

    // Declared before the service: its sinks may still fire while
    // the fixture joins.
    std::mutex mutex;
    std::condition_variable cv;
    int bfs_done = 0;
    bool probe_done = false;
    int bfs_done_at_probe = -1;
    auto bfs_sink = [&](const Response &) {
        std::lock_guard<std::mutex> lock(mutex);
        ++bfs_done;
        cv.notify_all();
    };

    ServiceFixture fixture(options);
    fault::FaultPlan plan;
    plan.harness.hangPoints.push_back("BFS");
    plan.harness.hangSeconds = 30.0;
    PlanAttachment attached(fixture.service, plan);

    // Two hangs with the same machine identity: the first occupies
    // a shard, the second lands in that shard's prefetch slot via
    // affinity.
    fixture.service.submit(runRequest("BFS", 2, "hog1"), bfs_sink);
    ASSERT_TRUE(waitUntilBusy(fixture.service));
    Request hog2 = runRequest("BFS", 2, "hog2");
    hog2.spec.linkEnergyScale = 1.5; // distinct work identity
    fixture.service.submit(std::move(hog2), bfs_sink);

    // Same machine identity, no hang: affinity points at the full
    // shard, but the dispatcher must reroute to the idle one
    // instead of queueing behind the hang.
    fixture.service.submit(
        runRequest("Stream", 2, "probe"),
        [&](const Response &response) {
            std::lock_guard<std::mutex> lock(mutex);
            probe_done = true;
            bfs_done_at_probe = bfs_done;
            EXPECT_EQ(response.status, ResponseStatus::Ok)
                << response.message;
            cv.notify_all();
        });

    {
        std::unique_lock<std::mutex> lock(mutex);
        ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                                [&] { return probe_done; }));
        // Both hangs last until the detach below, so the probe can
        // only have finished by rerouting to the idle shard.
        EXPECT_EQ(bfs_done_at_probe, 0);
    }

    // Release both hangs; they then compute and answer.
    attached.detach();
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60),
                            [&] { return bfs_done == 2; }));
}

TEST(ServeService, ShutdownRejectsNewWorkButAnswersInlineVerbs)
{
    ServiceFixture fixture;
    fixture.service.beginShutdown();
    Response late =
        fixture.service.call(runRequest("Stream", 2, "late"));
    EXPECT_EQ(late.status, ResponseStatus::Rejected);

    Request ping;
    ping.type = RequestType::Ping;
    EXPECT_EQ(fixture.service.call(ping).status,
              ResponseStatus::Ok);
    fixture.service.join();
}

TEST(ServeAdmission, PriorityThenFifoOrder)
{
    AdmissionQueue queue(8);
    auto push = [&](const char *id, int priority) {
        Request request;
        request.type = RequestType::Run;
        request.id = id;
        request.priority = priority;
        ASSERT_EQ(queue.tryPush(std::move(request), 0),
                  Admit::Accepted);
    };
    push("batch-1", 2);
    push("normal-1", 1);
    push("high-1", 0);
    push("normal-2", 1);
    push("high-2", 0);

    const char *expected[] = {"high-1", "high-2", "normal-1",
                              "normal-2", "batch-1"};
    for (const char *id : expected) {
        auto job = queue.pop();
        ASSERT_TRUE(job.has_value());
        EXPECT_EQ(job->request.id, id);
    }
    EXPECT_EQ(queue.depth(), 0u);
    EXPECT_EQ(queue.accepted(), 5u);
}

TEST(ServeAdmission, BoundedDepthAndStopSemantics)
{
    AdmissionQueue queue(2);
    Request request;
    request.type = RequestType::Run;
    EXPECT_EQ(queue.tryPush(request, 0), Admit::Accepted);
    EXPECT_EQ(queue.tryPush(request, 0), Admit::Accepted);
    EXPECT_EQ(queue.tryPush(request, 0), Admit::QueueFull);
    EXPECT_EQ(queue.rejected(), 1u);

    queue.stop();
    EXPECT_EQ(queue.tryPush(request, 0), Admit::Stopped);
    // Accepted work still drains after stop.
    EXPECT_TRUE(queue.pop().has_value());
    EXPECT_TRUE(queue.pop().has_value());
    EXPECT_FALSE(queue.pop().has_value());
}

TEST(ServeRouter, AffinityReusesTheWarmShard)
{
    Router router(4);
    std::size_t first = router.route(0xabc);
    router.release(first);
    for (int i = 0; i < 5; ++i) {
        std::size_t again = router.route(0xabc);
        EXPECT_EQ(again, first);
        router.release(again);
    }
    EXPECT_GE(router.affinityHits(), 5u);
}

TEST(ServeRouter, OverloadedAffinityShardFallsBack)
{
    Router router(2, /*slack=*/0);
    std::size_t warm = router.route(0xdef); // loads warm shard, held
    for (int i = 0; i < 4; ++i) {
        // warm shard busier than the other by > slack: balance wins.
        std::size_t shard = router.route(0xdef);
        EXPECT_NE(shard, warm);
        router.release(shard);
    }
    router.release(warm);
}

TEST(ServeRouter, LoadAccountingBalances)
{
    Router router(4);
    std::vector<std::size_t> picked;
    for (int i = 0; i < 16; ++i)
        picked.push_back(router.route(static_cast<std::uint64_t>(i)));
    std::vector<std::size_t> loads = router.loads();
    std::size_t total = 0;
    for (std::size_t load : loads) {
        EXPECT_LE(load, 9u); // p2c: far from all-on-one-shard
        total += load;
    }
    EXPECT_EQ(total, 16u);
    for (std::size_t shard : picked)
        router.release(shard);
    for (std::size_t load : router.loads())
        EXPECT_EQ(load, 0u);
}

TEST(ServeRouter, DeliverableMaskOverridesAffinity)
{
    Router router(3);
    std::size_t warm = router.route(0x123);
    router.release(warm);

    // Warm shard masked out: routing must fall back to another.
    std::vector<std::uint8_t> open(3, 1);
    open[warm] = 0;
    std::size_t fallback = router.route(0x123, &open);
    EXPECT_NE(fallback, warm);
    router.release(fallback);

    // The fallback updated the affinity table: with the mask
    // lifted, the identity now sticks to its new home.
    std::size_t again = router.route(0x123);
    EXPECT_EQ(again, fallback);
    router.release(again);
}

TEST(ServeSocket, GarbageOverSocketGetsErrorsNotACrash)
{
    ServiceFixture fixture;
    std::string path = "serve_fuzz.sock";
    SocketServer server(fixture.service, path);
    Result<void> started = server.start();
    ASSERT_TRUE(started.ok()) << started.error().describe();

    ServeClient client;
    ASSERT_TRUE(client.connect(path).ok());

    const char *const garbage[] = {
        "not json at all",
        "{\"type\":\"run\"",
        "{\"type\":\"launch-missiles\",\"id\":\"evil\"}",
        "[1,2,3]",
        "{\"a\": 1,}",
        "\"\\uZZZZ\"",
    };
    for (const char *line : garbage) {
        ASSERT_TRUE(client.sendLine(line).ok()) << line;
        Result<std::string> reply = client.recvLine(10000);
        ASSERT_TRUE(reply.ok()) << line;
        Result<Response> response = parseResponse(reply.value());
        ASSERT_TRUE(response.ok()) << reply.value();
        EXPECT_EQ(response.value().status, ResponseStatus::Error)
            << line;
    }

    // Oversized single line: error response, connection dropped,
    // daemon alive for the next client.
    std::string big(maxRequestBytes + 100, 'x');
    ASSERT_TRUE(client.sendLine(big).ok());
    Result<std::string> reply = client.recvLine(10000);
    if (reply.ok()) {
        Result<Response> response = parseResponse(reply.value());
        ASSERT_TRUE(response.ok());
        EXPECT_EQ(response.value().status, ResponseStatus::Error);
    }

    ServeClient fresh;
    ASSERT_TRUE(fresh.connect(path).ok());
    Request ping;
    ping.type = RequestType::Ping;
    ping.id = "after-fuzz";
    Result<Response> pong = fresh.roundTrip(ping);
    ASSERT_TRUE(pong.ok()) << pong.error().describe();
    EXPECT_EQ(pong.value().status, ResponseStatus::Ok);
    EXPECT_EQ(pong.value().id, "after-fuzz");

    server.stop();
}

TEST(ServeSocket, TruncatedFramingAndMidLineDisconnects)
{
    ServiceFixture fixture;
    std::string path = "serve_trunc.sock";
    SocketServer server(fixture.service, path);
    ASSERT_TRUE(server.start().ok());

    // A client that sends half a request and vanishes: the daemon
    // must shrug it off.
    {
        std::string partial = "{\"type\":\"run\",\"workl";
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_un raw{};
        raw.sun_family = AF_UNIX;
        std::memcpy(raw.sun_path, path.c_str(), path.size() + 1);
        ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&raw),
                            sizeof(raw)),
                  0);
        ASSERT_EQ(::send(fd, partial.data(), partial.size(),
                         MSG_NOSIGNAL),
                  static_cast<ssize_t>(partial.size()));
        ::close(fd); // gone mid-line
    }

    // Pipelined requests torn across arbitrary write boundaries
    // still frame correctly.
    Request ping;
    ping.type = RequestType::Ping;
    ping.id = "torn";
    std::string two = ping.encode() + "\n" + ping.encode() + "\n";
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un raw{};
    raw.sun_family = AF_UNIX;
    std::memcpy(raw.sun_path, path.c_str(), path.size() + 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&raw),
                        sizeof(raw)),
              0);
    for (std::size_t i = 0; i < two.size(); i += 7) {
        std::size_t n = std::min<std::size_t>(7, two.size() - i);
        ASSERT_EQ(::send(fd, two.data() + i, n, MSG_NOSIGNAL),
                  static_cast<ssize_t>(n));
        wallclock::sleepMs(1);
    }
    std::string got;
    char buffer[512];
    while (got.find('\n') == std::string::npos ||
           got.find('\n', got.find('\n') + 1) == std::string::npos) {
        ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
        ASSERT_GT(n, 0);
        got.append(buffer, static_cast<std::size_t>(n));
    }
    ::close(fd);
    EXPECT_EQ(fixture.service.stats().rejected, 0u);

    server.stop();
}

TEST(ServeSocket, FinishedConnectionThreadsAreReaped)
{
    ServiceFixture fixture;
    std::string path = "serve_reap.sock";
    SocketServer server(fixture.service, path);
    ASSERT_TRUE(server.start().ok());

    for (int i = 0; i < 8; ++i) {
        ServeClient client;
        ASSERT_TRUE(client.connect(path).ok());
        Request ping;
        ping.type = RequestType::Ping;
        ping.id = "reap-" + std::to_string(i);
        Result<Response> pong = client.roundTrip(ping);
        ASSERT_TRUE(pong.ok()) << pong.error().describe();
    } // each dtor closes the socket; its reader thread exits

    // The accept loop reaps on every poll tick (~100 ms), without
    // needing a new connection to arrive.
    std::int64_t deadline = wallclock::nowMs() + 5000;
    while (server.trackedConnectionThreads() > 0 &&
           wallclock::nowMs() < deadline)
        wallclock::sleepMs(20);
    EXPECT_EQ(server.trackedConnectionThreads(), 0u);
    EXPECT_EQ(server.connectionsAccepted(), 8u);

    server.stop();
}

TEST(ServeSocket, StopUnblocksAWriterStalledOnAFullSocket)
{
    ServiceFixture fixture;
    std::string path = "serve_stall.sock";
    SocketServer server(fixture.service, path);
    ASSERT_TRUE(server.start().ok());

    // A client that floods garbage (every line earns an error
    // response) but never reads: the response path must stall
    // without wedging the reader thread, and stop() must still
    // return — pre-fix, stop() deadlocked on the writer's mutex.
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un raw{};
    raw.sun_family = AF_UNIX;
    std::memcpy(raw.sun_path, path.c_str(), path.size() + 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&raw),
                        sizeof(raw)),
              0);
    std::string chunk;
    for (int i = 0; i < 512; ++i)
        chunk += "z\n";
    // Fill until the kernel refuses twice, with a drain pause in
    // between so the server's writer is actually wedged against our
    // unread receive buffer.
    for (int round = 0; round < 2; ++round) {
        for (int i = 0; i < 4096; ++i) {
            ssize_t n = ::send(fd, chunk.data(), chunk.size(),
                               MSG_NOSIGNAL | MSG_DONTWAIT);
            if (n < 0)
                break;
        }
        wallclock::sleepMs(300);
    }

    std::int64_t start = wallclock::nowMs();
    server.stop();
    EXPECT_LT(wallclock::nowMs() - start, 8000);
    ::close(fd);
}

} // namespace
