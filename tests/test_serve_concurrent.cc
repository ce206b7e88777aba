/**
 * @file
 * Tier-2 concurrency tests for the simulation service: many clients
 * submitting overlapping duplicate work must trigger exactly one
 * simulation per work fingerprint (in-flight dedup + memo cache),
 * the socket front end must survive clients that disconnect with
 * responses still owed, and a pipelined multi-client hammering run
 * must deliver every response to the right client.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/wallclock.hh"
#include "fault/fault_plan.hh"
#include "serve/client.hh"
#include "serve/service.hh"
#include "serve/socket_server.hh"

namespace
{

using namespace mmgpu;
using namespace mmgpu::serve;

harness::StudyContext &
context()
{
    static harness::StudyContext instance;
    return instance;
}

Request
runRequest(const std::string &workload, unsigned gpms,
           const std::string &id)
{
    Request request;
    request.type = RequestType::Run;
    request.id = id;
    request.spec.workload = workload;
    request.spec.gpms = gpms;
    return request;
}

/** The distinct design points every concurrency test hammers. */
const std::vector<std::pair<std::string, unsigned>> &
points()
{
    static const std::vector<std::pair<std::string, unsigned>> p = {
        {"Stream", 2}, {"BFS", 2}, {"Kmeans", 2}, {"Hotspot", 2},
    };
    return p;
}

TEST(ServeConcurrent, DuplicateCallsSimulateOncePerFingerprint)
{
    ServeOptions options;
    options.shards = 4;
    options.queueDepth = 256;
    SimService service(options, context());
    service.runner().attachPersistentCache(nullptr);
    service.start();

    const int threads = 8;
    const int rounds = 3;
    std::atomic<unsigned> failures{0};
    std::vector<std::thread> clients;
    clients.reserve(threads);
    for (int t = 0; t < threads; ++t) {
        clients.emplace_back([&, t] {
            for (int r = 0; r < rounds; ++r) {
                // Each thread walks the points at a different phase
                // so identical identities collide mid-flight.
                for (std::size_t i = 0; i < points().size(); ++i) {
                    const auto &point =
                        points()[(i + static_cast<std::size_t>(t)) %
                                 points().size()];
                    Response response = service.call(runRequest(
                        point.first, point.second,
                        "t" + std::to_string(t) + "-r" +
                            std::to_string(r) + "-" + point.first));
                    if (response.status != ResponseStatus::Ok)
                        failures.fetch_add(1);
                }
            }
        });
    }
    for (std::thread &thread : clients)
        thread.join();

    EXPECT_EQ(failures.load(), 0u);
    ServiceStats stats = service.stats();
    // Dedup attach or memo hit, never a second simulation.
    EXPECT_EQ(stats.simulationsStarted, points().size());
    EXPECT_EQ(stats.completed,
              static_cast<std::uint64_t>(threads) * rounds *
                  points().size());
    EXPECT_EQ(stats.rejected, 0u);
}

TEST(ServeConcurrent, PipelinedSocketClientsEachGetTheirAnswers)
{
    ServeOptions options;
    options.shards = 2;
    options.queueDepth = 256;
    SimService service(options, context());
    service.runner().attachPersistentCache(nullptr);
    service.start();

    std::string path = "serve_hammer.sock";
    SocketServer server(service, path);
    ASSERT_TRUE(server.start().ok());

    const int clients = 6;
    const int perClient = 8;
    std::atomic<unsigned> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            ServeClient client;
            if (!client.connect(path).ok()) {
                failures.fetch_add(100);
                return;
            }
            // Pipeline every request, then drain every response.
            std::set<std::string> expected;
            for (int i = 0; i < perClient; ++i) {
                const auto &point =
                    points()[static_cast<std::size_t>(i) %
                             points().size()];
                std::string id = "c" + std::to_string(c) + "-" +
                                 std::to_string(i);
                if (!client
                         .sendLine(runRequest(point.first,
                                              point.second, id)
                                       .encode())
                         .ok())
                    failures.fetch_add(1);
                expected.insert(id);
            }
            for (int i = 0; i < perClient; ++i) {
                Result<std::string> line = client.recvLine(120000);
                if (!line.ok()) {
                    failures.fetch_add(1);
                    continue;
                }
                Result<Response> response = parseResponse(line.value());
                if (!response.ok() ||
                    response.value().status != ResponseStatus::Ok ||
                    expected.erase(response.value().id) != 1)
                    failures.fetch_add(1);
            }
            if (!expected.empty())
                failures.fetch_add(1);
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(service.stats().simulationsStarted, points().size());

    server.stop();
    service.beginShutdown();
    service.join();
}

TEST(ServeConcurrent, ShardCrashesUnderConcurrentLoadStayInvisible)
{
    // Counter-driven shard crashes while 8 client threads hammer the
    // service: every crash must be supervised (frames unwound, shard
    // restarted after backoff, job requeued with sinks attached) and
    // no client may ever observe one. This is the tier-2 shape of
    // ServeSelfHealing.CounterCrashesAreRequeuedInvisibly — the
    // interesting part under TSan is the crash-recovery path racing
    // dispatch, dedup attach, and answer fan-out.
    fault::FaultPlan plan;
    plan.serve.shardCrashEveryJobs = 3;

    ServeOptions options;
    options.shards = 4;
    options.queueDepth = 256;
    options.supervisor.backoffBaseMs = 1; // restart fast under test
    options.supervisor.backoffCapMs = 8;
    // The crash counter is global, so a hot fingerprint re-asked by
    // many threads can land on several crash indices; strikes are
    // effectively unbounded here so nothing gets quarantined — this
    // test is about recovery races, not the quarantine policy.
    options.supervisor.maxStrikes = 1000000;
    options.faultPlan = &plan;
    SimService service(options, context());
    service.runner().attachPersistentCache(nullptr);
    service.start();

    const int threads = 8;
    const int rounds = 2;
    std::atomic<unsigned> failures{0};
    std::vector<std::thread> clients;
    clients.reserve(threads);
    for (int t = 0; t < threads; ++t) {
        clients.emplace_back([&, t] {
            for (int r = 0; r < rounds; ++r) {
                for (std::size_t i = 0; i < points().size(); ++i) {
                    const auto &point =
                        points()[(i + static_cast<std::size_t>(t)) %
                                 points().size()];
                    Response response = service.call(runRequest(
                        point.first, point.second,
                        "x" + std::to_string(t) + "-r" +
                            std::to_string(r) + "-" + point.first));
                    if (response.status != ResponseStatus::Ok)
                        failures.fetch_add(1);
                }
            }
        });
    }
    for (std::thread &thread : clients)
        thread.join();

    EXPECT_EQ(failures.load(), 0u);
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_GE(stats.crashes, 1u);
    EXPECT_EQ(stats.requeues, stats.crashes); // all recovered
    EXPECT_EQ(stats.poisonings, 0u);
    // Crash-requeue re-executes work, so simulationsStarted may
    // exceed the fingerprint count — but completion accounting must
    // still be exact.
    EXPECT_EQ(stats.completed,
              static_cast<std::uint64_t>(threads) * rounds *
                  points().size());

    service.beginShutdown();
    service.join();
}

TEST(ServeConcurrent, ClientGoneMidRequestDoesNotHurtTheService)
{
    ServeOptions options;
    options.shards = 2;
    SimService service(options, context());
    service.runner().attachPersistentCache(nullptr);
    service.start();

    std::string path = "serve_vanish.sock";
    SocketServer server(service, path);
    ASSERT_TRUE(server.start().ok());

    // Submit work, then vanish without collecting the response: the
    // daemon's write to the dead connection must fail quietly.
    {
        ServeClient doomed;
        ASSERT_TRUE(doomed.connect(path).ok());
        ASSERT_TRUE(
            doomed.sendLine(runRequest("Stream", 2, "orphan").encode())
                .ok());
        doomed.close();
    }

    // The orphaned job still runs to completion.
    std::int64_t deadline = wallclock::nowMs() + 120000;
    while (service.stats().completed + service.stats().failed < 1 &&
           wallclock::nowMs() < deadline)
        wallclock::sleepMs(20);
    EXPECT_EQ(service.stats().completed, 1u);
    EXPECT_EQ(service.stats().failed, 0u);

    // And the service keeps answering live clients — the orphan's
    // identity is now memo-warm, so this is quick.
    ServeClient alive;
    ASSERT_TRUE(alive.connect(path).ok());
    Result<Response> again =
        alive.roundTrip(runRequest("Stream", 2, "after"), 120000);
    ASSERT_TRUE(again.ok()) << again.error().describe();
    EXPECT_EQ(again.value().status, ResponseStatus::Ok);
    EXPECT_EQ(again.value().id, "after");
    EXPECT_EQ(service.stats().simulationsStarted, 1u);

    server.stop();
    service.beginShutdown();
    service.join();
}

} // namespace
