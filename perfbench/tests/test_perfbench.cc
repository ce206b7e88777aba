/**
 * @file
 * Tests of the benchmark's own machinery: the percentile sample-count
 * rule, span self-time arithmetic, due-time latency under a sender
 * stall, and the digest gate failing on a corrupted golden table.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>
#include <thread>

#include "bench.hh"
#include "harness/study.hh"
#include "points.hh"
#include "serve_load.hh"
#include "spans.hh"
#include "stats.hh"
#include "trace/workloads.hh"
#include "workloads.hh"

namespace perfbench
{
namespace
{

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<double>(n - i); // unsorted on purpose
    return v;
}

TEST(PercentileRule, NeedsTenSamplesBeyond)
{
    EXPECT_EQ(samplesNeeded(0.50), 20u);
    EXPECT_EQ(samplesNeeded(0.90), 100u);
    EXPECT_EQ(samplesNeeded(0.99), 1000u);

    Percentile p99 = percentile(ramp(1000), 0.99);
    EXPECT_EQ(p99.value, 990.0);
    EXPECT_EQ(p99.samples, 1000u);
    EXPECT_EQ(p99.beyond, 10u);
    EXPECT_TRUE(p99.reportable());

    Percentile short99 = percentile(ramp(999), 0.99);
    EXPECT_EQ(short99.beyond, 9u);
    EXPECT_FALSE(short99.reportable());

    EXPECT_TRUE(percentile(ramp(20), 0.50).reportable());
    EXPECT_FALSE(percentile(ramp(19), 0.50).reportable());
    EXPECT_FALSE(percentile({}, 0.50).reportable());
}

TEST(PercentileRule, ReportRecordsUnreportableAsProblem)
{
    Report report;
    report.percentileMetric(true, "warm_p99_ms", {ramp(500)}, 0.99, "ms");
    EXPECT_TRUE(report.endToEnd.empty());
    ASSERT_EQ(report.problems.size(), 1u);
    report.percentileMetric(true, "warm_p50_ms", {ramp(500)}, 0.50, "ms");
    ASSERT_EQ(report.endToEnd.size(), 1u);
    EXPECT_EQ(report.endToEnd[0].value, 250.0);

    // Over repetitions: the mean of the per-repetition values, and
    // one short repetition makes the metric unreportable.
    report.percentileMetric(true, "cold_p50_ms",
                            {ramp(100), ramp(600), ramp(200)}, 0.50, "ms");
    ASSERT_EQ(report.endToEnd.size(), 2u);
    EXPECT_EQ(report.endToEnd[1].value, 150.0);
    report.percentileMetric(true, "cold_p90_ms", {ramp(1000), ramp(99)},
                            0.90, "ms");
    EXPECT_EQ(report.endToEnd.size(), 2u);
    EXPECT_EQ(report.problems.size(), 2u);
}

TEST(SpanArithmetic, SelfTimeSubtractsChildCoverageOnce)
{
    std::vector<Span> spans(5);
    spans[0] = {"harness.point", "", 0, 100, -1, 0};
    spans[1] = {"sim.run", "", 10, 30, 0, 0};
    spans[2] = {"sim.run", "", 20, 50, 0, 0};   // overlaps the first
    spans[3] = {"mem.probe", "", 90, 120, 0, 0}; // clipped at 100
    spans[4] = {"trace.gen", "", 25, 28, 1, 0};  // grandchild
    EXPECT_EQ(selfNs(spans, 0), 100.0 - 40.0 - 10.0);
    EXPECT_EQ(selfNs(spans, 1), 20.0 - 3.0);
    EXPECT_EQ(selfNs(spans, 4), 3.0);

    auto totals = layerTotals(spans);
    EXPECT_EQ(totals["harness"].selfNs, 50.0);
    EXPECT_EQ(totals["sim"].selfNs, 17.0 + 30.0);
    EXPECT_EQ(totals["sim"].count, 2u);
    EXPECT_EQ(totals["trace"].count, 1u);
}

TEST(SpanArithmetic, TracerNestsPerThread)
{
    Tracer tracer(true);
    {
        Tracer::Scope outer(tracer, "harness.point", "p1");
        Tracer::Scope inner(tracer, "sim.run", "p1");
    }
    auto spans = tracer.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].parent, -1);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_GE(spans[0].endNs, spans[1].endNs);
    EXPECT_EQ(layerOf(spans[1].name), "sim");

    Tracer off(false);
    EXPECT_EQ(off.open("x"), -1);
    EXPECT_TRUE(off.spans().empty());
}

TEST(OpenLoop, LatencyRunsFromDueTimeThroughAStall)
{
    // Three requests due 0, 5 and 10 ms apart; sending the first
    // stalls for 60 ms. Answers arrive the moment a request is sent,
    // so send-time latency would be ~0 — due-time latency must not be.
    std::vector<ScheduledRequest> schedule = {{0.000, 0}, {0.005, 1},
                                              {0.010, 0}};
    OpenLoopGenerator gen(schedule, 2);
    gen.sendAll([&](std::size_t i) {
        if (i == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(60));
        gen.complete(i, true);
        return true;
    });
    ASSERT_TRUE(gen.waitAll(1.0));
    auto lags = gen.lagsMs();
    ASSERT_EQ(lags.size(), 3u);
    EXPECT_LT(lags[0], 30.0);
    EXPECT_GE(lags[1], 50.0); // sent after the stall
    EXPECT_GE(lags[2], 45.0);

    auto cold = gen.latenciesMs(false);
    auto warm = gen.latenciesMs(true);
    ASSERT_EQ(cold.size(), 2u); // item 0 first copy, item 1
    ASSERT_EQ(warm.size(), 1u); // item 0 again, answered before
    EXPECT_GE(cold[0], 55.0);   // request 0: due 0, answered ~60
    EXPECT_GE(cold[1], 50.0);   // request 1: due 5, answered ~60
    EXPECT_GE(warm[0], 45.0);   // request 2: due 10, answered ~60
}

TEST(OpenLoop, FailedRequestsMissEveryLimit)
{
    OpenLoopGenerator gen({{0.0, 0}, {0.001, 0}}, 1);
    gen.sendAll([&](std::size_t i) {
        gen.complete(i, i == 1);
        return true;
    });
    auto cold = gen.latenciesMs(false);
    ASSERT_EQ(cold.size(), 2u); // the failure never warmed item 0
    EXPECT_TRUE(std::isinf(cold[0]));
    EXPECT_FALSE(std::isinf(cold[1]));
    EXPECT_EQ(gen.failedCount(), 1u);
}

TEST(DigestGate, CorruptedGoldenFailsTheRun)
{
    // A real, cheap sweep point: CoMD on the 1-GPM baseline.
    Point point;
    point.config = fig6Configs().front();
    point.profile = *mmgpu::trace::findWorkload("CoMD");
    mmgpu::harness::StudyContext context;
    mmgpu::harness::ScalingRunner runner(context);
    runner.attachPersistentCache(nullptr);
    const auto &outcome = runner.run(point.config, point.profile);

    GoldenTable golden;
    ASSERT_TRUE(golden.load(std::string(PERFBENCH_GOLDEN_DIR) +
                            "/sweep_points.tsv"));
    EXPECT_TRUE(checkPoint(golden, point, outcome.perf, outcome.energy));

    // Flip one bit of the stored digest, as a corrupted file would.
    std::uint64_t digest = outcomeDigest(outcome.perf, outcome.energy);
    GoldenTable corrupted = golden;
    corrupted.put(point.key(), digest ^ 1u);
    std::string path = std::filesystem::temp_directory_path() /
                       "perfbench_corrupted_golden.tsv";
    ASSERT_TRUE(corrupted.save(path));
    GoldenTable reloaded;
    ASSERT_TRUE(reloaded.load(path));
    std::filesystem::remove(path);
    EXPECT_FALSE(checkPoint(reloaded, point, outcome.perf, outcome.energy));

    Report report;
    report.attempted = 1;
    if (!checkPoint(reloaded, point, outcome.perf, outcome.energy))
        report.mismatch(point.key());
    EXPECT_FALSE(report.correct());
    EXPECT_EQ(report.failed, 1u);
}

TEST(DigestGate, RecordCoversEnergyAndCounters)
{
    mmgpu::sim::PerfResult perf;
    mmgpu::joule::EnergyBreakdown energy;
    std::uint64_t base = outcomeDigest(perf, energy);
    energy.interModule = 0x1p-60;
    EXPECT_NE(outcomeDigest(perf, energy), base);
    energy.interModule = 0.0;
    perf.link.reconfigs = 1;
    EXPECT_NE(outcomeDigest(perf, energy), base);
}

TEST(DigestGate, BlankResponseIdKeepsTheBody)
{
    std::string line = R"({"id":"r17","result":{"x":"0x1p+0"},"status":"ok"})";
    EXPECT_EQ(blankResponseId(line, "r17"),
              R"({"id":"","result":{"x":"0x1p+0"},"status":"ok"})");
}

TEST(Points, SweepRoundPairsCoverTheSuite)
{
    SweepRounds a(7), b(7);
    auto first = a.next();
    auto second = a.next();
    auto again = b.next();
    ASSERT_EQ(first.size(), 42u);
    ASSERT_EQ(second.size(), 42u);
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(first[i].key(), again[i].key());
    for (std::size_t i = 1; i < first.size(); ++i)
        EXPECT_GE(first[i - 1].costSeconds, first[i].costSeconds);
    std::set<std::string> keys;
    for (const auto *round : {&first, &second})
        for (const Point &p : *round)
            keys.insert(p.key());
    EXPECT_EQ(keys.size(), allSweepPoints().size());
}

TEST(Points, GoldenTablesCoverDefaultAndHeldOutSeeds)
{
    GoldenTable sweep, bodies;
    ASSERT_TRUE(sweep.load(std::string(PERFBENCH_GOLDEN_DIR) +
                           "/sweep_points.tsv"));
    ASSERT_TRUE(bodies.load(std::string(PERFBENCH_GOLDEN_DIR) +
                            "/serve_bodies.tsv"));
    // The tables are keyed by design point and hold every point a
    // seed can draw; spot-check the default and the held-out seed.
    for (std::uint64_t seed : {defaultSeed, heldOutSeed}) {
        SweepRounds rounds(seed);
        for (int r = 0; r < 4; ++r)
            for (const Point &p : rounds.next())
                EXPECT_TRUE(sweep.contains(p.key())) << p.key();
        for (const ScheduledRequest &request :
             serveSchedule(seed, serveRequestsPerRate(), serveNominalRate))
            EXPECT_LT(request.item, serveCatalog().size());
    }
    EXPECT_EQ(sweep.size(), allSweepPoints().size());
    EXPECT_EQ(bodies.size(), serveCatalog().size());
    for (const Point &p : cacheBasePoints())
        EXPECT_TRUE(sweep.contains(p.key())) << p.key();
    for (const Point &p : allSweepPoints())
        EXPECT_TRUE(sweep.contains(p.key())) << p.key();
    for (const CatalogItem &item : serveCatalog())
        EXPECT_TRUE(bodies.contains(item.key)) << item.key;
}

TEST(Points, PointLatencyFollowsClaimOrder)
{
    // Two workers, jobs finishing at 1, 2, 3, 5 s: jobs 0 and 1 start
    // at 0; job 2 starts when the first job finishes (1 s), job 3 at
    // the second finish (2 s).
    auto ms = pointLatenciesMs({1.0, 2.0, 3.0, 5.0}, 2);
    ASSERT_EQ(ms.size(), 4u);
    EXPECT_DOUBLE_EQ(ms[0], 1000.0);
    EXPECT_DOUBLE_EQ(ms[1], 2000.0);
    EXPECT_DOUBLE_EQ(ms[2], 2000.0);
    EXPECT_DOUBLE_EQ(ms[3], 3000.0);
}

} // namespace
} // namespace perfbench
