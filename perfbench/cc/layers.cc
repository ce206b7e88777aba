#include "layers.hh"

#include <algorithm>
#include <cstdio>
#include <future>

#include "engine/calendar.hh"
#include "harness/parallel_runner.hh"
#include "harness/run_cache.hh"
#include "harness/study.hh"
#include "mem/cache.hh"
#include "mem/page_table.hh"
#include "noc/topology_registry.hh"
#include "serve/request.hh"
#include "serve/service.hh"
#include "sim/gpu_sim.hh"
#include "trace/warp_trace.hh"
#include "trace/workloads.hh"
#include "serve_load.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace mmgpu;

namespace
{

/** Wall time of @p fn in nanoseconds. */
template <typename Fn>
double
timeNs(Fn &&fn)
{
    std::int64_t t0 = nowNs();
    fn();
    return static_cast<double>(nowNs() - t0);
}

/** One memory access of a generated trace, with its issuing GPM. */
struct Access
{
    std::uint64_t addr;
    std::uint8_t sectors;
    bool store;
    unsigned gpm;
};

/** Accumulated per-layer observations over the probe points. */
struct LayerSums
{
    double traceNs = 0, traceOps = 0;
    double calendarNs = 0, calendarEvents = 0;
    double cacheNs = 0, cacheProbes = 0, cacheHitSectors = 0,
           cacheSectors = 0;
    double pageNs = 0, pageTouches = 0;
    std::map<std::string, std::pair<double, double>> nocNs; //!< ns, n
    double buildMs = 0, runMs = 0, events = 0, runs = 0;
    double execCycles = 0, l1Hit = 0, l1Miss = 0, l2Hit = 0, l2Miss = 0,
           remote = 0, local = 0, linkBytes = 0;
    double estimateNs = 0, estimates = 0;
    double pointMs = 0, points = 0;
    double memoNs = 0, memoHits = 0;
    double studyMs = 0, studies = 0;
};

/**
 * Probe points of a workload, drawn from its own point set: 1-GPM
 * baselines and multi-GPM configurations of its workloads (so the
 * aggregation probe finds both memoized).
 */
std::vector<Point>
probePoints(const Options &options)
{
    std::vector<Point> probes;
    auto add = [&](const sim::GpuConfig &config, const std::string &name) {
        Point p;
        p.config = config;
        p.profile = *trace::findWorkload(name);
        probes.push_back(std::move(p));
    };
    if (options.workload == "serve_mixed") {
        // The catalog workload's baseline and the seed's two most
        // requested catalog items.
        Rng rng(options.seed * 0x9e3779b97f4a7c15ull + 0x5e77e);
        auto catalog = serveCatalog();
        std::vector<std::size_t> order = popularityOrder(catalog.size(), rng);
        add(sim::baselineConfig(), catalog[order[0]].spec.workload);
        for (int k = 0; k < 2; ++k)
            add(catalog[order[k]].spec.config(),
                catalog[order[k]].spec.workload);
    } else if (options.workload == "cache_restart") {
        auto bases = cacheBasePoints();
        for (std::size_t i = 0; i < bases.size() && probes.size() < 4; ++i)
            if (bases[i].config.gpmCount != 4)
                probes.push_back(bases[i]);
    } else {
        std::vector<Point> round = SweepRounds(options.seed).next();
        std::vector<std::string> names;
        for (const Point &p : round)
            if (std::find(names.begin(), names.end(), p.profile.name) ==
                names.end())
                names.push_back(p.profile.name);
        std::sort(names.begin(), names.end());
        auto configs = fig6Configs();
        for (int k = 0; k < 2; ++k) {
            add(configs[0], names[k]);
            add(configs[3], names[k]); // 8-GPM
        }
    }
    return probes;
}

/** trace + mem + engine + noc probes on one point. */
void
probeStructures(const Point &p, Rng &rng, Tracer &tracer, LayerSums &sums)
{
    const std::string id = p.key();
    const trace::KernelProfile &profile = p.profile;
    const unsigned gpms = p.config.gpmCount;

    // trace: every warp of the first launch, to Exit.
    std::vector<Access> accesses;
    accesses.reserve(1 << 20);
    {
        trace::SegmentLayout layout(profile);
        Tracer::Scope span(tracer, "trace.generate", id);
        double ops = 0;
        sums.traceNs += timeNs([&] {
            for (unsigned cta = 0; cta < profile.ctaCount; ++cta) {
                for (unsigned w = 0; w < profile.warpsPerCta; ++w) {
                    trace::WarpTrace warp(profile, layout, 0, cta, w);
                    for (isa::TraceOp op = warp.next();
                         op.kind != isa::TraceOpKind::Exit;
                         op = warp.next()) {
                        ++ops;
                        if ((op.kind == isa::TraceOpKind::Load ||
                             op.kind == isa::TraceOpKind::Store) &&
                            accesses.size() < (1u << 20))
                            accesses.push_back(
                                {op.addr, op.sectors,
                                 op.kind == isa::TraceOpKind::Store,
                                 cta % gpms});
                    }
                }
            }
        });
        sums.traceOps += ops;
    }

    // mem: the point's own addresses through an L2-sized cache, then
    // the page table.
    {
        mem::SectoredCache cache("probe", p.config.memory.l2BytesPerGpm,
                                 p.config.memory.l2Assoc);
        Tracer::Scope span(tracer, "mem.cache_replay", id);
        double probes = 0, hits = 0, sectors = 0;
        sums.cacheNs += timeNs([&] {
            for (const Access &a : accesses) {
                unsigned left = std::max<unsigned>(a.sectors, 1);
                std::uint64_t line =
                    a.addr / isa::cacheLineBytes * isa::cacheLineBytes;
                for (; left > 0; line += isa::cacheLineBytes) {
                    unsigned n = std::min(left, mem::sectorsPerLine);
                    auto mask = static_cast<mem::SectorMask>((1u << n) - 1);
                    mem::CacheAccessResult r =
                        cache.access(line, mask, a.store);
                    hits += mem::sectorCount(r.hitMask);
                    sectors += n;
                    ++probes;
                    left -= n;
                }
            }
        });
        sums.cacheProbes += probes;
        sums.cacheHitSectors += hits;
        sums.cacheSectors += sectors;
    }
    {
        mem::PageTable table(gpms);
        Tracer::Scope span(tracer, "mem.page_touch", id);
        unsigned sink = 0;
        sums.pageNs += timeNs([&] {
            for (const Access &a : accesses)
                sink += table.touch(a.addr, a.gpm);
        });
        volatile unsigned keep = sink; // the touches must not fold away
        (void)keep;
        sums.pageTouches += static_cast<double>(accesses.size());
    }

    // engine: schedule/pop pairs against the resident-warp population.
    {
        const unsigned population =
            gpms * p.config.smsPerGpm * p.config.warpSlotsPerSm;
        const unsigned events = 1u << 20;
        engine::Calendar calendar;
        calendar.reserve(population + 1);
        for (unsigned i = 0; i < population; ++i)
            calendar.schedule(static_cast<double>(rng.below(512)), i,
                              i % 2 == 1);
        Tracer::Scope span(tracer, "engine.calendar", id);
        sums.calendarNs += timeNs([&] {
            for (unsigned i = 0; i < events; ++i) {
                engine::Event e = calendar.pop();
                calendar.schedule(e.when + 1.0 + (i % 97), e.index, e.isMem);
            }
        });
        sums.calendarEvents += events;
    }

    // noc: every fabric at the point's GPM count (at least 2).
    for (const noc::TopologyDesc *desc : noc::allTopologies()) {
        if (desc->id == noc::Topology::None)
            continue;
        noc::TopologyParams params;
        params.gpmCount = std::max({2u, gpms, desc->minGpms});
        params.perGpmIoBytesPerCycle = p.config.interGpmBytesPerCycle;
        params.hopLatency = p.config.hopLatency;
        params.switchLatency = p.config.switchLatency;
        std::unique_ptr<noc::InterGpmNetwork> net = desc->make(params);
        const unsigned transfers = 1u << 17;
        Tracer::Scope span(tracer, std::string("noc.") + desc->name, id);
        double t = 0.0;
        double ns = timeNs([&] {
            for (unsigned i = 0; i < transfers; ++i) {
                auto src = static_cast<unsigned>(rng.below(params.gpmCount));
                auto dst = static_cast<unsigned>(
                    rng.below(params.gpmCount - 1));
                dst += dst >= src ? 1 : 0;
                t += 2.0;
                net->transfer(t, src, dst, 128.0);
            }
        });
        auto &[sum_ns, n] = sums.nocNs[desc->name];
        sum_ns += ns;
        n += transfers;
    }
}

/** sim + gpujoule + harness point/memo probes on one point. */
void
probeSimulation(const Point &p, const harness::StudyContext &context,
                harness::ScalingRunner &runner, const GoldenTable &golden,
                Tracer &tracer, LayerSums &sums, Report &report)
{
    const std::string id = p.key();

    // harness: one cold point through the runner (no cache), then
    // memo hits on it.
    const harness::RunOutcome *outcome = nullptr;
    {
        Tracer::Scope span(tracer, "harness.point", id);
        sums.pointMs += timeNs([&] {
            auto r = runner.tryRun(p.config, p.profile);
            if (r.ok())
                outcome = r.value();
        }) / 1e6;
        sums.points += 1;
    }
    ++report.attempted;
    if (outcome == nullptr) {
        ++report.failed;
        return;
    }
    // fig6 points have golden digests; every probe point is also
    // checked against a direct GpuSim run below.
    if (golden.contains(id) &&
        !checkPoint(golden, p, outcome->perf, outcome->energy))
        report.mismatch(id);
    {
        Tracer::Scope span(tracer, "harness.memo_hit", id);
        const int hits = 4000;
        sums.memoNs += timeNs([&] {
            for (int i = 0; i < hits; ++i)
                runner.run(p.config, p.profile);
        });
        sums.memoHits += hits;
    }

    // sim: build and run a machine directly, counting events.
    std::unique_ptr<sim::GpuSim> machine;
    {
        Tracer::Scope span(tracer, "sim.build", id);
        sums.buildMs += timeNs([&] {
            machine = std::make_unique<sim::GpuSim>(p.config);
        }) / 1e6;
    }
    telemetry::Telemetry tel(telemetry::TelemetryConfig{});
    machine->attachTelemetry(&tel);
    sim::PerfResult perf;
    {
        Tracer::Scope span(tracer, "sim.run", id);
        sums.runMs += timeNs([&] { perf = machine->run(p.profile); }) / 1e6;
    }
    machine->attachTelemetry(nullptr);
    for (const char *counter : {"sim/events_warp", "sim/events_mem"})
        if (const telemetry::Counter *c = tel.counters().findCounter(counter))
            sums.events += c->value;
    sums.runs += 1;
    sums.execCycles += perf.execCycles;
    sums.l1Hit += perf.l1SectorHits;
    sums.l1Miss += perf.mem.l1SectorMisses;
    sums.l2Hit += perf.l2SectorHits;
    sums.l2Miss += perf.mem.l2SectorMisses;
    sums.remote += perf.mem.remoteSectors;
    sums.local += perf.mem.localSectors;
    sums.linkBytes += perf.link.messageBytes;

    // gpujoule: the estimate on the fresh run's counters; it must
    // reproduce the runner's energy exactly.
    joule::EnergyBreakdown energy;
    joule::EnergyParams params = context.paramsFor(p.config);
    {
        Tracer::Scope span(tracer, "gpujoule.estimate", id);
        const int reps = 2000;
        sums.estimateNs += timeNs([&] {
            for (int i = 0; i < reps; ++i)
                energy = joule::estimate(
                    harness::inputsFrom(perf, p.config.gpmCount,
                                        p.config.totalSms()),
                    params);
        });
        sums.estimates += reps;
    }
    if (outcomeDigest(perf, energy) !=
        outcomeDigest(outcome->perf, outcome->energy))
        report.mismatch(id + " (direct GpuSim vs runner)");
}

/** Aggregation: scalingStudy over memoized probe points. */
void
probeStudy(const std::vector<Point> &probes, harness::ScalingRunner &runner,
           Tracer &tracer, LayerSums &sums)
{
    for (const Point &p : probes) {
        if (p.config.gpmCount == 1)
            continue;
        std::vector<trace::KernelProfile> workloads = {p.profile};
        Tracer::Scope span(tracer, "harness.study_agg", p.key());
        const int reps = 200;
        sums.studyMs += timeNs([&] {
            for (int i = 0; i < reps; ++i)
                harness::scalingStudy(runner, p.config, workloads);
        }) / 1e6;
        sums.studies += reps;
    }
}

/** RunCache insert/flush/open/lookup and runFingerprint costs. */
void
probeRunCache(const Options &options, const std::vector<Point> &probes,
              const harness::StudyContext &context,
              harness::ScalingRunner &runner, Tracer &tracer,
              Report &report)
{
    const std::string dir = options.workDir + "/probe-cache";
    freshDirectory(dir);
    const std::string path = dir + "/runs.json";
    const int per_point = 500;
    std::vector<std::uint64_t> keys;
    double fingerprint_ns = timeNs([&] {
        Tracer::Scope span(tracer, "harness.fingerprint");
        for (const Point &p : probes)
            for (int i = 0; i < per_point; ++i)
                keys.push_back(harness::runFingerprint(
                    p.config, p.profile, 1.0 + 0.001 * i, -1.0,
                    context.calibrationFingerprint()));
    });
    double insert_ns = 0, flush_ns = 0, open_ns = 0, lookup_ns = 0;
    {
        harness::RunCache cache(path);
        Tracer::Scope span(tracer, "harness.cache_insert");
        insert_ns = timeNs([&] {
            for (std::size_t k = 0; k < keys.size(); ++k) {
                const auto &o = runner.run(probes[k / per_point].config,
                                           probes[k / per_point].profile);
                cache.insert(keys[k], o.perf, o.energy);
            }
        });
        Tracer::Scope flush_span(tracer, "harness.cache_flush");
        flush_ns = timeNs([&] { cache.flush(); });
    }
    std::unique_ptr<harness::RunCache> reopened;
    {
        Tracer::Scope span(tracer, "harness.cache_open");
        open_ns = timeNs(
            [&] { reopened = std::make_unique<harness::RunCache>(path); });
    }
    std::size_t hits = 0;
    {
        Tracer::Scope span(tracer, "harness.cache_lookup");
        sim::PerfResult perf;
        joule::EnergyBreakdown energy;
        lookup_ns = timeNs([&] {
            for (std::uint64_t key : keys)
                hits += reopened->lookup(key, perf, energy) ? 1 : 0;
        });
    }
    report.attempted += keys.size();
    report.failed += keys.size() - hits;
    const double n = static_cast<double>(keys.size());
    report.layer("harness.fingerprint_us", fingerprint_ns / n / 1e3, "us");
    report.layer("harness.cache_lookup_us", lookup_ns / n / 1e3, "us");
    report.layer("harness.cache_insert_us", insert_ns / n / 1e3, "us");
    report.layer("harness.cache_flush_ms", flush_ns / 1e6, "ms");
    report.layer("harness.cache_open_ms", open_ns / 1e6, "ms");
}

/** Serial point time over workers x parallel wall, on @p batch. */
double
parallelEfficiency(const std::vector<Point> &batch, unsigned workers,
                   const harness::StudyContext &context, Tracer &tracer)
{
    double serial_ns = 0.0;
    {
        harness::ScalingRunner runner(context);
        runner.attachPersistentCache(nullptr);
        Tracer::Scope span(tracer, "harness.serial_batch");
        for (const Point &p : batch)
            serial_ns += timeNs(
                [&] { (void)runner.tryRun(p.config, p.profile); });
    }
    harness::ScalingRunner runner(context);
    runner.attachPersistentCache(nullptr);
    harness::ParallelRunner parallel(runner, workers);
    for (const Point &p : batch)
        parallel.enqueue(p.config, p.profile);
    Tracer::Scope span(tracer, "harness.parallel_batch");
    double wall_ns = timeNs([&] { parallel.drain(); });
    return serial_ns / (workers * wall_ns);
}

/** Points of the workload's own set for the efficiency batch. */
std::vector<Point>
efficiencyBatch(const Options &options)
{
    std::vector<Point> batch;
    if (options.workload == "sweep_cold") {
        batch = SweepRounds(options.seed).next();
        std::sort(batch.begin(), batch.end(),
                  [](const Point &a, const Point &b) {
                      return a.costSeconds < b.costSeconds;
                  });
    } else if (options.workload == "cache_restart") {
        batch = cacheBasePoints();
    } else {
        for (const CatalogItem &item : serveCatalog()) {
            Point p;
            p.config = item.spec.config();
            p.profile = *trace::findWorkload(item.spec.workload);
            batch.push_back(std::move(p));
        }
    }
    batch.resize(std::min<std::size_t>(batch.size(), 2 * options.workers));
    return batch;
}

/** serve: parse, encode, in-process warm submit. */
void
probeServe(const harness::StudyContext &context,
           const harness::RunOutcome &outcome, Tracer &tracer,
           Report &report)
{
    auto catalog = serveCatalog();
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < catalog.size(); ++i)
        lines.push_back(catalog[i].requestLine("p" + std::to_string(i)));
    const int reps = 20000;
    std::size_t parsed = 0;
    double parse_ns = 0;
    {
        Tracer::Scope span(tracer, "serve.parse");
        parse_ns = timeNs([&] {
            for (int i = 0; i < reps; ++i)
                parsed += serve::parseRequest(lines[i % lines.size()]).ok();
        });
    }
    report.attempted += reps;
    report.failed += reps - parsed;
    report.layer("serve.parse_us", parse_ns / reps / 1e3, "us");

    std::string wire;
    double encode_ns = 0;
    {
        Tracer::Scope span(tracer, "serve.encode");
        encode_ns = timeNs([&] {
            for (int i = 0; i < reps / 4; ++i) {
                wire = serve::Response::ok("p", serve::encodeOutcome(outcome))
                           .encode();
                wire.push_back('\n');
            }
        });
    }
    report.layer("serve.encode_us", encode_ns / (reps / 4) / 1e3, "us");

    // In-process warm path: one cold call, then submit -> callback.
    serve::ServeOptions options;
    options.shards = 1;
    serve::SimService service(options, context);
    service.runner().attachPersistentCache(nullptr);
    service.start();
    Result<serve::Request> request = serve::parseRequest(lines.front());
    std::vector<double> warm_us;
    if (request.ok() &&
        service.call(request.value()).status == serve::ResponseStatus::Ok) {
        Tracer::Scope span(tracer, "serve.inproc_warm");
        for (int i = 0; i < 2000; ++i) {
            std::promise<std::int64_t> answered;
            std::int64_t t0 = nowNs();
            service.submit(request.value(), [&](const serve::Response &) {
                answered.set_value(nowNs());
            });
            warm_us.push_back((answered.get_future().get() - t0) / 1e3);
        }
    }
    service.beginShutdown();
    service.join();
    report.attempted += 2000;
    report.failed += 2000 - warm_us.size();
    report.percentileMetric(false, "serve.inproc_warm_us", {warm_us}, 0.50,
                            "us");
}

/** serve/gen counters from one open-loop rate. */
void
reportRung(const RungResult &rung, Report &report)
{
    const serve::ServiceStats &s = rung.stats;
    report.layer("serve.simulations_started",
                 static_cast<double>(s.simulationsStarted), "count");
    report.layer("serve.dedup_attached", static_cast<double>(s.dedupAttached),
                 "count");
    report.layer("serve.affinity_hit_ratio",
                 s.completed ? static_cast<double>(s.affinityHits) /
                                   static_cast<double>(s.completed)
                             : 0.0,
                 "fraction");
    report.layer("serve.rejected", static_cast<double>(s.rejected), "count");
    report.layer("serve.shed", static_cast<double>(s.shed), "count");
    report.layer("serve.peak_queue_depth",
                 static_cast<double>(rung.peakQueueDepth), "count");
    report.layer("serve.busy_shard_frac", rung.busyShardFrac, "fraction");
    report.percentileMetric(false, "gen.lag_ms_p99", {rung.lagMs}, 0.99, "ms");
    report.layer("gen.sent", static_cast<double>(rung.sent), "count");
    report.layer("gen.succeeded", static_cast<double>(rung.succeeded),
                 "count");
    report.layer("gen.failed", static_cast<double>(rung.failed), "count");
}

/** Layers a span name may start with, in report order. */
const std::vector<std::string> &
spanLayers()
{
    static const std::vector<std::string> layers = {
        "trace", "engine", "mem",   "noc", "sim",
        "gpujoule", "harness", "serve", "gen"};
    return layers;
}

} // namespace

void
runTraced(const Options &options, Report &report,
          const std::string &trace_path)
{
    Tracer tracer(true);
    auto traced_start = Clock::now();

    // 1. The workload itself, shortened, with spans.
    Measured traced;
    RungResult rung;
    if (options.workload == "sweep_cold") {
        traced = measureSweep(options, report, tracer, true);
    } else if (options.workload == "cache_restart") {
        traced = measureCache(options, report, tracer, true);
    } else {
        traced = measureServe(options, report, tracer, true, &rung);
    }

    // 2. Layer probes on the workload's own points.
    GoldenTable golden = loadGolden(options, "sweep_points.tsv", report);
    harness::StudyContext context;
    harness::ScalingRunner runner(context);
    runner.attachPersistentCache(nullptr);
    std::vector<Point> probes = probePoints(options);
    Rng rng(options.seed ^ 0x1a7e5);
    LayerSums sums;
    for (const Point &p : probes) {
        probeSimulation(p, context, runner, golden, tracer, sums, report);
        probeStructures(p, rng, tracer, sums);
    }
    probeStudy(probes, runner, tracer, sums);
    probeRunCache(options, probes, context, runner, tracer, report);
    double efficiency = parallelEfficiency(efficiencyBatch(options),
                                           options.workers, context, tracer);

    report.layer("trace.ns_per_op", sums.traceNs / sums.traceOps, "ns");
    report.layer("trace.ops", sums.traceOps, "count");
    report.layer("engine.calendar_ns_per_event",
                 sums.calendarNs / sums.calendarEvents, "ns");
    report.layer("mem.cache_ns_per_probe", sums.cacheNs / sums.cacheProbes,
                 "ns");
    report.layer("mem.cache_hit_ratio",
                 sums.cacheHitSectors / sums.cacheSectors, "fraction");
    report.layer("mem.page_touch_ns", sums.pageNs / sums.pageTouches, "ns");
    for (const char *fabric : {"ring", "switch", "fullmesh", "ocs"}) {
        auto [ns, n] = sums.nocNs[fabric];
        report.layer(std::string("noc.transfer_ns.") + fabric, ns / n, "ns");
    }
    report.layer("sim.build_ms", sums.buildMs / sums.runs, "ms");
    report.layer("sim.run_ms", sums.runMs / sums.runs, "ms");
    report.layer("sim.events", sums.events, "count");
    report.layer("sim.ns_per_event", sums.runMs * 1e6 / sums.events, "ns");
    report.layer("sim.exec_cycles", sums.execCycles, "cycles");
    report.layer("sim.l1_hit_ratio", sums.l1Hit / (sums.l1Hit + sums.l1Miss),
                 "fraction");
    report.layer("sim.l2_hit_ratio", sums.l2Hit / (sums.l2Hit + sums.l2Miss),
                 "fraction");
    report.layer("sim.remote_share",
                 sums.remote / std::max(1.0, sums.remote + sums.local),
                 "fraction");
    report.layer("sim.link_bytes", sums.linkBytes, "bytes");
    report.layer("gpujoule.estimate_us",
                 sums.estimateNs / sums.estimates / 1e3, "us");
    report.layer("harness.point_ms", sums.pointMs / sums.points, "ms");
    report.layer("harness.parallel_efficiency", efficiency, "fraction");
    report.layer("harness.memo_hit_us", sums.memoNs / sums.memoHits / 1e3,
                 "us");
    report.layer("harness.study_agg_ms", sums.studyMs / sums.studies, "ms");

    // 3. serve: parse/encode/in-process probes, and the counters of an
    // open-loop rate (serve_mixed's own nominal rate, otherwise a
    // short burst with the whole catalog available from the start).
    const harness::RunOutcome &any =
        runner.run(probes.front().config, probes.front().profile);
    probeServe(context, any, tracer, report);
    if (options.workload != "serve_mixed") {
        Tracer::Scope span(tracer, "gen.burst");
        const std::vector<CatalogItem> catalog = serveCatalog();
        GoldenTable bodies = loadGolden(options, "serve_bodies.tsv", report);
        Rng burst_rng(options.seed);
        auto schedule = zipfSchedule(
            1100, serveNominalRate, popularityOrder(catalog.size(), burst_rng),
            1.0, 0.0, burst_rng);
        rung = runRung(catalog, schedule, serveNominalRate, bodies,
                       options.workDir, tracer);
        report.attempted += rung.sent;
        report.failed += rung.failed;
        for (std::size_t i = 0; i < rung.mismatched; ++i)
            report.mismatch("serve burst body");
    }
    reportRung(rung, report);

    // 4. Span totals, tracing overhead, traced end-to-end figures.
    double traced_wall_ns = secondsSince(traced_start) * 1e9;
    std::vector<Span> spans = tracer.spans();
    auto totals = layerTotals(spans);
    for (const std::string &layer : spanLayers()) {
        report.layer("span." + layer + ".self_ms", totals[layer].selfNs / 1e6,
                     "ms");
        report.layer("span." + layer + ".count",
                     static_cast<double>(totals[layer].count), "count");
    }
    Tracer scratch(true);
    const int reps = 20000;
    double span_ns = timeNs([&] {
                         for (int i = 0; i < reps; ++i)
                             scratch.close(scratch.open("probe"));
                     }) /
                     reps;
    report.layer("trace_overhead.span_ns", span_ns, "ns");
    report.layer("trace_overhead.share",
                 span_ns * static_cast<double>(spans.size()) / traced_wall_ns,
                 "fraction");
    report.layer("traced.points_per_s", traced.pointsPerS, "points/s");
    report.percentileMetric(false, "traced.warm_p50_ms", traced.warmMs,
                                  0.50, "ms");
    report.percentileMetric(false, "traced.cold_p50_ms", traced.coldMs,
                                  0.50, "ms");

    if (!tracer.writeChromeTrace(trace_path))
        report.problems.push_back("cannot write " + trace_path);
    std::printf("traced pass: %zu spans written to %s\n", spans.size(),
                trace_path.c_str());
}

} // namespace perfbench
