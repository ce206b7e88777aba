#include "workloads.hh"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <thread>

#include "harness/parallel_runner.hh"
#include "harness/run_cache.hh"
#include "harness/study.hh"
#include "serve/request.hh"

namespace perfbench
{

using namespace mmgpu;

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

void
releaseFreeMemory()
{
    malloc_trim(0);
}

void
freshDirectory(const std::string &path)
{
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
}

GoldenTable
loadGolden(const Options &options, const std::string &file,
           Report &report)
{
    GoldenTable golden;
    std::string path = options.goldenDir + "/" + file;
    if (!golden.load(path) || golden.size() == 0)
        report.problems.push_back("golden table missing: " + path);
    return golden;
}

void
Report::percentileMetric(bool end_to_end, const std::string &name,
                               const std::vector<std::vector<double>> &groups,
                               double q, const std::string &unit)
{
    std::vector<double> values;
    std::size_t fewest = groups.empty() ? 0 : SIZE_MAX;
    std::size_t fewest_beyond = fewest;
    bool ok = !groups.empty();
    for (const auto &samples : groups) {
        Percentile p = percentile(samples, q);
        ok = ok && p.reportable() && std::isfinite(p.value);
        fewest = std::min(fewest, p.samples);
        fewest_beyond = std::min(fewest_beyond, p.beyond);
        values.push_back(p.value);
    }
    double value = mean(values);
    std::printf("  %-24s %.4f %s (mean of %zu, each n>=%zu, >=%zu "
                "beyond)\n",
                name.c_str(), value, unit.c_str(), groups.size(), fewest,
                fewest_beyond);
    if (!ok) {
        problems.push_back(name + ": a repetition has too few samples "
                                  "(n>=" + std::to_string(fewest) + ")");
        return;
    }
    (end_to_end ? endToEnd : perLayer).push_back({name, value, unit});
}

bool
checkPoint(const GoldenTable &golden, const Point &point,
           const sim::PerfResult &perf, const joule::EnergyBreakdown &energy)
{
    return golden.matches(point.key(), outcomeDigest(perf, energy));
}

// ---------------------------------------------------------------- sweep

namespace
{

/** Set-up repetitions per sweep round / serve rate. */
constexpr int setupRepeats = 5;

/** Fresh-runner re-runs of a sweep round in one warm block (>1000
 *  answers, enough for p99). */
constexpr int warmRepeats = 30;

/** Host time given to warm blocks after each sweep round, s. */
constexpr double warmSeconds = 1.0;

} // namespace

std::vector<double>
pointLatenciesMs(const std::vector<double> &done, unsigned workers)
{
    // ParallelRunner workers claim jobs in queue order off one cursor,
    // so job i >= workers starts when the (i - workers + 1)-th job
    // finishes; the first `workers` jobs start at once.
    std::vector<double> order = done;
    std::sort(order.begin(), order.end());
    std::vector<double> out(done.size());
    for (std::size_t i = 0; i < done.size(); ++i) {
        double start = i < workers ? 0.0 : order[i - workers];
        out[i] = (done[i] - start) * 1e3;
    }
    return out;
}

Measured
measureSweep(const Options &options, Report &report, Tracer &tracer,
             bool single_round)
{
    GoldenTable golden = loadGolden(options, "sweep_points.tsv", report);
    SweepRounds rounds(options.seed);
    std::vector<double> setups, cold_ms, round_rates;
    std::vector<std::vector<double>> warm_ms;
    double drain_s = 0.0, warm_s = 0.0;
    std::size_t points_done = 0, warm_answers = 0;
    const std::size_t cold_needed = samplesNeeded(0.90);

    auto start = Clock::now();
    // Rounds run in complementary pairs, so every run covers the whole
    // suite an equal number of times and its mix does not depend on
    // the seed. Start another pair while it is expected to end within
    // options.seconds, and always until p90 has enough samples.
    auto another_round = [&](int round) {
        if (round == 0)
            return true;
        if (single_round)
            return false;
        if (round % 2 == 1)
            return true;
        double elapsed = secondsSince(start);
        return cold_ms.size() < cold_needed ||
               elapsed + 2 * elapsed / round <= options.seconds;
    };
    for (int round = 0; another_round(round); ++round) {
        releaseFreeMemory();
        std::vector<Point> points = rounds.next();
        std::string id = "round" + std::to_string(round);
        Tracer::Scope round_span(tracer, "harness.round", id);

        // Set-up: calibration, a fresh empty cache directory, the
        // runner and its queue. Repeated so set-up time is a median;
        // the last repetition is the one drained.
        std::unique_ptr<harness::StudyContext> context;
        std::unique_ptr<harness::RunCache> cache;
        std::unique_ptr<harness::ScalingRunner> runner_ptr;
        std::unique_ptr<harness::ParallelRunner> parallel_ptr;
        for (int rep = 0; rep < setupRepeats; ++rep) {
            parallel_ptr.reset();
            runner_ptr.reset();
            cache.reset();
            auto setup_start = Clock::now();
            Tracer::Scope setup_span(tracer, "harness.setup", id);
            context = std::make_unique<harness::StudyContext>();
            std::string dir =
                options.workDir + "/sweep-" + std::to_string(round);
            freshDirectory(dir);
            cache = std::make_unique<harness::RunCache>(dir + "/runs.json");
            runner_ptr = std::make_unique<harness::ScalingRunner>(*context);
            runner_ptr->attachPersistentCache(cache.get());
            parallel_ptr = std::make_unique<harness::ParallelRunner>(
                *runner_ptr, options.workers);
            for (const Point &p : points)
                parallel_ptr->enqueue(p.config, p.profile);
            setups.push_back(secondsSince(setup_start));
        }
        harness::ScalingRunner &runner = *runner_ptr;
        harness::ParallelRunner &parallel = *parallel_ptr;

        // Drain on a helper thread; this thread timestamps each
        // point's completion (when its result became available).
        std::vector<double> done(points.size(), -1.0);
        std::atomic<bool> finished{false};
        harness::DrainReport drain;
        auto drain_start = Clock::now();
        int drain_span = tracer.open("harness.drain", id);
        std::thread drainer([&] {
            drain = parallel.drain();
            cache->flush();
            finished.store(true);
        });
        std::size_t remaining = points.size();
        while (remaining > 0 && !finished.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            for (std::size_t i = 0; i < points.size(); ++i) {
                if (done[i] < 0.0 &&
                    runner.cached(points[i].config, points[i].profile)) {
                    done[i] = secondsSince(drain_start);
                    --remaining;
                }
            }
        }
        drainer.join();
        tracer.close(drain_span);
        double wall = secondsSince(drain_start);
        for (double &d : done)
            if (d < 0.0)
                d = wall;
        for (double ms : pointLatenciesMs(done, options.workers))
            cold_ms.push_back(ms);
        drain_s += wall;
        round_rates.push_back(points.size() / wall);
        points_done += points.size();
        report.attempted += points.size();
        report.failed += drain.failures.size();

        // Verify every result against the golden table.
        std::vector<std::uint64_t> persisted(points.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            auto outcome = runner.tryRun(points[i].config, points[i].profile);
            if (!outcome.ok())
                continue;
            const harness::RunOutcome &o = *outcome.value();
            if (!checkPoint(golden, points[i], o.perf, o.energy))
                report.mismatch(points[i].key());
            persisted[i] =
                outcomeDigest(o.perf, o.energy, RecordFields::Persisted);
        }

        // Warm: the sweep again in a "new process" — a fresh runner on
        // the cache directory the drain just wrote, answering every
        // point from disk. Blocks of re-runs repeat for warmSeconds;
        // each block is one repetition of the warm percentiles.
        int warm_span = tracer.open("harness.warm_sweep", id);
        auto warm_start = Clock::now();
        std::size_t warm_queries = 0;
        for (int block = 0; block == 0 || (!single_round &&
                                           secondsSince(warm_start) <
                                               warmSeconds);
             ++block) {
            warm_ms.emplace_back();
            for (int r = 0; r < warmRepeats; ++r) {
                harness::ScalingRunner rerun(*context);
                rerun.attachPersistentCache(cache.get());
                for (std::size_t i = 0; i < points.size(); ++i) {
                    auto t0 = Clock::now();
                    const harness::RunOutcome &o =
                        rerun.run(points[i].config, points[i].profile);
                    warm_ms.back().push_back(secondsSince(t0) * 1e3);
                    if (block == 0 && r == 0 &&
                        outcomeDigest(o.perf, o.energy,
                                      RecordFields::Persisted) !=
                            persisted[i])
                        report.mismatch(points[i].key() +
                                        " (cache round trip)");
                }
            }
            warm_queries += warm_ms.back().size();
        }
        warm_s += secondsSince(warm_start);
        warm_answers += warm_queries;
        tracer.close(warm_span);
        std::uint64_t warm_misses = warm_queries - cache->hits();
        if (warm_misses > 0) {
            report.failed += warm_misses;
            report.problems.push_back(std::to_string(warm_misses) +
                                      " warm sweep queries missed the cache");
        }
    }

    std::printf("sweep_cold: %zu points in %zu rounds, %.3f s of drains, "
                "%u workers\n",
                points_done, round_rates.size(), drain_s, options.workers);
    Measured m;
    m.setups = std::move(setups);
    // Cold percentiles pool the rounds (a round has too few points for
    // p90) and the drain rate is a median over them; warm figures
    // average the many short blocks.
    m.coldMs = {std::move(cold_ms)};
    m.warmMs = std::move(warm_ms);
    m.pointsPerS = median(round_rates);
    m.maxRateRps = warm_answers / warm_s;
    return m;
}

// ---------------------------------------------------------------- serve

std::vector<double>
serveLadder()
{
    return {serveNominalRate, 1.5 * serveNominalRate};
}

std::size_t
serveRequestsPerRate()
{
    // Six seconds at the nominal rate: cold items enter over 4.5 s,
    // keeping cold simulations to ~40% of shard time, and every
    // repetition has >1000 cold and >20000 warm samples.
    return 24000;
}

std::vector<ScheduledRequest>
serveSchedule(std::uint64_t seed, std::size_t count, double rate)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5e77e);
    std::vector<std::size_t> order =
        popularityOrder(serveCatalog().size(), rng);
    return zipfSchedule(count, rate, order, 1.0, 0.75, rng);
}

Measured
measureServe(const Options &options, Report &report, Tracer &tracer,
             bool nominal_only, RungResult *nominal_out)
{
    GoldenTable golden = loadGolden(options, "serve_bodies.tsv", report);
    const std::vector<CatalogItem> catalog = serveCatalog();
    std::vector<double> setups;
    double max_rate = 0.0, fallback_rate = 0.0;
    RungResult nominal;
    // Set-up-only cycles (start and stop an idle service), so set-up
    // time is a median over more than the ladder's few rates.
    for (int rep = 0; rep < 2 * setupRepeats; ++rep)
        setups.push_back(
            runRung(catalog, {}, serveNominalRate, golden,
                    options.workDir, tracer)
                .setupS);
    Measured m;
    for (double rate : serveLadder()) {
        if (nominal_only && rate != serveNominalRate)
            continue;
        const bool is_nominal = rate == serveNominalRate;
        const int repeats =
            is_nominal && !nominal_only ? serveNominalRepeats : 1;
        auto schedule =
            serveSchedule(options.seed, serveRequestsPerRate(), rate);
        int met = 0;
        std::vector<double> achieved_rates;
        for (int rep = 0; rep < repeats; ++rep) {
            releaseFreeMemory();
            RungResult rung = runRung(catalog, schedule, rate, golden,
                                      options.workDir, tracer);
            setups.push_back(rung.setupS);
            report.attempted += rung.sent;
            report.failed += rung.failed;
            for (std::size_t i = 0; i < rung.mismatched; ++i)
                report.mismatch("serve body at " + std::to_string(rate) +
                                " req/s");

            Percentile warm99 = percentile(rung.warmMs, 0.99);
            bool meets = warm99.reportable() &&
                         warm99.value <= serveWarmP99LimitMs &&
                         rung.backlogGrowth <= 4.0 * serveShards;
            met += meets ? 1 : 0;
            double achieved = rung.offeredRate * rung.succeeded /
                              std::max<std::size_t>(rung.sent, 1);
            achieved_rates.push_back(achieved);
            std::printf("rate %6.1f req/s: sent %zu succeeded %zu failed %zu "
                        "| offered %.2f | warm p99 %s | backlog rise %.1f "
                        "| %s\n",
                        rate, rung.sent, rung.succeeded, rung.failed,
                        rung.offeredRate, warm99.describe().c_str(),
                        rung.backlogGrowth,
                        meets ? "meets limit" : "over limit");
            std::printf("    warm p50 %s | cold p50 %s | lag p99 %s | busy "
                        "shards %.2f\n",
                        percentile(rung.warmMs, 0.5).describe().c_str(),
                        percentile(rung.coldMs, 0.5).describe().c_str(),
                        percentile(rung.lagMs, 0.99).describe().c_str(),
                        rung.busyShardFrac);
            if (is_nominal) {
                if (warm99.value > 0.0)
                    fallback_rate =
                        achieved * serveWarmP99LimitMs / warm99.value;
                m.warmMs.push_back(rung.warmMs);
                m.coldMs.push_back(rung.coldMs);
                nominal = std::move(rung);
            }
        }
        // A rate meets the limit when most of its repetitions do.
        if (2 * met > repeats)
            max_rate = std::max(max_rate, median(achieved_rates));
        if (is_nominal)
            m.pointsPerS = median(achieved_rates);
    }
    if (max_rate == 0.0) {
        // No rate met the limit: report the nominal rate scaled down
        // by how far its p99 overshot (a positive, monotone figure).
        max_rate = fallback_rate;
    }
    m.setups = std::move(setups);
    m.maxRateRps = max_rate;
    if (nominal_out != nullptr)
        *nominal_out = std::move(nominal);
    return m;
}

// ---------------------------------------------------------------- cache

namespace
{

/** The filled cache file and what was inserted for every grid point. */
struct FilledCache
{
    std::vector<Point> grid;
    std::vector<std::uint64_t> inserted; //!< outcome digests
};

FilledCache
fillCache(const Options &options, const std::string &path,
          const GoldenTable &golden, Report &report)
{
    FilledCache filled;
    filled.grid = cacheGrid();
    harness::StudyContext context;
    harness::ScalingRunner prep(context);
    prep.attachPersistentCache(nullptr);
    harness::ParallelRunner parallel(prep, options.workers);
    std::vector<Point> bases = cacheBasePoints();
    for (const Point &p : bases)
        parallel.enqueue(p.config, p.profile);
    report.failed += parallel.drain().failures.size();
    for (const Point &p : bases) {
        auto o = prep.tryRun(p.config, p.profile);
        if (o.ok() &&
            !checkPoint(golden, p, o.value()->perf, o.value()->energy))
            report.mismatch(p.key());
    }

    harness::RunCache cache(path);
    const std::size_t snapshot_at = filled.grid.size() * 9 / 10;
    for (std::size_t i = 0; i < filled.grid.size(); ++i) {
        const Point &p = filled.grid[i];
        const harness::RunOutcome &base = prep.run(p.config, p.profile);
        joule::EnergyBreakdown energy = joule::estimate(
            harness::inputsFrom(base.perf, p.config.gpmCount,
                                p.config.totalSms()),
            context.paramsFor(p.config, p.linkEnergyScale,
                              p.constGrowthOverride));
        cache.insert(harness::runFingerprint(p.config, p.profile,
                                             p.linkEnergyScale,
                                             p.constGrowthOverride,
                                             context.calibrationFingerprint()),
                     base.perf, energy);
        filled.inserted.push_back(
            outcomeDigest(base.perf, energy, RecordFields::Persisted));
        // Snapshot most of the grid; the rest stays in the journal
        // so every reopen also replays the WAL.
        if (i + 1 == snapshot_at)
            cache.flush();
    }
    return filled;
}

} // namespace

Measured
measureCache(const Options &options, Report &report, Tracer &tracer,
             bool single_pass)
{
    GoldenTable golden = loadGolden(options, "sweep_points.tsv", report);
    const std::string dir = options.workDir + "/restart";
    freshDirectory(dir);
    const std::string path = dir + "/runs.json";
    FilledCache filled = fillCache(options, path, golden, report);
    // The seed decides the order the grid is asked in.
    Rng rng(options.seed);
    for (std::size_t i = filled.grid.size(); i > 1; --i) {
        std::size_t j = rng.below(i);
        std::swap(filled.grid[i - 1], filled.grid[j]);
        std::swap(filled.inserted[i - 1], filled.inserted[j]);
    }
    const std::vector<Point> &grid = filled.grid;
    const auto knobs = cacheKnobs();
    std::vector<sim::GpuConfig> study_configs;
    std::vector<trace::KernelProfile> study_workloads;
    for (const Point &p : cacheBasePoints()) {
        if (p.config.gpmCount == 1)
            study_workloads.push_back(p.profile);
        else if (std::none_of(study_configs.begin(), study_configs.end(),
                              [&](const sim::GpuConfig &c) {
                                  return c.name == p.config.name;
                              }))
            study_configs.push_back(p.config);
    }

    std::vector<double> setups, disk_s, memo_s;
    std::vector<std::vector<double>> cold_ms, warm_ms;
    std::vector<const harness::RunOutcome *> answers(grid.size());
    auto start = Clock::now();
    for (int pass = 0;
         pass == 0 || (!single_pass && secondsSince(start) < options.seconds);
         ++pass) {
        releaseFreeMemory();
        std::string id = "pass" + std::to_string(pass);
        auto setup_start = Clock::now();
        int setup_span = tracer.open("harness.setup", id);
        auto context = std::make_unique<harness::StudyContext>();
        int open_span = tracer.open("harness.cache_open", id);
        auto cache = std::make_unique<harness::RunCache>(path);
        tracer.close(open_span);
        harness::ScalingRunner runner(*context);
        runner.attachPersistentCache(cache.get());
        tracer.close(setup_span);
        setups.push_back(secondsSince(setup_start));

        cold_ms.emplace_back();
        warm_ms.emplace_back();
        int disk_span = tracer.open("harness.disk_pass", id);
        auto disk_start = Clock::now();
        for (std::size_t i = 0; i < grid.size(); ++i) {
            const Point &p = grid[i];
            auto t0 = Clock::now();
            answers[i] = &runner.run(p.config, p.profile, p.linkEnergyScale,
                                     p.constGrowthOverride);
            cold_ms.back().push_back(secondsSince(t0) * 1e3);
        }
        disk_s.push_back(secondsSince(disk_start));
        tracer.close(disk_span);

        int memo_span = tracer.open("harness.memo_pass", id);
        auto memo_start = Clock::now();
        for (const Point &p : grid) {
            auto t0 = Clock::now();
            runner.run(p.config, p.profile, p.linkEnergyScale,
                       p.constGrowthOverride);
            warm_ms.back().push_back(secondsSince(t0) * 1e3);
        }
        memo_s.push_back(secondsSince(memo_start));
        tracer.close(memo_span);

        {
            Tracer::Scope span(tracer, "harness.study_agg", id);
            for (const sim::GpuConfig &config : study_configs)
                for (auto [scale, growth] : knobs)
                    harness::scalingStudy(runner, config, study_workloads,
                                          scale, growth);
        }

        report.attempted += grid.size();
        std::uint64_t misses = grid.size() - cache->hits();
        if (misses > 0) {
            report.failed += misses;
            report.problems.push_back(std::to_string(misses) +
                                      " grid points missed the cache");
        }
        for (std::size_t i = 0; i < grid.size(); ++i)
            if (outcomeDigest(answers[i]->perf, answers[i]->energy,
                              RecordFields::Persisted) !=
                filled.inserted[i])
                report.mismatch(grid[i].key() + " knobs " +
                                std::to_string(grid[i].linkEnergyScale));
    }

    std::printf("cache_restart: %zu grid points, %zu passes\n", grid.size(),
                disk_s.size());
    Measured m;
    m.setups = std::move(setups);
    m.coldMs = std::move(cold_ms);
    m.warmMs = std::move(warm_ms);
    // Answers over the time of every pass: the host's speed varies
    // from pass to pass, and a whole-run average is its steadiest
    // summary.
    const double answered = static_cast<double>(grid.size() * disk_s.size());
    m.pointsPerS =
        answered / std::accumulate(disk_s.begin(), disk_s.end(), 0.0);
    m.maxRateRps =
        answered / std::accumulate(memo_s.begin(), memo_s.end(), 0.0);
    return m;
}

// ---------------------------------------------------------------- e2e

void
reportEndToEnd(const Measured &m, Report &report)
{
    report.e2e("setup_s", median(m.setups), "s");
    report.e2e("points_per_s", m.pointsPerS, "points/s");
    report.percentileMetric(true, "warm_p50_ms", m.warmMs, 0.50, "ms");
    report.percentileMetric(true, "warm_p99_ms", m.warmMs, 0.99, "ms");
    report.percentileMetric(true, "cold_p50_ms", m.coldMs, 0.50, "ms");
    report.percentileMetric(true, "cold_p90_ms", m.coldMs, 0.90, "ms");
    report.e2e("max_rate_rps", m.maxRateRps, "req/s");
    report.e2e("peak_rss_mb", peakRssMb(), "MiB");
}

// ---------------------------------------------------------------- golden

int
writeGolden(const Options &options)
{
    std::filesystem::create_directories(options.goldenDir);
    harness::StudyContext context;

    harness::ScalingRunner runner(context);
    runner.attachPersistentCache(nullptr);
    harness::ParallelRunner parallel(runner, options.workers);
    std::vector<Point> points = allSweepPoints();
    for (const Point &p : points)
        parallel.enqueue(p.config, p.profile);
    if (!parallel.drain().ok())
        return 1;
    GoldenTable sweep;
    for (const Point &p : points) {
        const harness::RunOutcome &o = runner.run(p.config, p.profile);
        sweep.put(p.key(), outcomeDigest(o.perf, o.energy));
    }

    serve::ServeOptions serve_options;
    serve_options.shards = options.workers;
    serve::SimService service(serve_options, context);
    service.runner().attachPersistentCache(nullptr);
    service.start();
    GoldenTable bodies;
    for (const CatalogItem &item : serveCatalog()) {
        Result<serve::Request> request =
            serve::parseRequest(item.requestLine("g"));
        if (!request.ok())
            return 1;
        serve::Response response = service.call(request.value());
        if (response.status != serve::ResponseStatus::Ok)
            return 1;
        bodies.put(item.key,
                   digestOf(blankResponseId(response.encode(), "g")));
    }
    service.beginShutdown();
    service.join();

    bool ok = sweep.save(options.goldenDir + "/sweep_points.tsv") &&
              bodies.save(options.goldenDir + "/serve_bodies.tsv");
    std::printf("wrote %zu sweep digests and %zu serve body digests\n",
                sweep.size(), bodies.size());
    return ok ? 0 : 1;
}

} // namespace perfbench
