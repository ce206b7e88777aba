#include "serve_load.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <numeric>
#include <thread>

#include "harness/run_cache.hh"
#include "serve/client.hh"
#include "serve/socket_server.hh"

namespace perfbench
{

using namespace mmgpu;

std::vector<std::size_t>
popularityOrder(std::size_t items, Rng &rng)
{
    std::vector<std::size_t> order(items);
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = items; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

std::vector<ScheduledRequest>
zipfSchedule(std::size_t count, double rate,
             const std::vector<std::size_t> &order, double exponent,
             double intro_share, Rng &rng)
{
    const std::size_t items = order.size();
    std::vector<double> cumulative(items);
    double total = 0.0;
    for (std::size_t r = 0; r < items; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
        cumulative[r] = total;
    }
    std::vector<double> gaps(count), picks(count);
    double span = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        gaps[i] = -std::log(1.0 - rng.uniform());
        picks[i] = rng.uniform();
        if (i + 1 < count)
            span += gaps[i];
    }
    std::vector<ScheduledRequest> schedule(count);
    double t = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        double progress = span > 0.0 ? t / span : 1.0;
        std::size_t entered =
            intro_share <= 0.0
                ? items
                : std::min(items, 1 + static_cast<std::size_t>(
                                          progress / intro_share * items));
        double u = picks[i] * cumulative[entered - 1];
        std::size_t rank = std::min<std::size_t>(
            std::upper_bound(cumulative.begin(),
                             cumulative.begin() + entered, u) -
                cumulative.begin(),
            entered - 1);
        schedule[i] = {t / rate, order[rank]};
        t += gaps[i];
    }
    return schedule;
}

OpenLoopGenerator::OpenLoopGenerator(
    std::vector<ScheduledRequest> schedule, std::size_t catalog_size)
    : epoch_(Clock::now()), schedule_(std::move(schedule)),
      answered_(new std::atomic<bool>[catalog_size]),
      timing_(schedule_.size())
{
    for (std::size_t i = 0; i < catalog_size; ++i)
        answered_[i].store(false);
}

void
OpenLoopGenerator::sendAll(const std::function<bool(std::size_t)> &send)
{
    epoch_ = Clock::now();
    for (std::size_t i = 0; i < schedule_.size(); ++i) {
        std::this_thread::sleep_until(
            epoch_ + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             schedule_[i].dueS)));
        {
            // Stamp before sending: the answer may arrive before
            // send() returns.
            std::lock_guard<std::mutex> lock(mutex_);
            Timing &t = timing_[i];
            t.warm = answered_[schedule_[i].item].load();
            t.sentS = nowS();
            ++sentCount_;
            t.outstandingAtSend = sentCount_ - doneCount_;
        }
        if (!send(i))
            complete(i, false);
    }
}

void
OpenLoopGenerator::complete(std::size_t index, bool ok)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Timing &t = timing_[index];
    if (t.doneS >= 0.0)
        return;
    t.doneS = nowS();
    t.ok = ok;
    ++doneCount_;
    if (ok)
        answered_[schedule_[index].item].store(true);
    cv_.notify_all();
}

bool
OpenLoopGenerator::waitAll(double timeout_s)
{
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                        [&] { return doneCount_ == schedule_.size(); });
}

std::vector<double>
OpenLoopGenerator::latenciesMs(bool warm) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (std::size_t i = 0; i < timing_.size(); ++i) {
        const Timing &t = timing_[i];
        if (t.sentS < 0.0 || t.warm != warm)
            continue;
        out.push_back(t.ok && t.doneS >= 0.0
                          ? (t.doneS - schedule_[i].dueS) * 1e3
                          : std::numeric_limits<double>::infinity());
    }
    return out;
}

std::vector<double>
OpenLoopGenerator::lagsMs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (std::size_t i = 0; i < timing_.size(); ++i)
        if (timing_[i].sentS >= 0.0)
            out.push_back((timing_[i].sentS - schedule_[i].dueS) * 1e3);
    return out;
}

std::size_t
OpenLoopGenerator::sent() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sentCount_;
}

std::size_t
OpenLoopGenerator::succeeded() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const Timing &t : timing_)
        n += t.ok ? 1 : 0;
    return n;
}

std::size_t
OpenLoopGenerator::failedCount() const
{
    return sent() - succeeded();
}

double
OpenLoopGenerator::offeredRate() const
{
    if (schedule_.size() < 2)
        return 0.0;
    double span = schedule_.back().dueS - schedule_.front().dueS;
    return span > 0.0 ? static_cast<double>(schedule_.size() - 1) / span
                      : 0.0;
}

double
OpenLoopGenerator::backlogGrowth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t half = schedule_.size() / 2;
    double n = 0, sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (std::size_t i = half; i < schedule_.size(); ++i) {
        double x = schedule_[i].dueS;
        auto y = static_cast<double>(timing_[i].outstandingAtSend);
        n += 1;
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    double denom = n * sxx - sx * sx;
    if (n < 2 || denom <= 0.0)
        return 0.0;
    double slope = (n * sxy - sx * sy) / denom;
    return slope * (schedule_.back().dueS - schedule_[half].dueS);
}

RungResult
runRung(const std::vector<CatalogItem> &catalog,
        const std::vector<ScheduledRequest> &schedule, double rate,
        const GoldenTable &golden, const std::string &work_dir,
        Tracer &tracer)
{
    RungResult result;
    result.rate = rate;

    // Request lines are built before the clock starts.
    std::vector<std::string> ids(schedule.size()), lines(schedule.size());
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        ids[i] = "r" + std::to_string(i);
        lines[i] = catalog[schedule[i].item].requestLine(ids[i]);
    }

    auto setup_start = Clock::now();
    int setup_span = tracer.open("serve.setup");
    auto context = std::make_unique<harness::StudyContext>();
    freshDirectory(work_dir + "/serve-cache");
    auto cache = std::make_unique<harness::RunCache>(
        work_dir + "/serve-cache/runs.json");
    serve::ServeOptions options;
    options.shards = serveShards;
    options.queueDepth = 1 << 16; // never reject: backlog shows as latency
    options.sampleMs = 50;
    options.timeseriesCap = 4096;
    auto service = std::make_unique<serve::SimService>(options, *context);
    service->runner().attachPersistentCache(cache.get());
    service->start();
    // AF_UNIX paths are limited to ~107 bytes; a path relative to the
    // working directory stays short wherever the checkout lives.
    auto server = std::make_unique<serve::SocketServer>(
        *service,
        std::filesystem::proximate(work_dir + "/serve.sock").string());
    bool started = server->start().ok();
    std::vector<std::unique_ptr<serve::ServeClient>> clients;
    for (std::size_t c = 0; started && c < serveConnections; ++c) {
        clients.push_back(std::make_unique<serve::ServeClient>());
        started = clients.back()->connect(server->path()).ok();
    }
    tracer.close(setup_span);
    result.setupS = secondsSince(setup_start);

    OpenLoopGenerator gen(schedule, catalog.size());
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> mismatched{0};
    std::vector<std::thread> receivers;
    for (std::size_t c = 0; started && c < clients.size(); ++c) {
        receivers.emplace_back([&, c] {
            serve::ServeClient &client = *clients[c];
            while (!stop.load()) {
                Result<std::string> line = client.recvLine(100);
                if (!line.ok()) {
                    if (line.error().code == ErrCode::Timeout)
                        continue;
                    return;
                }
                Tracer::Scope span(tracer, "gen.receive");
                Result<serve::Response> response =
                    serve::parseResponse(line.value());
                if (!response.ok() || response.value().id.size() < 2)
                    continue;
                std::size_t index =
                    std::stoul(response.value().id.substr(1));
                if (index >= schedule.size())
                    continue;
                bool ok = response.value().status ==
                          serve::ResponseStatus::Ok;
                if (ok) {
                    std::string body =
                        blankResponseId(line.value(), ids[index]);
                    if (!golden.matches(catalog[schedule[index].item].key,
                                        digestOf(body))) {
                        ++mismatched;
                        ok = false;
                    }
                }
                gen.complete(index, ok);
            }
        });
    }

    if (started) {
        gen.sendAll([&](std::size_t i) {
            Tracer::Scope span(tracer, "gen.send", ids[i]);
            return clients[i % clients.size()]->sendLine(lines[i]).ok();
        });
        gen.waitAll(120.0);
    }
    stop.store(true);
    for (auto &t : receivers)
        t.join();

    result.sent = started ? gen.sent() : schedule.size();
    result.succeeded = started ? gen.succeeded() : 0;
    result.failed = started ? gen.failedCount() : schedule.size();
    result.mismatched = mismatched.load();
    result.offeredRate = gen.offeredRate();
    result.backlogGrowth = gen.backlogGrowth();
    result.warmMs = gen.latenciesMs(true);
    result.coldMs = gen.latenciesMs(false);
    result.lagMs = gen.lagsMs();
    result.stats = service->stats();
    double busy = 0.0;
    std::size_t samples = 0;
    for (const serve::StatsSample &s : service->timeseries()) {
        busy += static_cast<double>(s.busyShards);
        result.peakQueueDepth = std::max(result.peakQueueDepth,
                                         s.queueDepth);
        ++samples;
    }
    if (samples > 0)
        result.busyShardFrac =
            busy / (static_cast<double>(samples) * serveShards);

    for (auto &client : clients)
        client->close();
    server->stop();
    service->beginShutdown();
    service->join();
    return result;
}

} // namespace perfbench
