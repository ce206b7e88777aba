/**
 * @file
 * mmgpu_serve — the long-lived simulation daemon.
 *
 * Calibrates once, then owns the machine pool, the memoized run
 * cache, and a worker fleet for as long as the process lives, so
 * every client request after the first pays marginal simulation
 * cost only. Two front ends share one SimService engine:
 *
 *   mmgpu_serve --socket /tmp/mmgpu.sock          # serve clients
 *   mmgpu_serve --batch sweep.txt                 # scripted session
 *
 * Socket mode runs until a client sends {"type":"shutdown"}; batch
 * mode drains the script and exits (nonzero when any request failed).
 *
 * Options:
 *   --socket <path>       listen on this unix socket
 *   --batch <file>        run a request script ('-' = stdin)
 *   --shards <n>          worker shards (default 2)
 *   --queue-depth <n>     admission bound (default 64)
 *   --flush-sec <sec>     run-cache background flush period
 *                         (default: MMGPU_CACHE_FLUSH_SEC)
 *   --sample-ms <ms>      health-sample period (default 200)
 *   --stats-csv <file>    write the health timeseries on exit
 *   --prof-out <file>     write profiler aggregates as JSON on exit
 *                         (per-shard job timers always; engine
 *                         timing sites when MMGPU_PROFILE=1)
 *   --quota-rate <r>      per-client admission tokens per second
 *                         (0 = quotas off, the default)
 *   --quota-burst <n>     per-client token-bucket burst (default 16)
 *   --shed-watermark <f>  queue fill fraction past which batch work
 *                         is shed (default 0.85)
 *
 * Environment: the serve chaos knobs (MMGPU_FAULT_SERVE_*, see
 * src/fault/fault_plan.hh) and the front-end caps
 * (MMGPU_SERVE_LINE_CAP, MMGPU_SERVE_WRITE_BUDGET_SEC) are read at
 * startup and wired through; a daemon running a chaos campaign is
 * the same binary as a production one.
 *
 * Flags accept both "--flag value" and "--flag=value".
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/prof.hh"
#include "fault/fault_plan.hh"
#include "harness/run_cache.hh"
#include "serve/batch.hh"
#include "serve/service.hh"
#include "serve/socket_server.hh"

using namespace mmgpu;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s (--socket PATH | --batch FILE)\n"
                 "          [--shards N] [--queue-depth N] "
                 "[--flush-sec SEC]\n"
                 "          [--sample-ms MS] [--stats-csv FILE]\n"
                 "          [--prof-out FILE] [--quota-rate R] "
                 "[--quota-burst N]\n"
                 "          [--shed-watermark F]\n",
                 argv0);
    std::exit(2);
}

void
writeStatsCsv(const std::string &path,
              const std::vector<serve::StatsSample> &samples)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "mmgpu_serve: cannot write %s\n",
                     path.c_str());
        return;
    }
    out << "t_ms,queue_depth,busy_shards,inflight,cache_hit_rate\n";
    for (const serve::StatsSample &s : samples) {
        out << s.tMs << ',' << s.queueDepth << ',' << s.busyShards
            << ',' << s.inflight << ',' << s.cacheHitRate << '\n';
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket_path;
    std::string batch_path;
    std::string stats_csv;
    std::string prof_out;
    serve::ServeOptions options;

    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::size_t eq = arg.find('=');
        if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
            args.push_back(arg.substr(0, eq));
            args.push_back(arg.substr(eq + 1));
        } else {
            args.push_back(arg);
        }
    }

    for (std::size_t i = 0; i < args.size(); ++i) {
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= args.size()) {
                std::fprintf(stderr, "%s wants a value\n", flag);
                usage(argv[0]);
            }
            return args[++i].c_str();
        };
        if (args[i] == "--socket") {
            socket_path = need("--socket");
        } else if (args[i] == "--batch") {
            batch_path = need("--batch");
        } else if (args[i] == "--shards") {
            options.shards = std::strtoul(need("--shards"), nullptr, 0);
        } else if (args[i] == "--queue-depth") {
            options.queueDepth =
                std::strtoul(need("--queue-depth"), nullptr, 0);
        } else if (args[i] == "--flush-sec") {
            options.cacheFlushSec = std::atof(need("--flush-sec"));
        } else if (args[i] == "--sample-ms") {
            options.sampleMs =
                std::strtol(need("--sample-ms"), nullptr, 0);
        } else if (args[i] == "--stats-csv") {
            stats_csv = need("--stats-csv");
        } else if (args[i] == "--prof-out") {
            prof_out = need("--prof-out");
        } else if (args[i] == "--quota-rate") {
            options.quotaRatePerSec =
                std::atof(need("--quota-rate"));
        } else if (args[i] == "--quota-burst") {
            options.quotaBurst = std::atof(need("--quota-burst"));
        } else if (args[i] == "--shed-watermark") {
            options.shedWatermark =
                std::atof(need("--shed-watermark"));
        } else {
            usage(argv[0]);
        }
    }
    if (socket_path.empty() && batch_path.empty())
        usage(argv[0]);
    if (options.shards == 0 || options.queueDepth == 0) {
        std::fprintf(stderr,
                     "--shards and --queue-depth must be > 0\n");
        return 2;
    }

    // The chaos campaign, if any, comes from the environment so the
    // production binary and the chaos-test binary are identical.
    // The plan outlives the service (held by reference).
    static const fault::FaultPlan fault_plan = fault::FaultPlan::fromEnv();
    if (fault_plan.serve.enabled()) {
        std::fprintf(stderr,
                     "mmgpu_serve: serve chaos plan active "
                     "(fingerprint %016llx)\n",
                     static_cast<unsigned long long>(
                         fault_plan.fingerprint()));
        options.faultPlan = &fault_plan;
    }

    std::fprintf(stderr, "mmgpu_serve: calibrating...\n");
    harness::StudyContext context;
    serve::SimService service(options, context);
    if (fault_plan.serve.walTearAtAppend != 0) {
        if (harness::RunCache *cache =
                service.runner().persistentCache())
            cache->armWalTear(fault_plan.serve.walTearAtAppend);
    }
    service.start();

    int exit_code = 0;
    if (!batch_path.empty()) {
        std::ifstream file;
        std::istream *in = &std::cin;
        if (batch_path != "-") {
            file.open(batch_path);
            if (!file) {
                std::fprintf(stderr,
                             "mmgpu_serve: cannot read %s\n",
                             batch_path.c_str());
                return 2;
            }
            in = &file;
        }
        serve::BatchResult result =
            serve::runBatch(service, *in, std::cout);
        std::fprintf(stderr,
                     "mmgpu_serve: batch done, %zu requests, "
                     "%zu failures\n",
                     result.requests, result.failures);
        if (result.failures > 0)
            exit_code = 1;
        service.beginShutdown();
    } else {
        serve::SocketServerOptions server_options =
            serve::SocketServerOptions::fromEnv();
        if (fault_plan.serve.enabled())
            server_options.faultPlan = &fault_plan;
        serve::SocketServer server(service, socket_path,
                                   server_options);
        if (Result<void> started = server.start(); !started.ok()) {
            std::fprintf(stderr, "mmgpu_serve: %s\n",
                         started.error().describe().c_str());
            return 1;
        }
        std::fprintf(stderr, "mmgpu_serve: listening on %s\n",
                     socket_path.c_str());
        service.waitShutdown();
        std::fprintf(stderr, "mmgpu_serve: shutting down\n");
        server.stop();
    }

    service.join();
    if (!stats_csv.empty())
        writeStatsCsv(stats_csv, service.timeseries());
    if (!prof_out.empty() && !prof::writeJson(prof_out)) {
        std::fprintf(stderr, "mmgpu_serve: cannot write %s\n",
                     prof_out.c_str());
    }

    serve::ServiceStats stats = service.stats();
    std::fprintf(stderr,
                 "mmgpu_serve: served %llu ok / %llu failed / "
                 "%llu rejected; %llu sims, %llu dedup-attached\n",
                 static_cast<unsigned long long>(stats.completed),
                 static_cast<unsigned long long>(stats.failed),
                 static_cast<unsigned long long>(stats.rejected),
                 static_cast<unsigned long long>(
                     stats.simulationsStarted),
                 static_cast<unsigned long long>(stats.dedupAttached));
    return exit_code;
}
