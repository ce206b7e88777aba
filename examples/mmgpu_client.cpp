/**
 * @file
 * mmgpu_client — command-line client of the mmgpu_serve daemon.
 *
 * Verbs (one per invocation, all against --connect <socket>):
 *
 *   --ping                     liveness probe
 *   --run                      one design point (spec flags below)
 *   --study                    scaling study (default workload: all)
 *   --stats                    service statistics snapshot
 *   --prof                     profiler aggregates snapshot
 *   --shutdown                 ask the daemon to drain and exit
 *   --send FILE                send a request script ('-' = stdin),
 *                              printing responses in arrival order
 *   --verify-fig6              recompute the Figure 6 sweep
 *                              in-process (cache disabled) and
 *                              assert the daemon's study responses
 *                              are bit-identical, hexfloat by
 *                              hexfloat; nonzero exit on mismatch
 *   --soak N                   pipeline the fig6 run sweep N times
 *                              (duplicate-heavy load) and verify
 *                              every response arrives ok
 *
 * Spec flags (run/study/verify): --workload, --gpms, --bw,
 * --topology, --domain, --placement, --cta-sched,
 * --link-energy-scale, --priority. --gpms-list (verify/soak) limits
 * the sweep's module counts, e.g. --gpms-list 4,32.
 *
 * Resilience flags: --retries N (attempts per request, default 4),
 * --hedge-after-ms MS (hedged second connection for study requests),
 * --retry-seed N (deterministic backoff jitter), --client NAME
 * (quota identity; defaults to the connection). --soak and
 * --verify-fig6 survive injected connection resets, shard crashes,
 * and load shedding by retrying per this policy, exit nonzero on any
 * mismatch/timeout/terminal failure, and end with a summary table
 * (requests, retries, reconnects, hedges, rejects by reason,
 * latency p50/p95).
 *
 * Flags accept both "--flag value" and "--flag=value".
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/wallclock.hh"
#include "harness/study.hh"
#include "noc/topology_registry.hh"
#include "serve/client.hh"
#include "serve/request.hh"

using namespace mmgpu;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --connect SOCKET (--ping | --run | --study | "
        "--stats |\n"
        "          --prof | --shutdown | --send FILE | "
        "--verify-fig6 | --soak N)\n"
        "          [--workload W] [--gpms N] [--bw 1x|2x|4x]\n"
        "          [--topology ring|switch|fullmesh|ocs] "
        "[--domain package|board]\n"
        "          [--placement first-touch|striped|locality]\n"
        "          [--cta-sched distributed|round-robin]\n"
        "          [--link-energy-scale F] [--priority 0|1|2]\n"
        "          [--gpms-list N,N,...] [--timeout-ms MS]\n"
        "          [--retries N] [--hedge-after-ms MS]\n"
        "          [--retry-seed N] [--client NAME]\n",
        argv0);
    std::exit(2);
}

/** q-th percentile (q in [0,1]) of @p samples; 0 when empty. */
double
percentileMs(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    std::size_t index = static_cast<std::size_t>(
        q * static_cast<double>(samples.size() - 1) + 0.5);
    return samples[std::min(index, samples.size() - 1)];
}

/** The end-of-run summary the soak/verify verbs always print. */
void
printSummary(const serve::ClientCounters &counters,
             const std::vector<double> &latencies)
{
    std::printf("---- mmgpu_client summary ----\n");
    std::printf("  requests          %10llu\n",
                static_cast<unsigned long long>(counters.requests));
    std::printf("  retries           %10llu\n",
                static_cast<unsigned long long>(counters.retries));
    std::printf("  reconnects        %10llu\n",
                static_cast<unsigned long long>(counters.reconnects));
    std::printf("  hedges launched   %10llu\n",
                static_cast<unsigned long long>(
                    counters.hedgesLaunched));
    std::printf("  hedges won        %10llu\n",
                static_cast<unsigned long long>(counters.hedgesWon));
    std::printf("  rejected: quota   %10llu\n",
                static_cast<unsigned long long>(
                    counters.rejectedQuota));
    std::printf("  rejected: shed    %10llu\n",
                static_cast<unsigned long long>(
                    counters.rejectedShed));
    std::printf("  rejected: other   %10llu\n",
                static_cast<unsigned long long>(
                    counters.rejectedOther));
    std::printf("  latency p50       %10.1f ms\n",
                percentileMs(latencies, 0.50));
    std::printf("  latency p95       %10.1f ms\n",
                percentileMs(latencies, 0.95));
}

std::vector<unsigned>
parseGpmList(const std::string &text)
{
    std::vector<unsigned> counts;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t comma = text.find(',', start);
        std::string token =
            text.substr(start, comma == std::string::npos
                                   ? std::string::npos
                                   : comma - start);
        if (!token.empty())
            counts.push_back(static_cast<unsigned>(
                std::strtoul(token.c_str(), nullptr, 0)));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return counts;
}

/** Fetch "points" entries keyed by workload from a study response. */
std::map<std::string, const JsonValue *>
studyPointsByWorkload(const JsonValue &result)
{
    std::map<std::string, const JsonValue *> byName;
    const JsonValue *points = result.find("points");
    if (points == nullptr)
        return byName;
    for (std::size_t i = 0; i < points->size(); ++i) {
        const JsonValue *point = points->at(i);
        const JsonValue *name =
            point != nullptr ? point->find("workload") : nullptr;
        if (name != nullptr && name->isString())
            byName[name->asString()] = point;
    }
    return byName;
}

/** Compare one hexfloat field; prints and returns false on drift. */
bool
checkField(const std::string &workload, const char *field,
           double local, const JsonValue *point)
{
    const JsonValue *remote =
        point != nullptr ? point->find(field) : nullptr;
    std::string expect = encodeHexDouble(local);
    if (remote == nullptr || !remote->isString() ||
        remote->asString() != expect) {
        std::fprintf(stderr,
                     "MISMATCH %s.%s: daemon=%s local=%s\n",
                     workload.c_str(), field,
                     remote != nullptr && remote->isString()
                         ? remote->asString().c_str()
                         : "<missing>",
                     expect.c_str());
        return false;
    }
    return true;
}

int
verifyFig6(serve::ServeClient &client,
           const std::vector<unsigned> &gpm_counts,
           const serve::RetryPolicy &policy)
{
    std::vector<double> latencies;
    // The reference: a fresh in-process computation with the
    // persistent cache detached, so nothing the daemon wrote can
    // leak into the numbers being checked against it.
    std::fprintf(stderr, "verify-fig6: calibrating locally...\n");
    harness::StudyContext context;
    harness::ScalingRunner runner(context);
    runner.attachPersistentCache(nullptr);

    bool all_ok = true;
    for (unsigned gpms : gpm_counts) {
        serve::Request request;
        request.type = serve::RequestType::Study;
        request.id = "fig6-" + std::to_string(gpms);
        request.spec.workload = "all";
        request.spec.gpms = gpms;
        request.spec.bw = sim::BwSetting::Bw2x;

        std::int64_t asked_ms = wallclock::nowMs();
        Result<serve::Response> reply = client.call(request, policy);
        if (!reply.ok() ||
            reply.value().status != serve::ResponseStatus::Ok) {
            std::fprintf(stderr, "verify-fig6: %u GPMs: %s\n", gpms,
                         reply.ok()
                             ? reply.value().message.c_str()
                             : reply.error().describe().c_str());
            printSummary(client.counters(), latencies);
            return 1;
        }
        latencies.push_back(
            static_cast<double>(wallclock::nowMs() - asked_ms));

        sim::GpuConfig config = request.spec.config();
        std::vector<harness::ScalingPoint> local =
            harness::scalingStudy(runner, config,
                                  trace::scalingWorkloads());
        auto remote = studyPointsByWorkload(reply.value().result);

        for (const harness::ScalingPoint &point : local) {
            auto it = remote.find(point.workload);
            const JsonValue *rp =
                it == remote.end() ? nullptr : it->second;
            bool ok = rp != nullptr;
            ok = checkField(point.workload, "speedup",
                            point.speedup, rp) && ok;
            ok = checkField(point.workload, "energy-ratio",
                            point.energyRatio, rp) && ok;
            ok = checkField(point.workload, "edpse", point.edpse,
                            rp) && ok;
            ok = checkField(point.workload, "ed2pse", point.ed2pse,
                            rp) && ok;
            ok = checkField(point.workload, "perf-per-watt-se",
                            point.perfPerWattSE, rp) && ok;
            all_ok = all_ok && ok;
        }
        std::fprintf(stderr,
                     "verify-fig6: %u GPMs: %zu workloads %s\n",
                     gpms, local.size(),
                     all_ok ? "bit-identical" : "MISMATCHED");
    }
    std::printf("verify-fig6: %s\n", all_ok ? "PASS" : "FAIL");
    printSummary(client.counters(), latencies);
    return all_ok ? 0 : 1;
}

int
soak(serve::ServeClient &client, const std::string &socket_path,
     unsigned rounds, const std::vector<unsigned> &gpm_counts,
     std::int64_t timeout_ms, const serve::RetryPolicy &policy,
     const std::string &client_name)
{
    // Pipeline the whole duplicate-heavy load before reading a
    // single response: the daemon's admission queue, dedup table,
    // and per-connection write path all get exercised at depth.
    // Resilience is handled here rather than via call() so the
    // pipelined shape survives chaos: a broken connection re-sends
    // every unanswered request (the daemon memoizes, so re-asks are
    // cheap), rejects retry after the daemon's hint, and only
    // terminal verdicts (poisoned, config) or a response timeout
    // fail the soak.
    struct Pending
    {
        serve::Request request;
        std::int64_t sentMs = 0;
        std::int64_t dueMs = 0; //!< earliest re-send (retry-after)
        int attempts = 0;
    };
    std::map<std::string, Pending> outstanding;
    std::vector<std::string> to_send;
    for (unsigned round = 0; round < rounds; ++round) {
        for (unsigned gpms : gpm_counts) {
            for (const trace::KernelProfile &profile :
                 trace::scalingWorkloads()) {
                Pending pending;
                pending.request.type = serve::RequestType::Run;
                pending.request.id =
                    "soak-" + std::to_string(round) + "-" +
                    std::to_string(gpms) + "-" + profile.name;
                pending.request.client = client_name;
                pending.request.spec.workload = profile.name;
                pending.request.spec.gpms = gpms;
                pending.request.spec.bw = sim::BwSetting::Bw2x;
                pending.request.priority =
                    static_cast<int>(round % 3);
                to_send.push_back(pending.request.id);
                outstanding.emplace(pending.request.id,
                                    std::move(pending));
            }
        }
    }

    serve::ClientCounters counters;
    counters.requests = outstanding.size();
    std::vector<double> latencies;
    std::size_t ok = 0;
    std::size_t failed = 0;
    const int max_attempts = std::max(policy.maxAttempts, 1);
    std::size_t inflight = 0; //!< sent, answer not yet seen

    while (!outstanding.empty()) {
        if (!client.connected()) {
            if (Result<void> re = client.connect(socket_path, 5000);
                !re.ok()) {
                std::fprintf(stderr, "soak: reconnect: %s\n",
                             re.error().describe().c_str());
                printSummary(counters, latencies);
                return 1;
            }
            counters.reconnects += 1;
            // Responses in flight died with the old connection:
            // re-ask for everything unanswered, immediately.
            inflight = 0;
            to_send.clear();
            for (auto &[id, pending] : outstanding) {
                pending.dueMs = 0;
                to_send.push_back(id);
            }
        }

        // Send what is due; keep deferred retries for their slot.
        std::vector<std::string> later;
        std::int64_t now = wallclock::nowMs();
        bool transport_ok = true;
        for (const std::string &id : to_send) {
            auto it = outstanding.find(id);
            if (it == outstanding.end())
                continue; // answered by a stale duplicate already
            if (!transport_ok || it->second.dueMs > now) {
                later.push_back(id);
                continue;
            }
            it->second.attempts += 1;
            it->second.sentMs = now;
            if (Result<void> sent =
                    client.sendLine(it->second.request.encode());
                !sent.ok()) {
                transport_ok = false;
                later.push_back(id);
                continue;
            }
            ++inflight;
        }
        to_send.swap(later);
        if (!client.connected())
            continue;

        if (inflight == 0) {
            // Everything unanswered is deferred; sleep to the
            // earliest retry slot.
            std::int64_t earliest = 0;
            for (const std::string &id : to_send) {
                auto it = outstanding.find(id);
                if (it == outstanding.end())
                    continue;
                if (earliest == 0 || it->second.dueMs < earliest)
                    earliest = it->second.dueMs;
            }
            std::int64_t wait = earliest - wallclock::nowMs();
            if (wait > 0)
                wallclock::sleepMs(std::min<std::int64_t>(wait, 2000));
            continue;
        }

        while (inflight > 0) {
            Result<std::string> line = client.recvLine(timeout_ms);
            if (!line.ok()) {
                if (line.error().code == ErrCode::Io)
                    break; // reconnect at loop top
                std::fprintf(stderr, "soak: %s\n",
                             line.error().describe().c_str());
                printSummary(counters, latencies);
                return 1; // response timeout fails the soak
            }
            Result<serve::Response> parsed =
                serve::parseResponse(line.value());
            if (!parsed.ok()) {
                std::fprintf(stderr, "soak: bad response: %s\n",
                             line.value().c_str());
                printSummary(counters, latencies);
                return 1;
            }
            const serve::Response &response = parsed.value();
            auto it = outstanding.find(response.id);
            if (it == outstanding.end())
                continue; // duplicate answer from a re-sent request
            --inflight;
            Pending &pending = it->second;

            if (response.status == serve::ResponseStatus::Ok) {
                ++ok;
                latencies.push_back(static_cast<double>(
                    wallclock::nowMs() - pending.sentMs));
                outstanding.erase(it);
                continue;
            }
            if (response.status == serve::ResponseStatus::Rejected) {
                if (response.message.find("quota") !=
                    std::string::npos)
                    counters.rejectedQuota += 1;
                else if (response.message.find("shed") !=
                             std::string::npos ||
                         response.message.find("overload") !=
                             std::string::npos)
                    counters.rejectedShed += 1;
                else
                    counters.rejectedOther += 1;
                if (pending.attempts >= max_attempts) {
                    std::fprintf(stderr,
                                 "soak: %s: gave up rejected: %s\n",
                                 response.id.c_str(),
                                 response.message.c_str());
                    ++failed;
                    outstanding.erase(it);
                    continue;
                }
                // Honor the daemon's slot; pad with a linear
                // backoff when it gave none.
                std::uint64_t hint = std::max<std::uint64_t>(
                    response.retryAfterMs,
                    100 * static_cast<std::uint64_t>(
                              pending.attempts));
                pending.dueMs =
                    wallclock::nowMs() +
                    static_cast<std::int64_t>(hint);
                counters.retries += 1;
                to_send.push_back(response.id);
                continue;
            }
            // status == Error
            if (response.code == ErrCode::Unavailable &&
                pending.attempts < max_attempts) {
                counters.retries += 1;
                to_send.push_back(response.id);
                continue;
            }
            std::fprintf(stderr, "soak: %s: %s: %s\n",
                         response.id.c_str(),
                         errCodeName(response.code),
                         response.message.c_str());
            ++failed;
            outstanding.erase(it);
        }
    }

    std::printf("soak: %zu requests, %zu ok, %zu failed\n",
                static_cast<std::size_t>(counters.requests), ok,
                failed);
    printSummary(counters, latencies);
    return failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket_path;
    std::string verb;
    std::string send_path;
    std::string client_name;
    unsigned soak_rounds = 0;
    std::int64_t timeout_ms = 600000;
    int retries = 4;
    std::int64_t hedge_after_ms = 0;
    std::uint64_t retry_seed = 0;
    std::vector<unsigned> gpm_list;
    serve::Request request;

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
        if (args[i] == "--connect") {
            socket_path = need("--connect");
        } else if (args[i] == "--ping" || args[i] == "--run" ||
                   args[i] == "--study" || args[i] == "--stats" ||
                   args[i] == "--prof" || args[i] == "--shutdown" ||
                   args[i] == "--verify-fig6") {
            verb = args[i].substr(2);
        } else if (args[i] == "--send") {
            verb = "send";
            send_path = need("--send");
        } else if (args[i] == "--soak") {
            verb = "soak";
            soak_rounds = static_cast<unsigned>(
                std::strtoul(need("--soak"), nullptr, 0));
        } else if (args[i] == "--workload") {
            request.spec.workload = need("--workload");
        } else if (args[i] == "--gpms") {
            request.spec.gpms = static_cast<unsigned>(
                std::strtoul(need("--gpms"), nullptr, 0));
        } else if (args[i] == "--bw") {
            std::string v = need("--bw");
            if (v == "1x")
                request.spec.bw = sim::BwSetting::Bw1x;
            else if (v == "2x")
                request.spec.bw = sim::BwSetting::Bw2x;
            else if (v == "4x")
                request.spec.bw = sim::BwSetting::Bw4x;
            else
                usage(argv[0]);
        } else if (args[i] == "--topology") {
            std::string v = need("--topology");
            const noc::TopologyDesc *topo = noc::topologyFromName(v);
            if (topo == nullptr || topo->id == noc::Topology::None)
                usage(argv[0]);
            request.spec.topology = topo->id;
        } else if (args[i] == "--domain") {
            std::string v = need("--domain");
            if (v == "package")
                request.spec.domain = 0;
            else if (v == "board")
                request.spec.domain = 1;
            else
                usage(argv[0]);
        } else if (args[i] == "--placement") {
            std::string v = need("--placement");
            if (v == "first-touch")
                request.spec.placement =
                    sim::PlacementPolicy::FirstTouchOwner;
            else if (v == "striped")
                request.spec.placement =
                    sim::PlacementPolicy::Striped;
            else if (v == "locality")
                request.spec.placement =
                    sim::PlacementPolicy::Locality;
            else
                usage(argv[0]);
        } else if (args[i] == "--cta-sched") {
            std::string v = need("--cta-sched");
            if (v == "distributed")
                request.spec.ctaSched =
                    sm::CtaSchedPolicy::Distributed;
            else if (v == "round-robin")
                request.spec.ctaSched =
                    sm::CtaSchedPolicy::RoundRobin;
            else
                usage(argv[0]);
        } else if (args[i] == "--link-energy-scale") {
            request.spec.linkEnergyScale =
                std::atof(need("--link-energy-scale"));
        } else if (args[i] == "--priority") {
            request.priority =
                std::atoi(need("--priority"));
        } else if (args[i] == "--gpms-list") {
            gpm_list = parseGpmList(need("--gpms-list"));
        } else if (args[i] == "--timeout-ms") {
            timeout_ms =
                std::strtol(need("--timeout-ms"), nullptr, 0);
        } else if (args[i] == "--retries") {
            retries = std::atoi(need("--retries"));
        } else if (args[i] == "--hedge-after-ms") {
            hedge_after_ms =
                std::strtol(need("--hedge-after-ms"), nullptr, 0);
        } else if (args[i] == "--retry-seed") {
            retry_seed =
                std::strtoull(need("--retry-seed"), nullptr, 0);
        } else if (args[i] == "--client") {
            client_name = need("--client");
        } else {
            usage(argv[0]);
        }
    }
    if (socket_path.empty() || verb.empty())
        usage(argv[0]);
    if (gpm_list.empty())
        gpm_list = sim::tableThreeGpmCounts();

    serve::ServeClient client;
    if (Result<void> connected = client.connect(socket_path);
        !connected.ok()) {
        std::fprintf(stderr, "mmgpu_client: %s\n",
                     connected.error().describe().c_str());
        return 1;
    }

    serve::RetryPolicy policy;
    policy.maxAttempts = retries;
    policy.perTryTimeoutMs = timeout_ms;
    policy.deadlineMs =
        timeout_ms * std::max(retries, 1) + 10000;
    policy.seed = retry_seed;
    policy.hedgeAfterMs = hedge_after_ms;

    if (verb == "verify-fig6")
        return verifyFig6(client, gpm_list, policy);
    if (verb == "soak")
        return soak(client, socket_path, soak_rounds, gpm_list,
                    timeout_ms, policy, client_name);

    if (verb == "send") {
        std::ifstream file;
        std::istream *in = &std::cin;
        if (send_path != "-") {
            file.open(send_path);
            if (!file) {
                std::fprintf(stderr,
                             "mmgpu_client: cannot read %s\n",
                             send_path.c_str());
                return 2;
            }
            in = &file;
        }
        std::size_t sent = 0;
        std::string line;
        while (std::getline(*in, line)) {
            std::size_t first = line.find_first_not_of(" \t");
            if (first == std::string::npos || line[first] == '#')
                continue;
            if (Result<void> s = client.sendLine(line); !s.ok()) {
                std::fprintf(stderr, "mmgpu_client: %s\n",
                             s.error().describe().c_str());
                return 1;
            }
            ++sent;
        }
        int failures = 0;
        for (std::size_t i = 0; i < sent; ++i) {
            Result<std::string> reply = client.recvLine(timeout_ms);
            if (!reply.ok()) {
                std::fprintf(stderr, "mmgpu_client: %s\n",
                             reply.error().describe().c_str());
                return 1;
            }
            std::printf("%s\n", reply.value().c_str());
            Result<serve::Response> parsed =
                serve::parseResponse(reply.value());
            if (!parsed.ok() ||
                parsed.value().status != serve::ResponseStatus::Ok)
                ++failures;
        }
        return failures == 0 ? 0 : 1;
    }

    // Single-request verbs.
    if (verb == "ping")
        request.type = serve::RequestType::Ping;
    else if (verb == "run")
        request.type = serve::RequestType::Run;
    else if (verb == "study")
        request.type = serve::RequestType::Study;
    else if (verb == "stats")
        request.type = serve::RequestType::Stats;
    else if (verb == "prof")
        request.type = serve::RequestType::Prof;
    else if (verb == "shutdown")
        request.type = serve::RequestType::Shutdown;
    if (verb == "study" && request.spec.workload == "Stream")
        request.spec.workload = "all";
    if (request.id.empty())
        request.id = verb;
    request.client = client_name;

    // run/study retry per the policy (hedging included for study);
    // control verbs stay single-shot — retrying a shutdown against
    // a daemon that is already draining would just spin on
    // reconnects until the deadline.
    Result<serve::Response> reply =
        (verb == "run" || verb == "study")
            ? client.call(request, policy)
            : client.roundTrip(request, timeout_ms);
    if (!reply.ok()) {
        std::fprintf(stderr, "mmgpu_client: %s\n",
                     reply.error().describe().c_str());
        return 1;
    }
    std::printf("%s\n", reply.value().encode().c_str());
    return reply.value().status == serve::ResponseStatus::Ok ? 0 : 1;
}
