/**
 * @file
 * Wire protocol of the mmgpu_serve daemon.
 *
 * One JSON document per line, request and response alike. Requests
 * name a design point (workload x configuration) or a service verb
 * (ping/stats/shutdown); responses echo the request id so clients
 * may pipeline. Parsing reuses the hardened common/json.hh parser —
 * the same one the fuzz corpus hammers — and every malformed,
 * oversized, or truncated request degrades to an error response,
 * never a daemon crash.
 *
 * Request fields (all but "type" optional; defaults in brackets):
 *
 *   {"type": "run" | "study" | "stats" | "prof" | "ping" |
 *            "shutdown",
 *    "id": "client tag echoed in the response" [""],
 *    "client": "quota identity for admission" [the connection],
 *    "workload": "<Table II name>" | "all" (study only) ["Stream"],
 *    "gpms": 1|2|4|8|16|32 [4],
 *    "bw": "1x"|"2x"|"4x" ["2x"],
 *    "topology": "ring"|"switch"|"fullmesh"|"ocs" ["ring"],
 *    "domain": "package"|"board" [follows bw],
 *    "placement": "first-touch"|"striped"|"locality"
 *                 ["first-touch"],
 *    "cta-sched": "distributed"|"round-robin" ["distributed"],
 *    "link-energy-scale": <f> [1.0],
 *    "const-growth-override": <f> [-1.0],
 *    "priority": 0 (high) | 1 (normal) | 2 (batch) [1]}
 *
 * Responses:
 *
 *   {"id": ..., "status": "ok", "result": {...}}
 *   {"id": ..., "status": "error", "code": "...", "message": "..."}
 *   {"id": ..., "status": "rejected", "message": "...",
 *    "retry-after-ms": <n, optional backoff hint>}
 *
 * Numeric results that feed bit-identity checks (exec seconds,
 * energy terms, scaling metrics) are carried as C99 hexfloat strings
 * exactly like the persistent run cache, so "daemon == in-process"
 * comparisons are exact, not epsilon-based.
 */

#ifndef MMGPU_SERVE_REQUEST_HH
#define MMGPU_SERVE_REQUEST_HH

#include <cstdint>
#include <string>

#include "common/fields.hh"
#include "common/json.hh"
#include "common/result.hh"
#include "harness/study.hh"
#include "sim/gpu_config.hh"

namespace mmgpu::serve
{

/**
 * Hard cap on one request line. Anything longer is rejected before
 * parsing (oversized-framing containment); the socket reader also
 * drops connections that exceed it mid-line so a client streaming
 * garbage cannot balloon daemon memory.
 */
constexpr std::size_t maxRequestBytes = 64 * 1024;

/** Request verbs the daemon understands. */
enum class RequestType : std::uint8_t
{
    Ping,     //!< liveness probe; responds with "pong"
    Run,      //!< one (workload x configuration) design point
    Study,    //!< full scaling study vs. the 1-GPM baseline
    Stats,    //!< service statistics snapshot
    Prof,     //!< profiler aggregates snapshot (common/prof.hh)
    Shutdown, //!< stop accepting, drain, exit the serve loop
};

/** @return stable protocol name ("run", "study", ...). */
const char *requestTypeName(RequestType type);

/** The design point a run/study request names. */
struct RunSpec
{
    std::string workload = "Stream"; //!< name, or "all" (study)
    unsigned gpms = 4;
    sim::BwSetting bw = sim::BwSetting::Bw2x;
    noc::Topology topology = noc::Topology::Ring;
    int domain = -1; //!< -1 follows the bandwidth setting
    sim::PlacementPolicy placement =
        sim::PlacementPolicy::FirstTouchOwner;
    sm::CtaSchedPolicy ctaSched = sm::CtaSchedPolicy::Distributed;
    double linkEnergyScale = 1.0;
    double constGrowthOverride = -1.0;

    /** The machine configuration this spec names (baseline when
     *  gpms <= 1). Does not validate; GpuConfig::check() does. */
    sim::GpuConfig config() const;

    /**
     * Identity of the *machine* the spec needs: a hash of every
     * config() field, ignoring workload and energy knobs. The
     * router uses this for shard affinity: requests that can reuse
     * a pooled machine should land on the shard already holding one.
     */
    std::uint64_t machineIdentity() const;

    auto operator<=>(const RunSpec &) const = default;
};

template <FieldsOf<RunSpec> S, typename Visit>
constexpr void
forEachField(S &self, Visit &&visit)
{
    auto &[workload, gpms, bw, topology, domain, placement, ctaSched,
           linkEnergyScale, constGrowthOverride] = self;
    visit("workload", workload);
    visit("gpms", gpms);
    visit("bw", bw);
    visit("topology", topology);
    visit("domain", domain);
    visit("placement", placement);
    visit("ctaSched", ctaSched);
    visit("linkEnergyScale", linkEnergyScale);
    visit("constGrowthOverride", constGrowthOverride);
}

/** One parsed request. */
struct Request
{
    RequestType type = RequestType::Ping;
    std::string id;
    RunSpec spec;
    int priority = 1; //!< 0 = high, 1 = normal, 2 = batch

    /**
     * Quota identity for per-client admission accounting. The socket
     * front end fills in a per-connection default when the request
     * does not name one, so quotas work without client cooperation
     * but cooperating clients can pool connections under one bucket.
     * Never part of workIdentity(): two clients asking for the same
     * design point still share one simulation.
     */
    std::string client;

    /**
     * Dedup identity of the *work* the request names: the type and
     * every RunSpec field — everything that changes the answer,
     * nothing that doesn't (id, priority, client). Two requests
     * with equal identity share one simulation.
     */
    std::uint64_t workIdentity() const;

    /** Re-encode as a protocol line (tests round-trip through this). */
    std::string encode() const;
};

/**
 * Parse one request line. Errors (oversized, malformed JSON, wrong
 * types, unknown enum values) come back as SimError::parse/config —
 * the daemon turns them into error responses addressed to whatever
 * "id" could be salvaged (parseRequestId below).
 */
Result<Request> parseRequest(const std::string &line);

/**
 * Best-effort id extraction from an unparseable request, so error
 * responses stay correlatable. Returns "" when nothing is salvable.
 */
std::string parseRequestId(const std::string &line);

/** Response status. */
enum class ResponseStatus : std::uint8_t
{
    Ok,
    Error,    //!< the work failed (bad config, fault, timeout)
    Rejected, //!< admission refused (queue full, shutting down)
};

/** One response, encodable as a protocol line. */
struct Response
{
    std::string id;
    ResponseStatus status = ResponseStatus::Ok;
    ErrCode code = ErrCode::Internal; //!< when status == Error
    std::string message;              //!< error/reject detail
    JsonValue result;                 //!< when status == Ok

    /** Backoff hint for rejected requests; 0 means "none given".
     *  Clients honoring it retry no sooner than this. */
    std::uint64_t retryAfterMs = 0;

    static Response ok(std::string id, JsonValue result);
    static Response error(std::string id, const SimError &error);
    static Response rejected(std::string id, std::string reason,
                             std::uint64_t retry_after_ms = 0);

    /** Encode as one newline-free JSON line. */
    std::string encode() const;
};

/**
 * Parse a response line (client side). Malformed lines come back as
 * SimError::parse.
 */
Result<Response> parseResponse(const std::string &line);

/**
 * Encode a finished run outcome: exec time/cycles and the Eq. 4
 * energy terms as hexfloat strings (exact), plus a few convenience
 * decimals (ipc, remote fraction) for human consumers.
 */
JsonValue encodeOutcome(const harness::RunOutcome &outcome);

/** Encode a scaling study: per-workload metrics, hexfloat-exact. */
JsonValue
encodeStudy(const sim::GpuConfig &config,
            const std::vector<harness::ScalingPoint> &points);

} // namespace mmgpu::serve

#endif // MMGPU_SERVE_REQUEST_HH
