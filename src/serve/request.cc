#include "serve/request.hh"

#include <cstdio>
#include <cstdlib>

#include "common/fields.hh"
#include "common/hash.hh"
#include "noc/topology_registry.hh"

namespace mmgpu::serve
{

namespace
{

/** Schema salt for the work/machine identity hashes. */
constexpr std::uint64_t identitySalt = 0x5e27e001;

/** Protocol spelling of a bandwidth setting ("2x", not "2x-BW"). */
const char *
bwProtocolName(sim::BwSetting bw)
{
    switch (bw) {
      case sim::BwSetting::Bw1x:
        return "1x";
      case sim::BwSetting::Bw4x:
        return "4x";
      default:
        return "2x";
    }
}

Result<RequestType>
typeFromName(const std::string &name)
{
    if (name == "ping")
        return RequestType::Ping;
    if (name == "run")
        return RequestType::Run;
    if (name == "study")
        return RequestType::Study;
    if (name == "stats")
        return RequestType::Stats;
    if (name == "prof")
        return RequestType::Prof;
    if (name == "shutdown")
        return RequestType::Shutdown;
    return SimError::parse("unknown request type '" + name + "'");
}

/** Fetch an optional string field; empty optional-style via ok flag. */
Result<void>
readString(const JsonValue &doc, const char *key, std::string &out)
{
    const JsonValue *value = doc.find(key);
    if (value == nullptr)
        return Result<void>::success();
    if (!value->isString())
        return SimError::parse(std::string("field '") + key +
                               "' must be a string");
    out = value->asString();
    return Result<void>::success();
}

Result<void>
readNumber(const JsonValue &doc, const char *key, double &out)
{
    const JsonValue *value = doc.find(key);
    if (value == nullptr)
        return Result<void>::success();
    if (!value->isNumber())
        return SimError::parse(std::string("field '") + key +
                               "' must be a number");
    out = value->asNumber();
    return Result<void>::success();
}

/**
 * @p value rounded to 12 significant digits. The display-only ratios
 * of a run answer (ipc, remote fraction) have always been sent at
 * that precision, and served bodies are compared byte for byte; the
 * exact results travel as hexfloats beside them.
 */
double
displayRatio(double value)
{
    char text[32];
    std::snprintf(text, sizeof(text), "%.12g", value);
    return std::strtod(text, nullptr);
}

} // namespace

const char *
requestTypeName(RequestType type)
{
    switch (type) {
      case RequestType::Ping:
        return "ping";
      case RequestType::Run:
        return "run";
      case RequestType::Study:
        return "study";
      case RequestType::Stats:
        return "stats";
      case RequestType::Prof:
        return "prof";
      case RequestType::Shutdown:
        return "shutdown";
      default:
        return "unknown";
    }
}

sim::GpuConfig
RunSpec::config() const
{
    if (gpms <= 1)
        return sim::baselineConfig();
    sim::IntegrationDomain dom =
        domain < 0    ? sim::defaultDomainFor(bw)
        : domain == 0 ? sim::IntegrationDomain::OnPackage
                      : sim::IntegrationDomain::OnBoard;
    sim::GpuConfig config =
        sim::multiGpmConfig(gpms, bw, topology, dom);
    config.placement = placement;
    config.ctaScheduling = ctaSched;
    return config;
}

std::uint64_t
RunSpec::machineIdentity() const
{
    Fnv1a hash(identitySalt);
    hashFields(hash, config());
    return hash.digest();
}

std::uint64_t
Request::workIdentity() const
{
    Fnv1a hash(identitySalt);
    hash.add(type);
    hashFields(hash, spec);
    return hash.digest();
}

std::string
Request::encode() const
{
    JsonValue doc = JsonValue::object();
    doc.set("type", requestTypeName(type));
    if (!id.empty())
        doc.set("id", id);
    if (!client.empty())
        doc.set("client", client);
    if (type == RequestType::Run || type == RequestType::Study) {
        doc.set("workload", spec.workload);
        doc.set("gpms", spec.gpms);
        doc.set("bw", bwProtocolName(spec.bw));
        doc.set("topology", noc::topologyName(spec.topology));
        if (spec.domain >= 0)
            doc.set("domain",
                    spec.domain == 0 ? "package" : "board");
        doc.set("placement",
                sim::placementPolicyName(spec.placement));
        doc.set("cta-sched", sm::ctaSchedPolicyName(spec.ctaSched));
        if (spec.linkEnergyScale != 1.0)
            doc.set("link-energy-scale", spec.linkEnergyScale);
        if (spec.constGrowthOverride != -1.0)
            doc.set("const-growth-override",
                    spec.constGrowthOverride);
    }
    if (priority != 1)
        doc.set("priority", priority);
    return doc.dumpCompact();
}

Result<Request>
parseRequest(const std::string &line)
{
    if (line.size() > maxRequestBytes) {
        return SimError::parse(
            "request exceeds " + std::to_string(maxRequestBytes) +
            " bytes");
    }
    std::optional<JsonValue> doc = parseJson(line);
    if (!doc)
        return SimError::parse("request is not valid JSON");
    if (!doc->isObject())
        return SimError::parse("request must be a JSON object");

    Request request;
    std::string type_name;
    if (Result<void> r = readString(*doc, "type", type_name); !r.ok())
        return r.error();
    if (type_name.empty())
        return SimError::parse("request lacks a 'type' field");
    Result<RequestType> type = typeFromName(type_name);
    if (!type.ok())
        return type.error();
    request.type = type.value();

    if (Result<void> r = readString(*doc, "id", request.id); !r.ok())
        return r.error();

    if (Result<void> r = readString(*doc, "client", request.client);
        !r.ok())
        return r.error();

    double priority = 1.0;
    if (Result<void> r = readNumber(*doc, "priority", priority);
        !r.ok())
        return r.error();
    if (priority < 0.0 || priority > 2.0 ||
        priority != static_cast<double>(static_cast<int>(priority))) {
        return SimError::parse(
            "priority must be an integer in [0, 2]");
    }
    request.priority = static_cast<int>(priority);

    RunSpec &spec = request.spec;
    if (Result<void> r = readString(*doc, "workload", spec.workload);
        !r.ok())
        return r.error();

    double gpms = static_cast<double>(spec.gpms);
    if (Result<void> r = readNumber(*doc, "gpms", gpms); !r.ok())
        return r.error();
    if (gpms < 1.0 || gpms > 4096.0 ||
        gpms != static_cast<double>(static_cast<unsigned>(gpms))) {
        return SimError::parse(
            "gpms must be a small positive integer");
    }
    spec.gpms = static_cast<unsigned>(gpms);

    std::string text;
    if (Result<void> r = readString(*doc, "bw", text); !r.ok())
        return r.error();
    if (!text.empty()) {
        if (text == "1x")
            spec.bw = sim::BwSetting::Bw1x;
        else if (text == "2x")
            spec.bw = sim::BwSetting::Bw2x;
        else if (text == "4x")
            spec.bw = sim::BwSetting::Bw4x;
        else
            return SimError::parse("bw must be 1x, 2x, or 4x");
    }

    text.clear();
    if (Result<void> r = readString(*doc, "topology", text); !r.ok())
        return r.error();
    if (!text.empty()) {
        const noc::TopologyDesc *topo = noc::topologyFromName(text);
        if (topo == nullptr || topo->id == noc::Topology::None)
            return SimError::parse("topology must be one of: " +
                                   noc::topologyNameList());
        spec.topology = topo->id;
    }

    text.clear();
    if (Result<void> r = readString(*doc, "domain", text); !r.ok())
        return r.error();
    if (!text.empty()) {
        if (text == "package")
            spec.domain = 0;
        else if (text == "board")
            spec.domain = 1;
        else
            return SimError::parse(
                "domain must be package or board");
    }

    text.clear();
    if (Result<void> r = readString(*doc, "placement", text); !r.ok())
        return r.error();
    if (!text.empty()) {
        if (text == "first-touch")
            spec.placement = sim::PlacementPolicy::FirstTouchOwner;
        else if (text == "striped")
            spec.placement = sim::PlacementPolicy::Striped;
        else if (text == "locality")
            spec.placement = sim::PlacementPolicy::Locality;
        else
            return SimError::parse(
                "placement must be first-touch, striped, or"
                " locality");
    }

    text.clear();
    if (Result<void> r = readString(*doc, "cta-sched", text); !r.ok())
        return r.error();
    if (!text.empty()) {
        if (text == "distributed")
            spec.ctaSched = sm::CtaSchedPolicy::Distributed;
        else if (text == "round-robin")
            spec.ctaSched = sm::CtaSchedPolicy::RoundRobin;
        else
            return SimError::parse(
                "cta-sched must be distributed or round-robin");
    }

    if (Result<void> r = readNumber(*doc, "link-energy-scale",
                                    spec.linkEnergyScale);
        !r.ok())
        return r.error();
    if (!(spec.linkEnergyScale >= 0.0))
        return SimError::parse(
            "link-energy-scale must be non-negative");
    if (Result<void> r = readNumber(*doc, "const-growth-override",
                                    spec.constGrowthOverride);
        !r.ok())
        return r.error();

    return request;
}

std::string
parseRequestId(const std::string &line)
{
    if (line.size() > maxRequestBytes)
        return {};
    std::optional<JsonValue> doc = parseJson(line);
    if (!doc)
        return {};
    const JsonValue *id = doc->find("id");
    return (id != nullptr && id->isString()) ? id->asString()
                                             : std::string();
}

Response
Response::ok(std::string id, JsonValue result)
{
    Response response;
    response.id = std::move(id);
    response.status = ResponseStatus::Ok;
    response.result = std::move(result);
    return response;
}

Response
Response::error(std::string id, const SimError &error)
{
    Response response;
    response.id = std::move(id);
    response.status = ResponseStatus::Error;
    response.code = error.code;
    response.message = error.message;
    return response;
}

Response
Response::rejected(std::string id, std::string reason,
                   std::uint64_t retry_after_ms)
{
    Response response;
    response.id = std::move(id);
    response.status = ResponseStatus::Rejected;
    response.message = std::move(reason);
    response.retryAfterMs = retry_after_ms;
    return response;
}

std::string
Response::encode() const
{
    JsonValue doc = JsonValue::object();
    doc.set("id", id);
    switch (status) {
      case ResponseStatus::Ok:
        doc.set("status", "ok");
        doc.set("result", result);
        break;
      case ResponseStatus::Error:
        doc.set("status", "error");
        doc.set("code", errCodeName(code));
        doc.set("message", message);
        break;
      case ResponseStatus::Rejected:
        doc.set("status", "rejected");
        doc.set("message", message);
        if (retryAfterMs != 0)
            doc.set("retry-after-ms",
                    static_cast<double>(retryAfterMs));
        break;
    }
    return doc.dumpCompact();
}

Result<Response>
parseResponse(const std::string &line)
{
    std::optional<JsonValue> doc = parseJson(line);
    if (!doc || !doc->isObject())
        return SimError::parse("response is not a JSON object");
    Response response;
    const JsonValue *id = doc->find("id");
    if (id != nullptr && id->isString())
        response.id = id->asString();
    const JsonValue *status = doc->find("status");
    if (status == nullptr || !status->isString())
        return SimError::parse("response lacks a 'status' field");
    const std::string &name = status->asString();
    if (name == "ok") {
        response.status = ResponseStatus::Ok;
        // Copy, then move in: a copy-assignment here trips GCC 12's
        // -Wmaybe-uninitialized on the variant's bool alternative.
        if (const JsonValue *result = doc->find("result"))
            response.result = JsonValue(*result);
    } else if (name == "error" || name == "rejected") {
        response.status = name == "error" ? ResponseStatus::Error
                                          : ResponseStatus::Rejected;
        const JsonValue *message = doc->find("message");
        if (message != nullptr && message->isString())
            response.message = message->asString();
        const JsonValue *code = doc->find("code");
        if (code != nullptr && code->isString()) {
            for (ErrCode candidate :
                 {ErrCode::Config, ErrCode::Io, ErrCode::Parse,
                  ErrCode::Timeout, ErrCode::InjectedFault,
                  ErrCode::Unavailable, ErrCode::Poisoned,
                  ErrCode::Internal}) {
                if (code->asString() == errCodeName(candidate)) {
                    response.code = candidate;
                    break;
                }
            }
        }
        const JsonValue *retry = doc->find("retry-after-ms");
        if (retry != nullptr && retry->isNumber() &&
            retry->asNumber() >= 0.0) {
            response.retryAfterMs =
                static_cast<std::uint64_t>(retry->asNumber());
        }
    } else {
        return SimError::parse("unknown response status '" + name +
                               "'");
    }
    return response;
}

JsonValue
encodeOutcome(const harness::RunOutcome &outcome)
{
    const sim::PerfResult &perf = outcome.perf;
    const joule::EnergyBreakdown &energy = outcome.energy;
    JsonValue doc = JsonValue::object();
    doc.set("config", perf.configName);
    doc.set("workload", perf.workloadName);
    doc.set("exec-seconds", encodeHexDouble(perf.execSeconds));
    doc.set("exec-cycles", encodeHexDouble(perf.execCycles));
    doc.set("ipc", displayRatio(perf.ipc()));
    doc.set("remote-fraction", displayRatio(perf.remoteFraction()));
    JsonValue e = JsonValue::object();
    e.set("sm-busy", encodeHexDouble(energy.smBusy));
    e.set("sm-idle", encodeHexDouble(energy.smIdle));
    e.set("constant", encodeHexDouble(energy.constant));
    e.set("shm-to-reg", encodeHexDouble(energy.shmToReg));
    e.set("l1-to-reg", encodeHexDouble(energy.l1ToReg));
    e.set("l2-to-l1", encodeHexDouble(energy.l2ToL1));
    e.set("dram-to-l2", encodeHexDouble(energy.dramToL2));
    e.set("inter-module", encodeHexDouble(energy.interModule));
    e.set("total", encodeHexDouble(energy.total()));
    doc.set("energy-joules", std::move(e));
    return doc;
}

JsonValue
encodeStudy(const sim::GpuConfig &config,
            const std::vector<harness::ScalingPoint> &points)
{
    JsonValue doc = JsonValue::object();
    doc.set("config", config.name);
    doc.set("gpms", config.gpmCount);
    JsonValue list = JsonValue::array();
    for (const harness::ScalingPoint &point : points) {
        JsonValue p = JsonValue::object();
        p.set("workload", point.workload);
        p.set("class", trace::workloadClassName(point.cls));
        p.set("speedup", encodeHexDouble(point.speedup));
        p.set("energy-ratio", encodeHexDouble(point.energyRatio));
        p.set("edpse", encodeHexDouble(point.edpse));
        p.set("ed2pse", encodeHexDouble(point.ed2pse));
        p.set("perf-per-watt-se",
              encodeHexDouble(point.perfPerWattSE));
        list.push(std::move(p));
    }
    doc.set("points", std::move(list));
    return doc;
}

} // namespace mmgpu::serve
