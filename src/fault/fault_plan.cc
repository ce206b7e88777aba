#include "fault/fault_plan.hh"

#include <cstdlib>

#include "common/hash.hh"
#include "common/logging.hh"

namespace mmgpu::fault
{

SensorFaultSpec
defaultSensorFaults()
{
    SensorFaultSpec spec;
    spec.dropoutRate = 0.08;
    spec.spikeRate = 0.02;
    spec.spikeMagnitude = 1.5;
    spec.glitchRate = 0.02;
    spec.glitchSteps = 4.0;
    spec.jitterFraction = 0.25;
    return spec;
}

bool
HarnessFaultSpec::matches(const std::vector<std::string> &points,
                          const std::string &config,
                          const std::string &workload)
{
    std::string qualified = config + "|" + workload;
    for (const std::string &point : points) {
        if (point == workload || point == qualified)
            return true;
    }
    return false;
}

std::uint64_t
FaultPlan::fingerprint() const
{
    Fnv1a hash;
    hash.add(seed);
    hash.add(sensor.dropoutRate);
    hash.add(sensor.spikeRate);
    hash.add(sensor.spikeMagnitude);
    hash.add(sensor.glitchRate);
    hash.add(sensor.glitchSteps);
    hash.add(sensor.jitterFraction);
    hash.add(static_cast<std::uint64_t>(harness.failPoints.size()));
    for (const std::string &point : harness.failPoints)
        hash.add(point);
    hash.add(static_cast<std::uint64_t>(harness.hangPoints.size()));
    for (const std::string &point : harness.hangPoints)
        hash.add(point);
    hash.add(harness.hangSeconds);
    hash.add(serve.shardCrashEveryJobs);
    hash.add(serve.dispatcherStallAtJob);
    hash.add(serve.dispatcherStallMs);
    hash.add(serve.walTearAtAppend);
    hash.add(serve.connResetEveryWrites);
    hash.add(static_cast<std::uint64_t>(serve.crashPoints.size()));
    for (const std::string &point : serve.crashPoints)
        hash.add(point);
    return hash.digest();
}

std::uint64_t
FaultPlan::streamFor(const std::string &consumer) const
{
    Fnv1a hash(seed);
    hash.add(consumer);
    return hash.digest();
}

namespace
{

double
envRate(const char *name, double fallback)
{
    const char *text = std::getenv(name);
    if (text == nullptr || *text == '\0')
        return fallback;
    char *end = nullptr;
    double parsed = std::strtod(text, &end);
    if (end == text || *end != '\0' || parsed < 0.0 || parsed > 1.0) {
        warn("ignoring malformed ", name, "='", text,
             "' (want a rate in [0, 1])");
        return fallback;
    }
    return parsed;
}

std::uint64_t
envCount(const char *name, std::uint64_t fallback)
{
    const char *text = std::getenv(name);
    if (text == nullptr || *text == '\0')
        return fallback;
    char *end = nullptr;
    unsigned long long parsed = std::strtoull(text, &end, 0);
    if (end == text || *end != '\0') {
        warn("ignoring malformed ", name, "='", text,
             "' (want a non-negative integer)");
        return fallback;
    }
    return parsed;
}

std::vector<std::string>
envPoints(const char *name)
{
    std::vector<std::string> points;
    const char *text = std::getenv(name);
    if (text == nullptr || *text == '\0')
        return points;
    std::string rest(text);
    while (!rest.empty()) {
        std::size_t comma = rest.find(',');
        std::string point = rest.substr(0, comma);
        if (!point.empty())
            points.push_back(point);
        if (comma == std::string::npos)
            break;
        rest.erase(0, comma + 1);
    }
    return points;
}

} // namespace

FaultPlan
FaultPlan::fromEnv()
{
    FaultPlan plan;

    // Serve-layer chaos is counter-driven, not stochastic, so it
    // does not require (or touch) the master seed.
    plan.serve.shardCrashEveryJobs = envCount(
        "MMGPU_FAULT_SERVE_CRASH_EVERY",
        plan.serve.shardCrashEveryJobs);
    plan.serve.dispatcherStallAtJob = envCount(
        "MMGPU_FAULT_SERVE_STALL_AT_JOB",
        plan.serve.dispatcherStallAtJob);
    plan.serve.dispatcherStallMs = envCount(
        "MMGPU_FAULT_SERVE_STALL_MS", plan.serve.dispatcherStallMs);
    plan.serve.walTearAtAppend = envCount(
        "MMGPU_FAULT_SERVE_WAL_TEAR_AT", plan.serve.walTearAtAppend);
    plan.serve.connResetEveryWrites = envCount(
        "MMGPU_FAULT_SERVE_CONN_RESET_EVERY",
        plan.serve.connResetEveryWrites);
    plan.serve.crashPoints =
        envPoints("MMGPU_FAULT_SERVE_CRASH_POINT");

    const char *seed_text = std::getenv("MMGPU_FAULT_SEED");
    if (seed_text == nullptr || *seed_text == '\0')
        return plan; // sensor campaign disabled

    char *end = nullptr;
    unsigned long long parsed = std::strtoull(seed_text, &end, 0);
    if (end == seed_text || *end != '\0') {
        warn("ignoring malformed MMGPU_FAULT_SEED='", seed_text, "'");
        return plan;
    }
    plan.seed = parsed;
    plan.sensor = defaultSensorFaults();
    plan.sensor.dropoutRate =
        envRate("MMGPU_FAULT_DROPOUT", plan.sensor.dropoutRate);
    plan.sensor.spikeRate =
        envRate("MMGPU_FAULT_SPIKE", plan.sensor.spikeRate);
    plan.sensor.glitchRate =
        envRate("MMGPU_FAULT_GLITCH", plan.sensor.glitchRate);
    plan.sensor.jitterFraction =
        envRate("MMGPU_FAULT_JITTER", plan.sensor.jitterFraction);
    return plan;
}

} // namespace mmgpu::fault
