/**
 * @file
 * The benchmark's correctness gate.
 *
 * Every simulated result the benchmark sees is reduced to a hexfloat
 * record of the whole PerfResult + EnergyBreakdown (every field that
 * either struct carries, doubles as C99 "%a", counts in decimal), and
 * the record to a 64-bit FNV-1a digest. The golden tables under
 * perfbench/golden/ hold the digest of every point a workload can
 * draw, keyed by design point; a result whose digest differs — or a
 * point missing from the table — is a mismatch, counts as a failed
 * operation, and makes the run exit nonzero.
 *
 * Serve responses are compared as bytes: the response line with its
 * request id blanked must hash to the golden body digest of the
 * design point it answers.
 */

#ifndef PERFBENCH_DIGEST_HH
#define PERFBENCH_DIGEST_HH

#include <cstdint>
#include <map>
#include <string>

#include "gpujoule/energy_model.hh"
#include "sim/perf_result.hh"

namespace perfbench
{

/**
 * Which fields a record covers. The run cache persists every field
 * except the NoC conservation-audit counters (LinkTraffic::arrivals
 * and ::deliveredBytes), which no result or report reads; a cache
 * round trip is compared on the Persisted set.
 */
enum class RecordFields
{
    All,
    Persisted,
};

/** Hexfloat record of the @p fields of @p perf and @p energy. */
std::string outcomeRecord(const mmgpu::sim::PerfResult &perf,
                          const mmgpu::joule::EnergyBreakdown &energy,
                          RecordFields fields = RecordFields::All);

/** FNV-1a 64 of @p text. */
std::uint64_t digestOf(const std::string &text);

/** Digest of outcomeRecord(). */
std::uint64_t outcomeDigest(const mmgpu::sim::PerfResult &perf,
                            const mmgpu::joule::EnergyBreakdown &energy,
                            RecordFields fields = RecordFields::All);

/**
 * @p line with its `"id":"<id>"` member replaced by `"id":""`, so
 * the same design point answers with the same bytes to every request.
 */
std::string blankResponseId(const std::string &line,
                            const std::string &id);

/** Key -> digest table, stored one "key<TAB>16-hex-digit" per line. */
class GoldenTable
{
  public:
    /** Load @p path; false (and an empty table) when unreadable. */
    bool load(const std::string &path);

    /** Write the table sorted by key; false on I/O failure. */
    bool save(const std::string &path) const;

    void put(const std::string &key, std::uint64_t digest)
    {
        digests_[key] = digest;
    }

    /** True when @p key is present with exactly @p digest. */
    bool matches(const std::string &key, std::uint64_t digest) const;

    bool contains(const std::string &key) const
    {
        return digests_.count(key) != 0;
    }

    std::size_t size() const { return digests_.size(); }

  private:
    std::map<std::string, std::uint64_t> digests_;
};

} // namespace perfbench

#endif // PERFBENCH_DIGEST_HH
