/**
 * @file
 * The design points each workload draws from, as functions of a seed.
 *
 *  - sweep_cold: fig6's design points (1-GPM baseline, 2..32 GPMs at
 *    2x-BW on the ring) crossed with seeded, cost-balanced halves of
 *    the 14 scaling workloads, three Compute + four Memory each.
 *  - serve_mixed: a fixed catalog of run requests over all four
 *    fabrics and three placements; seeds only permute popularity.
 *  - cache_restart: base points crossed with an energy-knob grid.
 */

#ifndef PERFBENCH_POINTS_HH
#define PERFBENCH_POINTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "serve/request.hh"
#include "sim/gpu_config.hh"
#include "trace/kernel_profile.hh"

namespace perfbench
{

/** One (configuration x workload x energy knobs) point. */
struct Point
{
    mmgpu::sim::GpuConfig config;
    mmgpu::trace::KernelProfile profile;
    double linkEnergyScale = 1.0;
    double constGrowthOverride = -1.0;
    double costSeconds = 0.0; //!< estimated host time, cold

    /** Golden-table key: "<config name>|<placement>|<workload>". */
    std::string key() const;
};

/** fig6's six configurations: baseline, then 2..32 GPMs. */
std::vector<mmgpu::sim::GpuConfig> fig6Configs();

/** All 84 fig6 points (golden table generation). */
std::vector<Point> allSweepPoints();

/**
 * The rounds of one sweep_cold run, drawn from a seed: rounds come in
 * pairs that split the 14 scaling workloads into two cost-balanced
 * halves (3 Compute + 4 Memory each, estimated cost within 3% of an
 * even split), so every two rounds cover the whole fig6 sweep and the
 * seed only decides the split and the order. Each round crosses its
 * workloads with fig6Configs(), longest estimated point first so a
 * parallel drain ends with short points.
 */
class SweepRounds
{
  public:
    explicit SweepRounds(std::uint64_t seed) : rng_(seed) {}

    /** The next round's points. */
    std::vector<Point> next();

  private:
    mmgpu::Rng rng_;
    std::vector<std::string> pending_; //!< second half of the pair
};

/** One catalog entry of serve_mixed. */
struct CatalogItem
{
    mmgpu::serve::RunSpec spec;
    std::string key; //!< golden-table key, also the dedup identity

    /** The run request line for this item with request id @p id. */
    std::string requestLine(const std::string &id) const;
};

/** The serve_mixed catalog (fixed; 4 fabrics x 3 placements x ...). */
std::vector<CatalogItem> serveCatalog();

/** cache_restart's simulated base points (baseline + multi-GPM). */
std::vector<Point> cacheBasePoints();

/**
 * The full cache grid: every multi-GPM base point at every
 * (link-energy scale, constant-growth override) pair, plus each
 * baseline point at the default knobs (what scalingStudy reads).
 */
std::vector<Point> cacheGrid();

/** The knob pairs of cacheGrid(), for the aggregation pass. */
std::vector<std::pair<double, double>> cacheKnobs();

} // namespace perfbench

#endif // PERFBENCH_POINTS_HH
