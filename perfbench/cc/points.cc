#include "points.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <numeric>

#include "common/logging.hh"
#include "noc/topology_registry.hh"
#include "trace/workloads.hh"

namespace perfbench
{

using namespace mmgpu;

namespace
{

/**
 * Estimated cold host seconds per fig6 point (1, 2, 4, 8, 16, 32
 * GPMs), measured once with the CLI on a 4-core 2.1 GHz host. Used
 * only to balance round subsets and order drains; results never
 * depend on it.
 */
const std::map<std::string, std::array<double, 6>> &
pointCosts()
{
    static const std::map<std::string, std::array<double, 6>> costs = {
        {"BPROP", {0.30, 0.69, 0.17, 0.30, 0.47, 0.86}},
        {"BTREE", {0.31, 0.32, 0.53, 0.75, 1.15, 1.99}},
        {"CoMD", {0.12, 0.13, 0.12, 0.19, 0.27, 0.39}},
        {"Hotspot", {0.81, 0.99, 1.31, 1.56, 2.01, 2.91}},
        {"PathF", {0.31, 0.41, 0.45, 0.53, 0.68, 0.92}},
        {"RSBench", {0.24, 0.35, 0.46, 0.49, 0.89, 1.75}},
        {"MiniAMR", {0.58, 0.63, 0.82, 0.95, 1.17, 1.96}},
        {"Kmeans", {0.81, 1.01, 1.22, 1.38, 1.87, 2.31}},
        {"Lulesh-150", {0.34, 0.41, 0.49, 0.66, 0.99, 1.36}},
        {"Lulesh-190", {0.42, 0.37, 0.43, 0.60, 0.88, 1.33}},
        {"Nekbone-12", {0.29, 0.32, 0.38, 0.49, 0.87, 1.67}},
        {"Nekbone-18", {0.33, 0.45, 0.55, 0.76, 1.26, 1.98}},
        {"Srad-v2", {0.76, 0.83, 1.05, 1.54, 1.87, 2.61}},
        {"Stream", {0.36, 0.34, 0.48, 0.56, 0.94, 1.27}},
    };
    return costs;
}

double
workloadCost(const std::string &name)
{
    const auto &row = pointCosts().at(name);
    return std::accumulate(row.begin(), row.end(), 0.0);
}

/** Every k-subset of @p items, in lexicographic index order. */
std::vector<std::vector<std::string>>
subsets(const std::vector<std::string> &items, std::size_t k)
{
    std::vector<std::vector<std::string>> out;
    std::vector<bool> pick(items.size(), false);
    std::fill(pick.begin(), pick.begin() + k, true);
    do {
        std::vector<std::string> subset;
        for (std::size_t i = 0; i < items.size(); ++i)
            if (pick[i])
                subset.push_back(items[i]);
        out.push_back(std::move(subset));
    } while (std::prev_permutation(pick.begin(), pick.end()));
    return out;
}

/** Cost-balanced halves of the scaling suite, computed once. */
const std::vector<std::vector<std::string>> &
balancedHalves()
{
    static const std::vector<std::vector<std::string>> eligible = [] {
        std::vector<std::string> compute, memory;
        double total = 0.0;
        for (const auto &p : trace::scalingWorkloads()) {
            (p.cls == trace::WorkloadClass::Compute ? compute : memory)
                .push_back(p.name);
            total += workloadCost(p.name);
        }
        std::vector<std::vector<std::string>> kept;
        for (const auto &c : subsets(compute, compute.size() / 2)) {
            for (const auto &m : subsets(memory, memory.size() / 2)) {
                std::vector<std::string> names = c;
                names.insert(names.end(), m.begin(), m.end());
                double cost = 0.0;
                for (const auto &n : names)
                    cost += workloadCost(n);
                if (std::fabs(cost - total / 2) <= 0.03 * total / 2)
                    kept.push_back(std::move(names));
            }
        }
        mmgpu_assert(!kept.empty(), "no balanced sweep halves");
        return kept;
    }();
    return eligible;
}

Point
makePoint(const sim::GpuConfig &config, const std::string &workload,
          std::size_t config_index)
{
    Point p;
    p.config = config;
    p.profile = *trace::findWorkload(workload);
    p.costSeconds = pointCosts().at(workload)[config_index];
    return p;
}

} // namespace

std::string
Point::key() const
{
    return config.name + "|" + sim::placementPolicyName(config.placement) +
           "|" + profile.name;
}

std::vector<sim::GpuConfig>
fig6Configs()
{
    std::vector<sim::GpuConfig> configs = {sim::baselineConfig()};
    for (unsigned n : sim::tableThreeGpmCounts())
        configs.push_back(sim::multiGpmConfig(n, sim::BwSetting::Bw2x));
    return configs;
}

std::vector<Point>
allSweepPoints()
{
    std::vector<Point> points;
    const auto configs = fig6Configs();
    for (const auto &profile : trace::scalingWorkloads())
        for (std::size_t c = 0; c < configs.size(); ++c)
            points.push_back(makePoint(configs[c], profile.name, c));
    return points;
}

std::vector<Point>
SweepRounds::next()
{
    std::vector<std::string> names;
    if (!pending_.empty()) {
        names = std::move(pending_);
        pending_.clear();
    } else {
        const auto &halves = balancedHalves();
        names = halves[rng_.below(halves.size())];
        for (const auto &p : trace::scalingWorkloads())
            if (std::find(names.begin(), names.end(), p.name) == names.end())
                pending_.push_back(p.name);
        if (rng_.below(2) == 1)
            std::swap(names, pending_);
    }
    const auto configs = fig6Configs();
    std::vector<Point> points;
    for (const auto &name : names)
        for (std::size_t c = 0; c < configs.size(); ++c)
            points.push_back(makePoint(configs[c], name, c));
    std::stable_sort(points.begin(), points.end(),
                     [](const Point &a, const Point &b) {
                         return a.costSeconds > b.costSeconds;
                     });
    return points;
}

std::string
CatalogItem::requestLine(const std::string &id) const
{
    serve::Request request;
    request.type = serve::RequestType::Run;
    request.id = id;
    request.spec = spec;
    return request.encode();
}

std::vector<CatalogItem>
serveCatalog()
{
    // CoMD is the cheapest Table II workload to simulate (~0.15 s
    // cold on 2-4 GPMs), so cold work stays a minority of shard time
    // at the nominal rate while the catalog still spans every fabric
    // and placement.
    static const sim::PlacementPolicy placements[] = {
        sim::PlacementPolicy::FirstTouchOwner,
        sim::PlacementPolicy::Striped, sim::PlacementPolicy::Locality};
    std::vector<CatalogItem> catalog;
    for (const noc::TopologyDesc *fabric : noc::allTopologies()) {
        if (fabric->id == noc::Topology::None)
            continue;
        for (sim::PlacementPolicy placement : placements) {
            for (auto [gpms, bw] : {std::pair{2u, sim::BwSetting::Bw2x},
                                    std::pair{4u, sim::BwSetting::Bw2x},
                                    std::pair{4u, sim::BwSetting::Bw1x}}) {
                CatalogItem item;
                item.spec.workload = "CoMD";
                item.spec.gpms = gpms;
                item.spec.bw = bw;
                item.spec.topology = fabric->id;
                item.spec.placement = placement;
                sim::GpuConfig config = item.spec.config();
                item.key = config.name + "|" +
                           sim::placementPolicyName(placement) + "|" +
                           item.spec.workload;
                catalog.push_back(std::move(item));
            }
        }
    }
    return catalog;
}

std::vector<Point>
cacheBasePoints()
{
    static const char *const workloads[] = {"CoMD", "PathF", "Stream",
                                            "Lulesh-190"};
    const auto configs = fig6Configs();
    std::vector<Point> points;
    for (const char *workload : workloads) {
        points.push_back(makePoint(configs[0], workload, 0)); // 1-GPM
        points.push_back(makePoint(configs[2], workload, 2)); // 4-GPM
        points.push_back(makePoint(configs[3], workload, 3)); // 8-GPM
    }
    return points;
}

std::vector<std::pair<double, double>>
cacheKnobs()
{
    std::vector<std::pair<double, double>> knobs;
    for (int s = 0; s < 24; ++s) {
        double scale = 0.25 + 0.125 * s;
        knobs.emplace_back(scale, -1.0);
        for (int g = 1; g < 20; ++g)
            knobs.emplace_back(scale, 0.05 * g);
    }
    return knobs;
}

std::vector<Point>
cacheGrid()
{
    std::vector<Point> grid;
    const auto knobs = cacheKnobs();
    for (const Point &base : cacheBasePoints()) {
        if (base.config.gpmCount == 1) {
            grid.push_back(base);
            continue;
        }
        for (auto [scale, growth] : knobs) {
            Point p = base;
            p.linkEnergyScale = scale;
            p.constGrowthOverride = growth;
            grid.push_back(std::move(p));
        }
    }
    return grid;
}

} // namespace perfbench
