#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench
{

namespace
{

std::size_t
rankOf(double q, std::size_t n)
{
    // The epsilon keeps q * n that is integral in exact arithmetic
    // (0.99 * 1000) from rounding up a rank.
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

} // namespace

std::string
Percentile::describe() const
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.4f (n=%zu, %zu beyond)", value,
                  samples, beyond);
    return buf;
}

Percentile
percentile(std::vector<double> samples, double q)
{
    Percentile p;
    p.samples = samples.size();
    if (samples.empty())
        return p;
    std::size_t rank = rankOf(q, samples.size());
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    p.value = samples[rank - 1];
    p.beyond = samples.size() - rank;
    return p;
}

std::size_t
samplesNeeded(double q)
{
    std::size_t n = minBeyond;
    while (n - rankOf(q, n) < minBeyond)
        ++n;
    return n;
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    std::size_t mid = samples.size() / 2;
    if (samples.size() % 2 == 1)
        return samples[mid];
    return 0.5 * (samples[mid - 1] + samples[mid]);
}

double
mean(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    return std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
}

} // namespace perfbench
