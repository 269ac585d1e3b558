/**
 * @file
 * Small order-statistics helpers for the simulator's batched mode,
 * and the exact reference the latency-histogram estimates are tested
 * against (one fencepost-prone formula, one home).
 */

#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

namespace ark {

/**
 * Nearest-rank percentile of an ascending-sorted sample set:
 * element ceil(p * n) (1-based), clamped into the sample range.
 * Returns 0 for an empty set.
 */
inline double
nearestRankPercentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    const double rank =
        std::ceil(p * static_cast<double>(sorted.size()));
    const size_t idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
    return sorted[std::min(idx, sorted.size() - 1)];
}

} // namespace ark
