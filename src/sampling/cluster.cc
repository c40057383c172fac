#include "sampling/cluster.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace piton::sampling
{

namespace
{

/** Squared distance of a sparse point to a dense center, in the dense
 *  order: every dimension, ascending.  An unlisted coordinate adds
 *  (0.0 - c)^2, which is exactly c * c. */
double
sqDist(const SparseFeature &p, const std::vector<double> &c)
{
    double d = 0.0;
    std::size_t i = 0;
    for (std::size_t k = 0; k < p.index.size(); ++k, ++i) {
        for (; i < p.index[k]; ++i)
            d += c[i] * c[i];
        const double x = p.value[k] - c[i];
        d += x * x;
    }
    for (; i < c.size(); ++i)
        d += c[i] * c[i];
    return d;
}

/** Nearest center of `p` (ties to the lowest center index). */
std::uint32_t
nearestCenter(const SparseFeature &p,
              const std::vector<std::vector<double>> &centers)
{
    std::uint32_t best = 0;
    double best_d = sqDist(p, centers[0]);
    for (std::uint32_t c = 1; c < centers.size(); ++c) {
        const double d = sqDist(p, centers[c]);
        if (d < best_d) {
            best_d = d;
            best = c;
        }
    }
    return best;
}

} // namespace

SparseFeature
normalizeBbv(const SparseBbv &bbv)
{
    std::uint64_t total = 0;
    for (const std::uint64_t v : bbv.value)
        total += v;
    SparseFeature out;
    out.dims = bbv.dims;
    if (total == 0)
        return out;
    const double inv = 1.0 / static_cast<double>(total);
    out.index = bbv.index;
    out.value.reserve(bbv.value.size());
    for (const std::uint64_t v : bbv.value)
        out.value.push_back(static_cast<double>(v) * inv);
    return out;
}

ClusterResult
kmeansCluster(const std::vector<SparseFeature> &points,
              const std::vector<double> &weights,
              const ClusterOptions &opts)
{
    ClusterResult res;
    const std::size_t n = points.size();
    if (n == 0)
        return res;
    piton_assert(weights.size() == n, "weights/points size mismatch");
    const std::size_t dims = points[0].dims;
    for (const auto &p : points)
        piton_assert(p.dims == dims, "inconsistent feature dims");

    const std::uint32_t k = static_cast<std::uint32_t>(std::min<std::size_t>(
        std::max<std::uint32_t>(opts.maxClusters, 1), n));

    // Seeded farthest-point init.  The seed only picks the first
    // center; everything after is a pure function of the points.
    std::vector<std::vector<double>> centers;
    centers.reserve(k);
    centers.push_back(points[deriveTaskSeed(opts.seed, 0) % n].toDense());
    std::vector<double> min_d(n);
    for (std::size_t i = 0; i < n; ++i)
        min_d[i] = sqDist(points[i], centers[0]);
    while (centers.size() < k) {
        std::size_t far = 0;
        for (std::size_t i = 1; i < n; ++i)
            if (min_d[i] > min_d[far]) // strict: ties to lowest index
                far = i;
        centers.push_back(points[far].toDense());
        for (std::size_t i = 0; i < n; ++i)
            min_d[i] = std::min(min_d[i], sqDist(points[i], centers.back()));
    }

    // Lloyd iterations, serial in point-index order.
    std::vector<std::uint32_t> assign(n, 0);
    std::vector<double> cw(k, 0.0);
    std::vector<std::vector<double>> sums(k, std::vector<double>(dims));
    std::uint32_t iter = 0;
    for (; iter < opts.maxIters; ++iter) {
        bool changed = iter == 0;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t c = nearestCenter(points[i], centers);
            if (c != assign[i]) {
                assign[i] = c;
                changed = true;
            }
        }
        if (!changed)
            break;

        for (std::uint32_t c = 0; c < k; ++c) {
            cw[c] = 0.0;
            std::fill(sums[c].begin(), sums[c].end(), 0.0);
        }
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t c = assign[i];
            const double w = weights[i];
            cw[c] += w;
            const SparseFeature &p = points[i];
            for (std::size_t k = 0; k < p.index.size(); ++k)
                sums[c][p.index[k]] += w * p.value[k];
        }
        for (std::uint32_t c = 0; c < k; ++c) {
            if (cw[c] > 0.0) {
                for (std::size_t d = 0; d < dims; ++d)
                    centers[c][d] = sums[c][d] / cw[c];
                continue;
            }
            // Empty (or zero-weight) cluster: re-seed to the globally
            // worst-fit point (largest distance to its own centroid,
            // ties to the lowest index).
            std::size_t far = 0;
            double far_d = -1.0;
            for (std::size_t i = 0; i < n; ++i) {
                const double d = sqDist(points[i], centers[assign[i]]);
                if (d > far_d) {
                    far_d = d;
                    far = i;
                }
            }
            centers[c] = points[far].toDense();
        }
    }

    res.clusters = k;
    res.assignment = std::move(assign);
    res.iterations = iter;
    res.representative.assign(k, 0);
    res.weightSum.assign(k, 0.0);
    std::vector<double> best_d(k, std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t c = res.assignment[i];
        res.weightSum[c] += weights[i];
        const double d = sqDist(points[i], centers[c]);
        if (d < best_d[c]) { // strict: ties to lowest index
            best_d[c] = d;
            res.representative[c] = static_cast<std::uint32_t>(i);
        }
    }
    double total_w = 0.0;
    for (const double w : res.weightSum)
        total_w += w;
    res.weight.assign(k, 0.0);
    if (total_w > 0.0)
        for (std::uint32_t c = 0; c < k; ++c)
            res.weight[c] = res.weightSum[c] / total_w;
    return res;
}

} // namespace piton::sampling
