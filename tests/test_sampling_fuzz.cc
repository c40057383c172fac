/**
 * @file
 * Property fuzzer for the sampling subsystem's pure layers: seeded
 * random point clouds and synthetic interval profiles drive the
 * clusterer and the slice-selection path, checking the invariants the
 * stitched estimator relies on:
 *
 *  - determinism: the same input always yields the identical result;
 *  - totality: every point is assigned, every assignment is in range;
 *  - representatives are members of the clusters they stand for;
 *  - cluster weights partition the total weight (fixed-order FP sums,
 *    so the partition is exact in bits, not just approximately);
 *  - clusterableIntervals() excludes exactly the tail/idle intervals;
 *  - the sparse clusterer gives the bits of the dense one it replaced
 *    (kept below as the reference).
 *
 * PITON_FUZZ_ITERS overrides the case count (CI runs a reduced count
 * under the sanitizers).
 */

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "sampling/cluster.hh"
#include "sampling/profiler.hh"
#include "sampling/sampled_run.hh"

namespace
{

using namespace piton;

int
fuzzIters(int def)
{
    if (const char *s = std::getenv("PITON_FUZZ_ITERS")) {
        const long v = std::strtol(s, nullptr, 10);
        if (v > 0)
            return static_cast<int>(v);
    }
    return def;
}

/** The dense clusterer the sparse one replaced, verbatim in its
 *  arithmetic: the bit-exact reference. */
namespace dense
{

double
sqDist(const std::vector<double> &a, const std::vector<double> &b)
{
    double d = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double x = a[i] - b[i];
        d += x * x;
    }
    return d;
}

std::uint32_t
nearestCenter(const std::vector<double> &p,
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

std::vector<double>
normalizeBbv(const std::vector<std::uint64_t> &bbv)
{
    std::uint64_t total = 0;
    for (const std::uint64_t v : bbv)
        total += v;
    std::vector<double> out(bbv.size(), 0.0);
    if (total == 0)
        return out;
    const double inv = 1.0 / static_cast<double>(total);
    for (std::size_t i = 0; i < bbv.size(); ++i)
        out[i] = static_cast<double>(bbv[i]) * inv;
    return out;
}

sampling::ClusterResult
kmeansCluster(const std::vector<std::vector<double>> &points,
              const std::vector<double> &weights,
              const sampling::ClusterOptions &opts)
{
    sampling::ClusterResult res;
    const std::size_t n = points.size();
    if (n == 0)
        return res;
    const std::size_t dims = points[0].size();
    const std::uint32_t k = static_cast<std::uint32_t>(std::min<std::size_t>(
        std::max<std::uint32_t>(opts.maxClusters, 1), n));

    std::vector<std::vector<double>> centers;
    centers.push_back(points[deriveTaskSeed(opts.seed, 0) % n]);
    std::vector<double> min_d(n);
    for (std::size_t i = 0; i < n; ++i)
        min_d[i] = sqDist(points[i], centers[0]);
    while (centers.size() < k) {
        std::size_t far = 0;
        for (std::size_t i = 1; i < n; ++i)
            if (min_d[i] > min_d[far])
                far = i;
        centers.push_back(points[far]);
        for (std::size_t i = 0; i < n; ++i)
            min_d[i] = std::min(min_d[i], sqDist(points[i], centers.back()));
    }

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
            for (std::size_t d = 0; d < dims; ++d)
                sums[c][d] += w * points[i][d];
        }
        for (std::uint32_t c = 0; c < k; ++c) {
            if (cw[c] > 0.0) {
                for (std::size_t d = 0; d < dims; ++d)
                    centers[c][d] = sums[c][d] / cw[c];
                continue;
            }
            std::size_t far = 0;
            double far_d = -1.0;
            for (std::size_t i = 0; i < n; ++i) {
                const double d = sqDist(points[i], centers[assign[i]]);
                if (d > far_d) {
                    far_d = d;
                    far = i;
                }
            }
            centers[c] = points[far];
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
        if (d < best_d[c]) {
            best_d[c] = d;
            res.representative[c] = static_cast<std::uint32_t>(i);
        }
    }
    return res;
}

} // namespace dense

std::vector<std::uint64_t>
bitsOf(const std::vector<double> &v)
{
    std::vector<std::uint64_t> bits;
    for (const double x : v)
        bits.push_back(std::bit_cast<std::uint64_t>(x));
    return bits;
}

TEST(SamplingFuzz, KmeansInvariantsHoldOnRandomPointClouds)
{
    const int iters = fuzzIters(60);
    for (int it = 0; it < iters; ++it) {
        Rng rng(0x5A3u + static_cast<std::uint64_t>(it) * 7919u);
        const std::size_t n = 1 + rng.below(40);
        const std::size_t dims = 1 + rng.below(12);
        std::vector<std::vector<double>> pts(n);
        std::vector<double> weights(n);
        for (std::size_t i = 0; i < n; ++i) {
            pts[i].resize(dims);
            for (std::size_t d = 0; d < dims; ++d)
                pts[i][d] = rng.uniform(-4.0, 4.0);
            // Mix in exact duplicates: empty-cluster reseeding and the
            // tie-break rules only matter when points collide.
            if (i > 0 && rng.below(4) == 0)
                pts[i] = pts[rng.below(i)];
            weights[i] = rng.below(8) == 0
                             ? 0.0
                             : rng.uniform(1.0, 1e6);
        }
        sampling::ClusterOptions copts;
        copts.maxClusters = 1 + static_cast<std::uint32_t>(rng.below(10));
        copts.maxIters = 1 + static_cast<std::uint32_t>(rng.below(40));
        copts.seed = rng.next();

        std::vector<sampling::SparseFeature> sparse;
        for (const auto &p : pts)
            sparse.push_back(sampling::SparseFeature::fromDense(p));
        const sampling::ClusterResult a =
            sampling::kmeansCluster(sparse, weights, copts);
        const sampling::ClusterResult b =
            sampling::kmeansCluster(sparse, weights, copts);

        // Determinism, in full.
        EXPECT_EQ(a.clusters, b.clusters);
        EXPECT_EQ(a.assignment, b.assignment);
        EXPECT_EQ(a.representative, b.representative);
        EXPECT_EQ(a.weightSum, b.weightSum);
        EXPECT_EQ(a.iterations, b.iterations);

        ASSERT_EQ(a.clusters,
                  std::min<std::size_t>(copts.maxClusters, n));
        ASSERT_EQ(a.assignment.size(), n);
        std::vector<double> cluster_w(a.clusters, 0.0);
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_LT(a.assignment[i], a.clusters);
            cluster_w[a.assignment[i]] += weights[i];
        }
        double total = 0.0;
        for (std::uint32_t c = 0; c < a.clusters; ++c) {
            // weightSum is accumulated in point order per cluster, the
            // same order as this recomputation: exact match required.
            EXPECT_EQ(a.weightSum[c], cluster_w[c]);
            total += a.weightSum[c];
            ASSERT_LT(a.representative[c], n);
            if (cluster_w[c] > 0.0) {
                // A weighted cluster's representative belongs to it.
                EXPECT_EQ(a.assignment[a.representative[c]], c);
            }
        }
        if (total > 0.0) {
            double frac = 0.0;
            for (std::uint32_t c = 0; c < a.clusters; ++c)
                frac += a.weight[c];
            EXPECT_NEAR(frac, 1.0, 1e-9);
        }
    }
}

TEST(SamplingFuzz, SparseKmeansMatchesTheDenseReferenceBitForBit)
{
    const int iters = fuzzIters(60);
    for (int it = 0; it < iters; ++it) {
        Rng rng(0x5BA5u + static_cast<std::uint64_t>(it) * 6007u);
        const std::size_t n = 1 + rng.below(40);
        const std::size_t dims = 1 + rng.below(96);
        // BBV-like clouds: mostly zero buckets, some all-zero points,
        // exact duplicates and zero weights.
        const std::uint64_t zero_pct = 30 + rng.below(70);
        std::vector<sampling::SparseFeature> sparse;
        std::vector<std::vector<double>> dense_pts;
        std::vector<double> weights(n);
        for (std::size_t i = 0; i < n; ++i) {
            std::vector<std::uint64_t> bbv(dims, 0);
            if (rng.below(6) != 0)
                for (auto &v : bbv)
                    if (rng.below(100) >= zero_pct)
                        v = 1 + rng.below(1u << 20);
            const auto sb = sampling::SparseBbv::fromDense(bbv);
            sparse.push_back(sampling::normalizeBbv(sb));
            dense_pts.push_back(dense::normalizeBbv(bbv));
            if (i > 0 && rng.below(5) == 0) {
                const std::size_t j = rng.below(i);
                sparse.back() = sparse[j];
                dense_pts.back() = dense_pts[j];
            }
            ASSERT_EQ(bitsOf(sparse.back().toDense()),
                      bitsOf(dense_pts.back()));
            weights[i] = rng.below(8) == 0
                             ? 0.0
                             : static_cast<double>(1 + rng.below(200000));
        }
        sampling::ClusterOptions copts;
        copts.maxClusters = 1 + static_cast<std::uint32_t>(rng.below(10));
        copts.maxIters = 1 + static_cast<std::uint32_t>(rng.below(40));
        copts.seed = rng.next();

        const sampling::ClusterResult got =
            sampling::kmeansCluster(sparse, weights, copts);
        const sampling::ClusterResult want =
            dense::kmeansCluster(dense_pts, weights, copts);
        EXPECT_EQ(got.clusters, want.clusters);
        EXPECT_EQ(got.iterations, want.iterations);
        EXPECT_EQ(got.assignment, want.assignment);
        EXPECT_EQ(got.representative, want.representative);
        EXPECT_EQ(bitsOf(got.weightSum), bitsOf(want.weightSum));
    }
}

TEST(SamplingFuzz, SliceSelectionIsDeterministicOnSyntheticProfiles)
{
    const int iters = fuzzIters(40);
    for (int it = 0; it < iters; ++it) {
        Rng rng(0xC10Du + static_cast<std::uint64_t>(it) * 104729u);
        const std::size_t n = rng.below(30);
        const std::size_t dims = 4 + rng.below(16);
        std::vector<sampling::IntervalRecord> recs(n);
        for (auto &rec : recs) {
            rec.insns = rng.below(5) == 0 ? 0 : 1000 + rng.below(100000);
            rec.partial = rng.below(8) == 0;
            rec.activeJ = rng.uniform(0.0, 1e-3);
            rec.idleJ = rng.uniform(0.0, 1e-4);
            rec.seconds = rng.uniform(1e-6, 1e-3);
            std::vector<std::uint64_t> bbv(dims);
            for (auto &v : bbv)
                v = rng.below(1000);
            rec.bbv = sampling::SparseBbv::fromDense(bbv);
        }
        sampling::SampledOptions sopts;
        sopts.maxSlices = 1 + static_cast<std::uint32_t>(rng.below(8));
        sopts.seed = rng.next();

        const std::vector<std::size_t> idx =
            sampling::clusterableIntervals(recs);
        for (const std::size_t i : idx) {
            EXPECT_FALSE(recs[i].partial);
            EXPECT_GT(recs[i].insns, 0u);
        }
        std::size_t excluded = 0;
        for (std::size_t i = 0; i < n; ++i)
            if (recs[i].partial || recs[i].insns == 0)
                ++excluded;
        EXPECT_EQ(idx.size() + excluded, n);

        const sampling::ClusterResult a =
            sampling::selectSlices(recs, sopts);
        const sampling::ClusterResult b =
            sampling::selectSlices(recs, sopts);
        EXPECT_EQ(a.assignment, b.assignment);
        EXPECT_EQ(a.representative, b.representative);
        EXPECT_EQ(a.weightSum, b.weightSum);
        if (!idx.empty()) {
            EXPECT_EQ(a.assignment.size(), idx.size());
        }
    }
}

} // namespace
