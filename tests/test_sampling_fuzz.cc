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
 *  - clusterableIntervals() excludes exactly the tail/idle intervals.
 *
 * PITON_FUZZ_ITERS overrides the case count (CI runs a reduced count
 * under the sanitizers).
 */

#include <cstdint>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

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

        const sampling::ClusterResult a =
            sampling::kmeansCluster(pts, weights, copts);
        const sampling::ClusterResult b =
            sampling::kmeansCluster(pts, weights, copts);

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
            rec.bbv.resize(dims);
            for (auto &v : rec.bbv)
                v = rng.below(1000);
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
