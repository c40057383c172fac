/**
 * @file
 * Unit tests for the sampling subsystem (DESIGN.md §14): BBV feature
 * normalization, the deterministic k-means clusterer, per-core BBV
 * accumulation, the interval profiler's bookkeeping, and the stitched
 * estimator's exactness/CI properties in the degenerate cases where
 * the right answer is known in closed form.
 */

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "sampling/cluster.hh"
#include "sampling/profiler.hh"
#include "sampling/sampled_run.hh"
#include "sim/system.hh"
#include "workloads/microbenchmarks.hh"

namespace
{

using namespace piton;

constexpr Cycle kMaxCycles = 400'000'000ULL;

std::vector<sampling::SparseFeature>
sparsePoints(const std::vector<std::vector<double>> &dense)
{
    std::vector<sampling::SparseFeature> pts;
    for (const auto &p : dense)
        pts.push_back(sampling::SparseFeature::fromDense(p));
    return pts;
}

sim::SystemOptions
samplingOptions()
{
    sim::SystemOptions opts;
    opts.bbvBuckets = 64;
    return opts;
}

void
loadPhased(sim::System &sys, const isa::Program &kernel)
{
    for (TileId tile = 0; tile < 25; ++tile)
        for (ThreadId tid = 0; tid < 2; ++tid) {
            const RegVal hwid = tile * 2 + tid;
            sys.loadProgram(tile, tid, &kernel,
                            {{1, workloads::kMixedDataBase + hwid * 4096}});
        }
}

TEST(NormalizeBbv, L1NormalizesAndKeepsZeroVectorsZero)
{
    const sampling::SparseFeature sf =
        sampling::normalizeBbv(sampling::SparseBbv::fromDense({2, 0, 6, 0}));
    EXPECT_EQ(sf.index, (std::vector<std::uint32_t>{0, 2}));
    const std::vector<double> f = sf.toDense();
    ASSERT_EQ(f.size(), 4u);
    EXPECT_DOUBLE_EQ(f[0], 0.25);
    EXPECT_DOUBLE_EQ(f[1], 0.0);
    EXPECT_DOUBLE_EQ(f[2], 0.75);
    EXPECT_DOUBLE_EQ(f[3], 0.0);

    const sampling::SparseFeature sz =
        sampling::normalizeBbv(sampling::SparseBbv::fromDense({0, 0, 0}));
    EXPECT_EQ(sz.dims, 3u);
    EXPECT_TRUE(sz.index.empty());
    for (const double v : sz.toDense())
        EXPECT_EQ(v, 0.0);
}

TEST(KmeansCluster, SeparatesObviousBlobsAndPicksMembers)
{
    // Two tight blobs far apart; k = 2 must split exactly along them.
    std::vector<std::vector<double>> pts;
    std::vector<double> w;
    for (int i = 0; i < 5; ++i) {
        pts.push_back({0.0 + 0.01 * i, 0.0});
        w.push_back(1.0);
    }
    for (int i = 0; i < 5; ++i) {
        pts.push_back({10.0 + 0.01 * i, 0.0});
        w.push_back(2.0);
    }
    sampling::ClusterOptions copts;
    copts.maxClusters = 2;
    const sampling::ClusterResult r =
        sampling::kmeansCluster(sparsePoints(pts), w, copts);
    ASSERT_EQ(r.clusters, 2u);
    // Same blob -> same cluster; different blobs -> different clusters.
    for (std::size_t i = 1; i < 5; ++i)
        EXPECT_EQ(r.assignment[i], r.assignment[0]);
    for (std::size_t i = 6; i < 10; ++i)
        EXPECT_EQ(r.assignment[i], r.assignment[5]);
    EXPECT_NE(r.assignment[0], r.assignment[5]);
    // Representatives belong to their own clusters, weights add up.
    for (std::uint32_t c = 0; c < r.clusters; ++c)
        EXPECT_EQ(r.assignment[r.representative[c]], c);
    EXPECT_NEAR(r.weight[0] + r.weight[1], 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(r.weightSum[r.assignment[0]], 5.0);
    EXPECT_DOUBLE_EQ(r.weightSum[r.assignment[5]], 10.0);
}

TEST(KmeansCluster, IsDeterministicAndClampsK)
{
    std::vector<std::vector<double>> pts;
    std::vector<double> w;
    for (int i = 0; i < 7; ++i) {
        pts.push_back({static_cast<double>(i % 3),
                       static_cast<double>((i * 5) % 4)});
        w.push_back(1.0 + i);
    }
    sampling::ClusterOptions copts;
    copts.maxClusters = 16; // > point count: k must clamp to 7
    const sampling::ClusterResult a =
        sampling::kmeansCluster(sparsePoints(pts), w, copts);
    const sampling::ClusterResult b =
        sampling::kmeansCluster(sparsePoints(pts), w, copts);
    EXPECT_EQ(a.clusters, 7u);
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_EQ(a.representative, b.representative);
    EXPECT_EQ(a.weightSum, b.weightSum);
    // With k == n every point ends up alone with itself as rep.
    for (std::uint32_t c = 0; c < a.clusters; ++c)
        EXPECT_EQ(a.assignment[a.representative[c]], c);
}

TEST(CoreBbv, EveryRetiredInstructionLandsInExactlyOneBucket)
{
    sim::System sys(samplingOptions());
    const isa::Program kernel = workloads::makePhasedEnergyProgram(2);
    loadPhased(sys, kernel);
    const sim::CompletionResult res = sys.runToCompletion(kMaxCycles);
    ASSERT_TRUE(res.completed);
    std::uint64_t bumped = 0;
    for (TileId t = 0; t < 25; ++t)
        for (const std::uint64_t v : sys.pitonChip().coreBbv(t))
            bumped += v;
    EXPECT_EQ(bumped, sys.pitonChip().totalInsts());
}

TEST(CoreBbv, DisabledByDefaultAndNeverPerturbsResults)
{
    const isa::Program kernel = workloads::makePhasedEnergyProgram(2);
    sim::SystemOptions plain; // bbvBuckets = 0
    sim::System a(plain);
    loadPhased(a, kernel);
    const sim::CompletionResult ra = a.runToCompletion(kMaxCycles);
    EXPECT_EQ(a.pitonChip().bbvBuckets(), 0u);

    sim::System b(samplingOptions());
    loadPhased(b, kernel);
    const sim::CompletionResult rb = b.runToCompletion(kMaxCycles);

    ASSERT_TRUE(ra.completed);
    ASSERT_TRUE(rb.completed);
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.insts, rb.insts);
    std::uint64_t ea = 0, eb = 0;
    std::memcpy(&ea, &ra.onChipEnergyJ, sizeof(ea));
    std::memcpy(&eb, &rb.onChipEnergyJ, sizeof(eb));
    EXPECT_EQ(ea, eb);
}

TEST(IntervalProfiler, IntervalsTileTheRunExactly)
{
    sim::System sys(samplingOptions());
    const isa::Program kernel = workloads::makePhasedEnergyProgram(4);
    loadPhased(sys, kernel);
    sampling::ProfilerOptions popts;
    popts.intervalInsns = 150'000;
    sampling::IntervalProfiler prof(sys, popts);
    const sim::CompletionResult res = prof.run(kMaxCycles);
    ASSERT_TRUE(res.completed);

    const auto &iv = prof.intervals();
    ASSERT_GE(iv.size(), 3u);
    // Contiguous, exhaustive tiling of the instruction/cycle stream.
    EXPECT_EQ(iv.front().startInsns, 0u);
    for (std::size_t i = 1; i < iv.size(); ++i) {
        EXPECT_EQ(iv[i].startInsns,
                  iv[i - 1].startInsns + iv[i - 1].insns);
        EXPECT_EQ(iv[i].startCycle,
                  iv[i - 1].startCycle + iv[i - 1].cycles);
    }
    EXPECT_EQ(prof.totalInsns(), res.insts);
    // Full intervals meet the size floor; only the tail is partial.
    for (std::size_t i = 0; i + 1 < iv.size(); ++i) {
        EXPECT_FALSE(iv[i].partial);
        EXPECT_GE(iv[i].insns, popts.intervalInsns);
        EXPECT_FALSE(iv[i].image.empty());
    }
    EXPECT_TRUE(iv.back().partial);
    // Energy/time tile the run too (FP association differs, so near).
    EXPECT_NEAR(prof.totalEnergyJ(), res.onChipEnergyJ,
                1e-12 * res.onChipEnergyJ);
    EXPECT_NEAR(prof.totalSeconds(), res.seconds, 1e-12 * res.seconds);
}

TEST(SampledRun, StitchAppliesTheRatioEstimatorOverReplayedSlices)
{
    sim::SystemOptions opts = samplingOptions();
    sim::System sys(opts);
    const isa::Program kernel = workloads::makePhasedEnergyProgram(3);
    loadPhased(sys, kernel);
    sampling::ProfilerOptions popts;
    popts.intervalInsns = 200'000;
    sampling::IntervalProfiler prof(sys, popts);
    ASSERT_TRUE(prof.run(kMaxCycles).completed);

    sampling::SampledOptions sopts;
    sopts.maxSlices = 4;
    const sampling::SampledEstimate est =
        sampling::runSampled(prof.intervals(), opts, sopts);

    EXPECT_EQ(est.totalInsns, prof.totalInsns());
    ASSERT_FALSE(est.slices.empty());
    // Each replayed slice bitwise-reproduces its profiled interval
    // (the determinism contract the estimator stands on) ...
    double expected = est.exactJ;
    for (const auto &s : est.slices) {
        const sampling::IntervalRecord &rec = prof.intervals()[s.interval];
        EXPECT_EQ(s.insns, rec.insns);
        EXPECT_EQ(s.cycles, rec.cycles);
        std::uint64_t replay_bits = 0, profile_bits = 0;
        std::memcpy(&replay_bits, &s.energyJ, sizeof(replay_bits));
        const double profile_j = rec.energyJ();
        std::memcpy(&profile_bits, &profile_j, sizeof(profile_bits));
        EXPECT_EQ(replay_bits, profile_bits);
        expected +=
            s.clusterInsns * (s.energyJ / static_cast<double>(s.insns));
    }
    // ... and the stitched energy is exactly the ratio-estimator sum.
    EXPECT_DOUBLE_EQ(est.energyJ, expected);
    EXPECT_GT(est.simulatedFrac, 0.0);
    EXPECT_LT(est.simulatedFrac, 1.0);
    // The estimate should land well inside a couple of CI widths of
    // the exact profile energy on this benign workload.
    EXPECT_NEAR(est.energyJ, prof.totalEnergyJ(),
                2.0 * est.energyCi95J + 0.02 * prof.totalEnergyJ());
}

TEST(SampledRun, EmptyAndTailOnlyProfilesFallBackToExactTerms)
{
    // No intervals at all.
    const sampling::SampledEstimate none =
        sampling::runSampled({}, samplingOptions(), {});
    EXPECT_EQ(none.totalInsns, 0u);
    EXPECT_EQ(none.energyJ, 0.0);
    EXPECT_TRUE(none.slices.empty());

    // A single partial (tail) interval: exact term, nothing replayed.
    sampling::IntervalRecord tail;
    tail.insns = 1000;
    tail.activeJ = 2.0e-3;
    tail.idleJ = 1.0e-3;
    tail.seconds = 0.5;
    tail.partial = true;
    const sampling::SampledEstimate est = sampling::runSampled(
        {tail}, samplingOptions(), {});
    EXPECT_EQ(est.clusteredIntervals, 0u);
    EXPECT_TRUE(est.slices.empty());
    EXPECT_DOUBLE_EQ(est.energyJ, 3.0e-3);
    EXPECT_DOUBLE_EQ(est.exactJ, 3.0e-3);
    EXPECT_DOUBLE_EQ(est.seconds, 0.5);
    EXPECT_EQ(est.totalInsns, 1000u);
    EXPECT_EQ(est.simulatedInsns, 0u);
}

TEST(SampledRun, ClusterableIntervalsFilterTailAndIdle)
{
    std::vector<sampling::IntervalRecord> recs(4);
    recs[0].insns = 10;
    recs[1].insns = 0; // idle: excluded
    recs[2].insns = 20;
    recs[3].insns = 5;
    recs[3].partial = true; // tail: excluded
    const std::vector<std::size_t> idx =
        sampling::clusterableIntervals(recs);
    ASSERT_EQ(idx.size(), 2u);
    EXPECT_EQ(idx[0], 0u);
    EXPECT_EQ(idx[1], 2u);
}

} // namespace
