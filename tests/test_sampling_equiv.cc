/**
 * @file
 * Bit-equivalence suite for sampled simulation (DESIGN.md §14).
 *
 * The sampling pipeline's promise is that everything it derives —
 * interval records, BBV features, slice selection, replayed slice
 * energies, and the stitched estimate — is *bit-identical* under the
 * fast and legacy engines and at any replay thread count, and that a
 * slice restored from an interval image replays its interval.  These
 * tests profile the same phased workload under every such configuration
 * and compare the results field by field (doubles as raw bits; no
 * tolerances, by design).
 */

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
constexpr std::uint64_t kReps = 3;
constexpr std::uint64_t kIntervalInsns = 150'000;

std::uint64_t
bitsOf(double d)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

sim::SystemOptions
samplingOptions(bool fast_path)
{
    sim::SystemOptions opts;
    opts.bbvBuckets = 64;
    opts.fastPath = fast_path;
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

/** A profile reduced to comparable bits (images excluded: they embed
 *  engine-configuration fingerprints by design). */
struct ProfileFingerprint
{
    std::vector<std::uint64_t> words;

    bool operator==(const ProfileFingerprint &o) const
    {
        return words == o.words;
    }
};

ProfileFingerprint
fingerprint(const std::vector<sampling::IntervalRecord> &intervals)
{
    ProfileFingerprint f;
    for (const auto &rec : intervals) {
        f.words.push_back(rec.startInsns);
        f.words.push_back(rec.startCycle);
        f.words.push_back(rec.insns);
        f.words.push_back(rec.cycles);
        f.words.push_back(bitsOf(rec.seconds));
        f.words.push_back(bitsOf(rec.activeJ));
        f.words.push_back(bitsOf(rec.idleJ));
        f.words.push_back(rec.windows);
        f.words.push_back(rec.partial ? 1 : 0);
        f.words.push_back(rec.bbv.dims);
        for (std::size_t k = 0; k < rec.bbv.index.size(); ++k) {
            f.words.push_back(rec.bbv.index[k]);
            f.words.push_back(rec.bbv.value[k]);
        }
    }
    return f;
}

std::vector<sampling::IntervalRecord>
profileUnder(const sim::SystemOptions &opts, const isa::Program &kernel,
             bool capture_images = true)
{
    sim::System sys(opts);
    loadPhased(sys, kernel);
    sampling::ProfilerOptions popts;
    popts.intervalInsns = kIntervalInsns;
    popts.captureImages = capture_images;
    sampling::IntervalProfiler prof(sys, popts);
    const sim::CompletionResult res = prof.run(kMaxCycles);
    EXPECT_TRUE(res.completed);
    return prof.intervals();
}

TEST(SamplingEquiv, ProfileAndSliceSelectionAreEngineInvariant)
{
    const isa::Program kernel =
        workloads::makePhasedEnergyProgram(kReps);
    // Images differ across configurations (they record the engine
    // fingerprint), so compare image-free profiles.
    const auto legacy = profileUnder(samplingOptions(false), kernel,
                                     /*capture_images=*/false);
    ASSERT_GE(legacy.size(), 3u);

    const auto fast = profileUnder(samplingOptions(true), kernel,
                                   /*capture_images=*/false);
    EXPECT_EQ(fingerprint(fast), fingerprint(legacy));
    const sampling::ClusterResult a = sampling::selectSlices(legacy, {});
    const sampling::ClusterResult b = sampling::selectSlices(fast, {});
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_EQ(a.representative, b.representative);
    EXPECT_EQ(a.weightSum, b.weightSum);
}

TEST(SamplingEquiv, StitchedEstimateIsReplayThreadInvariant)
{
    const isa::Program kernel =
        workloads::makePhasedEnergyProgram(kReps);
    const sim::SystemOptions opts = samplingOptions(true);
    const auto intervals = profileUnder(opts, kernel);

    sampling::SampledOptions s1;
    s1.threads = 1;
    sampling::SampledOptions s4;
    s4.threads = 4;
    const sampling::SampledEstimate a =
        sampling::runSampled(intervals, opts, s1);
    const sampling::SampledEstimate b =
        sampling::runSampled(intervals, opts, s4);

    EXPECT_EQ(bitsOf(a.energyJ), bitsOf(b.energyJ));
    EXPECT_EQ(bitsOf(a.energyCi95J), bitsOf(b.energyCi95J));
    EXPECT_EQ(bitsOf(a.seconds), bitsOf(b.seconds));
    EXPECT_EQ(bitsOf(a.epi), bitsOf(b.epi));
    EXPECT_EQ(a.simulatedInsns, b.simulatedInsns);
    ASSERT_EQ(a.slices.size(), b.slices.size());
    for (std::size_t i = 0; i < a.slices.size(); ++i) {
        EXPECT_EQ(a.slices[i].interval, b.slices[i].interval);
        EXPECT_EQ(bitsOf(a.slices[i].energyJ),
                  bitsOf(b.slices[i].energyJ));
    }
}

TEST(SamplingEquiv, SliceReplaysBitwiseReproduceProfiledIntervals)
{
    const isa::Program kernel =
        workloads::makePhasedEnergyProgram(kReps);
    const sim::SystemOptions opts = samplingOptions(true);
    sim::System sys(opts);
    loadPhased(sys, kernel);
    sampling::ProfilerOptions popts;
    popts.intervalInsns = kIntervalInsns;
    sampling::IntervalProfiler prof(sys, popts);
    ASSERT_TRUE(prof.run(kMaxCycles).completed);

    const sampling::SampledEstimate est =
        sampling::runSampled(prof.intervals(), opts, {});
    ASSERT_FALSE(est.slices.empty());
    for (const auto &s : est.slices) {
        const sampling::IntervalRecord &rec = prof.intervals()[s.interval];
        EXPECT_EQ(s.insns, rec.insns);
        EXPECT_EQ(s.cycles, rec.cycles);
        EXPECT_EQ(bitsOf(s.energyJ), bitsOf(rec.energyJ()))
            << "slice " << s.interval
            << " replay energy diverged from the profile";
    }
}

} // namespace
