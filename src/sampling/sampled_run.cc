#include "sampling/sampled_run.hh"

#include <cmath>
#include <memory>

#include "checkpoint/archive.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "sim/warm_start.hh"

namespace piton::sampling
{

std::vector<std::size_t>
clusterableIntervals(const std::vector<IntervalRecord> &intervals)
{
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < intervals.size(); ++i)
        if (!intervals[i].partial && intervals[i].insns > 0)
            idx.push_back(i);
    return idx;
}

ClusterResult
selectSlices(const std::vector<IntervalRecord> &intervals,
             const SampledOptions &opts)
{
    const std::vector<std::size_t> idx = clusterableIntervals(intervals);
    std::vector<SparseFeature> feats;
    std::vector<double> weights;
    feats.reserve(idx.size());
    weights.reserve(idx.size());
    for (const std::size_t i : idx) {
        feats.push_back(normalizeBbv(intervals[i].bbv));
        weights.push_back(static_cast<double>(intervals[i].insns));
    }
    ClusterOptions copts;
    copts.maxClusters = opts.maxSlices;
    copts.maxIters = opts.maxIters;
    copts.seed = opts.seed;
    return kmeansCluster(feats, weights, copts);
}

SampledEstimate
runSampled(const std::vector<IntervalRecord> &intervals,
           const sim::SystemOptions &opts, const SampledOptions &sopts)
{
    SampledEstimate est;
    const std::vector<std::size_t> idx = clusterableIntervals(intervals);
    est.clusteredIntervals = static_cast<std::uint32_t>(idx.size());

    // Exact terms from the profile: total instructions, and the
    // energy/time of the intervals excluded from clustering.
    double exact_j = 0.0;
    double exact_s = 0.0;
    {
        std::size_t next = 0;
        for (std::size_t i = 0; i < intervals.size(); ++i) {
            est.totalInsns += intervals[i].insns;
            if (next < idx.size() && idx[next] == i) {
                ++next;
                continue;
            }
            exact_j += intervals[i].energyJ();
            exact_s += intervals[i].seconds;
        }
    }
    est.exactJ = exact_j;

    if (idx.empty()) {
        // Nothing clusterable (e.g. the run fit in one tail interval):
        // the "estimate" is the exact residue, with no sampling error.
        est.energyJ = exact_j;
        est.seconds = exact_s;
        est.powerW = exact_s > 0.0 ? exact_j / exact_s : 0.0;
        est.epi = est.totalInsns != 0
                      ? exact_j / static_cast<double>(est.totalInsns)
                      : 0.0;
        return est;
    }

    est.clustering = selectSlices(intervals, sopts);
    const ClusterResult &cl = est.clustering;

    // Replay the representatives.  Each slot is written by exactly one
    // task and the stitch below walks clusters in fixed order, so
    // sopts.threads cannot affect the result.
    std::vector<SliceResult> slices(cl.clusters);
    std::vector<std::uint32_t> active;
    for (std::uint32_t c = 0; c < cl.clusters; ++c)
        if (cl.weightSum[c] > 0.0)
            active.push_back(c);
    parallelFor(active.size(), sopts.threads, [&](std::size_t a) {
        const std::uint32_t c = active[a];
        const std::size_t which = idx[cl.representative[c]];
        const IntervalRecord &rec = intervals[which];
        piton_assert(!rec.image.empty(),
                     "representative interval %zu has no checkpoint image "
                     "(profile captured without captureImages?)",
                     which);
        const std::unique_ptr<sim::System> sys =
            sim::SweepWarmStart::fromImage(opts,
                                           ckpt::unpackImage(rec.image))
                .fork();
        const sim::CompletionResult res = sys->runToCompletion(rec.cycles);
        SliceResult s;
        s.interval = static_cast<std::uint32_t>(which);
        s.cluster = c;
        s.insns = res.insts - rec.startInsns;
        s.cycles = res.cycles;
        s.seconds = res.seconds;
        s.energyJ = res.onChipEnergyJ;
        s.clusterInsns = cl.weightSum[c];
        slices[c] = s;
    });

    // Within-cluster instruction-weighted variance of the profile's
    // energy-per-instruction ratios (two fixed-order passes).
    std::vector<double> mean_r(cl.clusters, 0.0);
    for (std::size_t p = 0; p < idx.size(); ++p)
        mean_r[cl.assignment[p]] += intervals[idx[p]].energyJ();
    for (std::uint32_t c = 0; c < cl.clusters; ++c)
        if (cl.weightSum[c] > 0.0)
            mean_r[c] /= cl.weightSum[c];
    std::vector<double> var_r(cl.clusters, 0.0);
    for (std::size_t p = 0; p < idx.size(); ++p) {
        const IntervalRecord &rec = intervals[idx[p]];
        const std::uint32_t c = cl.assignment[p];
        const double r =
            rec.energyJ() / static_cast<double>(rec.insns);
        const double d = r - mean_r[c];
        var_r[c] += static_cast<double>(rec.insns) * d * d;
    }

    // Stitch: ratio estimator per cluster plus the exact residue.
    double energy = exact_j;
    double seconds = exact_s;
    double var_e = 0.0;
    for (const std::uint32_t c : active) {
        const SliceResult &s = slices[c];
        piton_assert(s.insns != 0, "replayed slice retired nothing");
        const double inv_i = 1.0 / static_cast<double>(s.insns);
        energy += cl.weightSum[c] * (s.energyJ * inv_i);
        seconds += cl.weightSum[c] * (s.seconds * inv_i);
        var_e += cl.weightSum[c] * var_r[c]; // = W_c^2 * (var_r/W_c)
        est.simulatedInsns += s.insns;
        est.simulatedCycles += s.cycles;
        est.slices.push_back(s);
    }

    est.energyJ = energy;
    est.energyCi95J = 1.96 * std::sqrt(var_e);
    est.seconds = seconds;
    est.powerW = seconds > 0.0 ? energy / seconds : 0.0;
    if (est.totalInsns != 0) {
        const double inv_n = 1.0 / static_cast<double>(est.totalInsns);
        est.epi = energy * inv_n;
        est.epiCi95 = est.energyCi95J * inv_n;
        est.simulatedFrac =
            static_cast<double>(est.simulatedInsns) * inv_n;
    }
    return est;
}

} // namespace piton::sampling
