/**
 * @file
 * Deterministic k-means phase clustering over interval BBV features
 * (DESIGN.md §14).
 *
 * SimPoint-style: each profiling interval's BBV is L1-normalized into
 * an instruction-frequency vector, intervals are clustered by squared
 * Euclidean distance, and each cluster elects the interval closest to
 * its centroid as the representative slice, weighted by the cluster's
 * share of the retired instructions.
 *
 * Every step is serial with a fixed iteration order and explicit tie
 * breaks (lowest index wins), and the inputs are integer BBV counts —
 * so the clustering, the representatives, and the weights are
 * bit-identical for a given profile regardless of engine, thread
 * count, or host parallelism.
 *
 * BBVs and features are sparse (most buckets of an interval are zero);
 * centers stay dense.  The arithmetic is the dense one bit for bit:
 * distances walk every dimension in index order, taking 0.0 - c as
 * -c, which is exact, and centroid sums skip only the w * 0.0 terms
 * of unlisted coordinates, which never change a sum that starts at
 * +0.0.
 */

#ifndef PITON_SAMPLING_CLUSTER_HH
#define PITON_SAMPLING_CLUSTER_HH

#include <cstdint>
#include <vector>

namespace piton::sampling
{

/** A vector of `dims` coordinates that lists only its nonzero ones,
 *  as (index, value) pairs in ascending index order. */
template <typename T>
struct SparseVector
{
    std::uint32_t dims = 0;
    std::vector<std::uint32_t> index;
    std::vector<T> value;

    static SparseVector
    fromDense(const std::vector<T> &dense)
    {
        SparseVector s;
        s.dims = static_cast<std::uint32_t>(dense.size());
        // Count first: a profile holds its BBVs for the whole run, so
        // the lists get exact capacity.
        std::size_t live = 0;
        for (const T &v : dense)
            live += v != T{} ? 1 : 0;
        s.index.reserve(live);
        s.value.reserve(live);
        for (std::uint32_t i = 0; i < s.dims; ++i)
            if (dense[i] != T{}) {
                s.index.push_back(i);
                s.value.push_back(dense[i]);
            }
        return s;
    }

    std::vector<T>
    toDense() const
    {
        std::vector<T> dense(dims, T{});
        for (std::size_t k = 0; k < index.size(); ++k)
            dense[index[k]] = value[k];
        return dense;
    }
};

/** Per-interval BBV deltas (flat tile-major bucket index). */
using SparseBbv = SparseVector<std::uint64_t>;
/** L1-normalized BBV frequencies. */
using SparseFeature = SparseVector<double>;

struct ClusterOptions
{
    /** Cluster count k (clamped to the point count; >= 1). */
    std::uint32_t maxClusters = 8;
    /** Lloyd-iteration cap (convergence usually takes far fewer). */
    std::uint32_t maxIters = 64;
    /** Seed for the farthest-point initialization (common/parallel.hh
     *  deriveTaskSeed stream). */
    std::uint64_t seed = 0x51CE;
};

struct ClusterResult
{
    std::uint32_t clusters = 0;
    /** Per point: its cluster id. */
    std::vector<std::uint32_t> assignment;
    /** Per cluster: the representative point (argmin distance to the
     *  final centroid; ties to the lowest index). */
    std::vector<std::uint32_t> representative;
    /** Per cluster: its share of the total point weight (sums to 1). */
    std::vector<double> weight;
    /** Per cluster: total point weight (e.g. instructions). */
    std::vector<double> weightSum;
    std::uint32_t iterations = 0;
};

/** L1-normalize a BBV count vector into a frequency feature (all-zero
 *  input stays all-zero). */
SparseFeature normalizeBbv(const SparseBbv &bbv);

/**
 * Weighted k-means over `points` (all the same `dims`).
 * `weights` (same length; e.g. per-interval instruction counts) drive
 * the centroid means and the cluster weights.  Initialization is
 * seeded farthest-point: the first center is seed-derived, each later
 * center is the point farthest from its nearest chosen center.
 * Empty clusters re-seed to the globally worst-fit point.
 */
ClusterResult kmeansCluster(const std::vector<SparseFeature> &points,
                            const std::vector<double> &weights,
                            const ClusterOptions &opts);

} // namespace piton::sampling

#endif // PITON_SAMPLING_CLUSTER_HH
