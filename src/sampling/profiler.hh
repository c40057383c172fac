/**
 * @file
 * Interval profiler for sampled simulation (DESIGN.md §14).
 *
 * Slices a workload's executed instruction stream into fixed-size
 * intervals at run-window granularity and records, per interval: the
 * per-tile basic-block-vector (BBV) deltas that characterize what code
 * ran, the interval's exact instruction/cycle/energy totals, and a
 * checkpoint image of the system state at the interval's start (the
 * fast-forward point a sampled run forks from).
 *
 * Determinism contract: interval boundaries are decided by retired
 * instruction counts at window boundaries, and BBV counts are
 * commutative integers bumped at retire — both identical under the
 * fast/legacy engines, so the profile (and everything derived from it:
 * clustering, slice selection, stitched estimates) is bit-identical
 * across engines.
 */

#ifndef PITON_SAMPLING_PROFILER_HH
#define PITON_SAMPLING_PROFILER_HH

#include <cstdint>
#include <vector>

#include "sampling/cluster.hh"
#include "sim/system.hh"

namespace piton::sampling
{

struct ProfilerOptions
{
    /** Interval size in retired instructions.  An interval closes at
     *  the first run-window boundary where it has retired at least
     *  this many instructions, so actual interval sizes overshoot by
     *  up to one window's worth. */
    std::uint64_t intervalInsns = 200'000;

    /** Capture a checkpoint image at each interval start (required for
     *  sampled replay; off for profile-only analyses). */
    bool captureImages = true;
};

/** One closed profiling interval. */
struct IntervalRecord
{
    std::uint64_t startInsns = 0; ///< chip totalInsts at interval start
    Cycle startCycle = 0;         ///< chip cycle at interval start
    std::uint64_t insns = 0;      ///< instructions retired in-interval
    Cycle cycles = 0;             ///< cycles elapsed in-interval
    double seconds = 0.0;         ///< wall-clock seconds in-interval
    double activeJ = 0.0;         ///< on-chip event-energy delta (J)
    double idleJ = 0.0;           ///< clock-tree + leakage energy (J)
    std::uint32_t windows = 0;    ///< run windows in the interval
    bool partial = false;         ///< the tail (closed by finish())
    /** Nonzero per-tile BBV deltas; flat index tile-major
     *  (tile * buckets + bucket), dims = tiles x buckets. */
    SparseBbv bbv;
    /** System checkpoint at interval start, zero-run packed
     *  (ckpt::packImage; empty without captureImages); restoring the
     *  unpacked image and running `cycles` cycles bitwise-reproduces
     *  this interval. */
    std::vector<std::uint8_t> image;

    /** On-chip (VDD+VCS) energy of the interval. */
    double energyJ() const { return activeJ + idleJ; }
};

/**
 * Attaches to a System as its window hook and accumulates
 * IntervalRecords while the system runs.  The system must have BBV
 * profiling enabled (SystemOptions::bbvBuckets != 0) and no governor
 * attached.  Detaches itself on destruction.  The profiler observes the
 * system; its own state is not part of the system's checkpoints.
 */
class IntervalProfiler
{
  public:
    IntervalProfiler(sim::System &sys, ProfilerOptions opts);
    ~IntervalProfiler();
    IntervalProfiler(const IntervalProfiler &) = delete;
    IntervalProfiler &operator=(const IntervalProfiler &) = delete;

    /** Run the workload under profiling (System::runToCompletion); a
     *  completed run closes the tail interval via finish(). */
    sim::CompletionResult run(Cycle max_cycles);

    /** Close the in-progress tail interval (flagged partial).  Called
     *  automatically when run() completes; idempotent. */
    void finish();

    const std::vector<IntervalRecord> &intervals() const
    {
        return intervals_;
    }
    const ProfilerOptions &profilerOptions() const { return opts_; }
    /** BBV feature dimensionality: tiles x buckets. */
    std::size_t bbvDims() const { return prevBbv_.size(); }

    /** Sum over all closed intervals. */
    std::uint64_t totalInsns() const;
    double totalEnergyJ() const;
    double totalSeconds() const;

  private:
    bool onWindow(const sim::WindowObs &obs);
    void closeInterval(bool partial);

    sim::System &sys_;
    ProfilerOptions opts_;
    std::vector<IntervalRecord> intervals_;

    // In-progress interval accumulators.
    std::uint64_t curStartInsns_ = 0;
    Cycle curStartCycle_ = 0;
    double curSeconds_ = 0.0;
    double curIdleJ_ = 0.0;
    std::uint32_t curWindows_ = 0;
    power::RailEnergy startLedger_;
    /** Flattened BBV snapshot at the current interval's start. */
    std::vector<std::uint64_t> prevBbv_;
    /** Packed image captured at the current interval's start. */
    std::vector<std::uint8_t> pendingImage_;
    bool finished_ = false;
};

} // namespace piton::sampling

#endif // PITON_SAMPLING_PROFILER_HH
