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
 * across engines and across checkpoint save/resume of the profiling
 * run itself.
 */

#ifndef PITON_SAMPLING_PROFILER_HH
#define PITON_SAMPLING_PROFILER_HH

#include <cstdint>
#include <vector>

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

    /** Record the sampling.* series into the System's attached
     *  telemetry recorder at each interval close. */
    bool telemetry = true;
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
    /** Flattened per-tile BBV deltas, tile-major: tiles x buckets. */
    std::vector<std::uint64_t> bbv;
    /** System checkpoint at interval start (empty without
     *  captureImages); restoring it and running `cycles` cycles
     *  bitwise-reproduces this interval. */
    std::vector<std::uint8_t> image;

    /** On-chip (VDD+VCS) energy of the interval. */
    double energyJ() const { return activeJ + idleJ; }
};

/**
 * Attaches to a System as its window hook + checkpoint client and
 * accumulates IntervalRecords while the system runs.  The system must
 * have BBV profiling enabled (SystemOptions::bbvBuckets != 0) and no
 * governor attached.  Detaches itself on destruction.
 *
 * Checkpointing a profiling run mid-flight stores the profiler's full
 * state (closed records, in-progress accumulators, pending image) in
 * the optional sys.sampling section; construct a fresh System +
 * profiler and restore to continue bit-identically.  Restoring an
 * image without the section restarts profiling at the restored state.
 */
class IntervalProfiler : public sim::CheckpointClient
{
  public:
    IntervalProfiler(sim::System &sys, ProfilerOptions opts);
    ~IntervalProfiler() override;
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

    // ---- CheckpointClient --------------------------------------------
    const char *checkpointSection() const override
    {
        return "sys.sampling";
    }
    void serializeClient(ckpt::Archive &ar) override;
    void rebaseline(sim::System &sys) override;

  private:
    bool onWindow(const sim::WindowObs &obs);
    void closeInterval(bool partial);
    /** Re-aim the in-progress interval at the system's current state. */
    void snapshotStart();
    /** Checkpoint the system with this client detached (a profiler
     *  image inside a profiler record would nest quadratically). */
    std::vector<std::uint8_t> captureImage();
    void recordTelemetry(const IntervalRecord &rec);

    sim::System &sys_;
    ProfilerOptions opts_;
    std::vector<IntervalRecord> intervals_;

    // In-progress interval accumulators (checkpointed).
    std::uint64_t curStartInsns_ = 0;
    Cycle curStartCycle_ = 0;
    double curSeconds_ = 0.0;
    double curIdleJ_ = 0.0;
    std::uint32_t curWindows_ = 0;
    power::RailEnergy startLedger_;
    /** Flattened BBV snapshot at the current interval's start. */
    std::vector<std::uint64_t> prevBbv_;
    /** Image captured at the current interval's start. */
    std::vector<std::uint8_t> pendingImage_;
    bool finished_ = false;

    /** sampling.* series ids, resolved lazily at the first close. */
    struct Tids
    {
        bool ready = false;
        std::size_t insns, cycles, energyJ, count;
    } tids_{};
};

} // namespace piton::sampling

#endif // PITON_SAMPLING_PROFILER_HH
