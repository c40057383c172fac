/**
 * @file
 * Warm-started sweep fan-out over a shared simulation prefix.
 *
 * Many sweeps (fan effectiveness, slice mapping, power caps) run the
 * same workload to a steady state and only then diverge in a parameter
 * that takes effect going forward.  Simulating that shared prefix once,
 * checkpointing it, and forking each sweep point from the checkpoint
 * produces results bit-identical to re-simulating the prefix per point
 * — the checkpoint restores the complete state, including FP
 * accumulator bit patterns and RNG stream positions — while paying the
 * prefix cost once instead of once per point (bench_ablation_warmstart
 * demonstrates and verifies this).
 *
 * Determinism contract: each fork is a fresh System restored from the
 * same immutable byte image, so points are independent and the fan-out
 * is bit-identical at any thread count (common/parallel.hh).
 */

#ifndef PITON_SIM_WARM_START_HH
#define PITON_SIM_WARM_START_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/system.hh"

namespace piton::sim
{

class SweepWarmStart
{
  public:
    /** Capture the shared prefix: the donor's full checkpoint image
     *  plus its options (every fork is constructed identically). */
    static SweepWarmStart
    capture(System &sys)
    {
        SweepWarmStart ws;
        ws.opts_ = sys.options();
        ws.bytes_ = std::make_shared<const std::vector<std::uint8_t>>(
            sys.saveBytes());
        return ws;
    }

    /** Rebuild a warm start from a previously saved image (e.g. a
     *  --checkpoint-out file): `opts` must match the options the image
     *  was saved under — the restore fingerprints catch mismatches. */
    static SweepWarmStart
    fromImage(SystemOptions opts, std::vector<std::uint8_t> bytes)
    {
        return fromShared(
            std::move(opts),
            std::make_shared<const std::vector<std::uint8_t>>(
                std::move(bytes)));
    }

    /** Like fromImage(), but sharing an immutable image already held
     *  elsewhere (the service's prefix cache) instead of copying it. */
    static SweepWarmStart
    fromShared(SystemOptions opts,
               std::shared_ptr<const std::vector<std::uint8_t>> bytes)
    {
        SweepWarmStart ws;
        ws.opts_ = std::move(opts);
        ws.bytes_ = std::move(bytes);
        return ws;
    }

    const SystemOptions &options() const { return opts_; }
    const std::vector<std::uint8_t> &bytes() const { return *bytes_; }
    /** The image as a shareable handle (for content-addressed stores). */
    std::shared_ptr<const std::vector<std::uint8_t>>
    sharedBytes() const
    {
        return bytes_;
    }

    /** A fresh System with the prefix restored.  (System is
     *  non-movable, so forks live behind unique_ptr.) */
    std::unique_ptr<System>
    fork() const
    {
        auto sys = std::make_unique<System>(opts_);
        sys->restoreBytes(*bytes_);
        return sys;
    }

    /** fork() with a recorder attached *before* the restore, so saved
     *  ring contents (if the donor recorded any) land in it and the
     *  per-window baselines line up for seamless recording. */
    std::unique_ptr<System>
    fork(telemetry::TelemetryRecorder &rec) const
    {
        auto sys = std::make_unique<System>(opts_);
        sys->attachTelemetry(&rec);
        sys->restoreBytes(*bytes_);
        return sys;
    }

  private:
    SweepWarmStart() = default;

    SystemOptions opts_;
    std::shared_ptr<const std::vector<std::uint8_t>> bytes_;
};

} // namespace piton::sim

#endif // PITON_SIM_WARM_START_HH
