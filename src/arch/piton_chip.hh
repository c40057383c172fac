/**
 * @file
 * Top-level Piton chip model: 25 tiles (core + caches + NoC routers +
 * L2 slice), the shared memory system, and the cycle-driven run loop.
 *
 * Energy from micro-architectural events accumulates in the
 * EnergyLedger; time-proportional components (clock tree, leakage) are
 * computed analytically from elapsed cycles by the System layer (they
 * depend on temperature, which the board/thermal models own).
 */

#ifndef PITON_ARCH_PITON_CHIP_HH
#define PITON_ARCH_PITON_CHIP_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/core.hh"
#include "arch/mem_system.hh"
#include "arch/memory.hh"
#include "chip/chip_instance.hh"
#include "common/types.hh"
#include "config/piton_params.hh"
#include "power/energy_model.hh"

namespace piton::arch
{

class PitonChip
{
  public:
    PitonChip(const config::PitonParams &params,
              const chip::ChipInstance &instance,
              const power::EnergyModel &energy,
              std::uint64_t seed = 0xBEEF);

    const config::PitonParams &params() const { return params_; }
    const chip::ChipInstance &instance() const { return instance_; }

    MainMemory &memory() { return memory_; }
    MemorySystem &memSystem() { return *mem_; }
    Core &core(TileId t) { return *cores_[t]; }
    const Core &core(TileId t) const { return *cores_[t]; }

    /** Load a program onto (tile, thread). */
    void loadProgram(TileId tile, ThreadId tid, const isa::Program *program,
                     const std::vector<std::pair<int, RegVal>> &init = {});

    struct RunResult
    {
        Cycle cyclesElapsed = 0;
        bool allHalted = false;
    };

    /** Advance until `max_cycles` more cycles elapse or all loaded
     *  threads halt, whichever is first. */
    RunResult run(Cycle max_cycles);

    /**
     * Select the stepping engine.  The fast path (default) is the
     * event-driven scheduler: an indexed per-core next-event cache so
     * halted/stalled cores are never touched, and a run-ahead round for
     * every event window, however many cores have work in it.  The
     * legacy path steps every core every visited cycle; both produce
     * bit-identical architectural state, energy ledgers and checkpoint
     * images (tests/test_fastpath_equiv.cc).  A chip with a trace
     * hook or Execution Drafting on any core always steps in order
     * (legacy), whatever this says.
     */
    void setFastPath(bool enabled) { fastPath_ = enabled; }
    bool fastPath() const { return fastPath_; }

    /** Run-ahead rounds the fast path has executed so far
     *  (diagnostics; reset by resetEnergy and on restore). */
    std::uint64_t runAheadRounds() const { return runAheadRounds_; }

    Cycle now() const { return now_; }

    const power::EnergyLedger &ledger() const { return ledger_; }
    power::EnergyLedger &ledger() { return ledger_; }

    /** Per-tile SoA energy accumulators (the source tileCoreEnergyJ
     *  reads from). */
    const power::TileEnergyLedger &tileEnergy() const { return tileEnergy_; }

    /**
     * Clear all accumulated energy accounting — the chip ledger, the
     * per-tile SoA ledger, the round counter, and the round scratch —
     * without touching architectural state.  Telemetry-style
     * re-baselining; must be called between run() calls (captures are
     * never live then).
     */
    void resetEnergy();

    /** Sum of instructions executed by every thread. */
    std::uint64_t totalInsts() const;

    /** Chip-wide retired-instruction counts per energy class. */
    std::array<std::uint64_t, static_cast<std::size_t>(
                                  isa::InstClass::NumClasses)>
    classCounts() const;

    /** Enable/disable Execution Drafting on every core. */
    void setExecDrafting(bool enabled);

    /** Install a per-instruction trace hook on every core. */
    void setTraceHook(Core::InstTraceHook hook);
    /** Chip-wide drafted-instruction count. */
    std::uint64_t draftedInsts() const;

    /** Number of threads currently in the Ready state. */
    std::uint32_t activeThreads() const;

    /** True when no core has a Ready thread (loaded work all halted).
     *  Unlike run()'s allHalted this ignores DVFS gating, so it is the
     *  ground truth for "is the workload finished". */
    bool allThreadsDone() const;

    /**
     * DVFS duty gate for one tile (Core::setDvfsGated).  Only valid
     * between run() calls; the governed System drives this every
     * sample window (DESIGN.md §13).
     */
    void setTileGated(TileId t, bool gated) { cores_[t]->setDvfsGated(gated); }
    bool tileGated(TileId t) const { return cores_[t]->dvfsGated(); }

    /** Per-tile cumulative memory-stall cycles (governor telemetry). */
    std::vector<std::uint64_t> tileMemStallCycles() const;

    /** Per-tile cumulative core-local energy (J, VDD+VCS): the
     *  tile-resolved snapshot the telemetry subsystem diffs per
     *  sample window (see Core::coreEnergy for what it covers). */
    std::vector<double> tileCoreEnergyJ() const;

    /** Per-tile cumulative retired-instruction counts. */
    std::vector<std::uint64_t> tileInsts() const;

    // ---- BBV profiling (DESIGN.md §14) -------------------------------

    /**
     * Enable basic-block-vector accumulation on every core: each
     * retired instruction bumps one of `buckets` hashed PC-histogram
     * counters per tile (Core::noteBbv).  `buckets` must be a power of
     * two in [2, 2^20]; 0 disables and clears.  Counts are plain
     * integers bumped in retire order, so the histograms are identical
     * under both engines — the property the sampling subsystem's slice
     * selection rests on.  Enablement and
     * counts are checkpointed (the chip.bbv section, format v4), so a
     * restored chip keeps profiling without re-wiring.
     */
    void enableBbv(std::uint32_t buckets);
    /** Buckets per tile (0 = disabled). */
    std::uint32_t bbvBuckets() const { return bbvBuckets_; }
    /** One tile's histogram (size bbvBuckets()). */
    const std::vector<std::uint64_t> &
    coreBbv(TileId t) const
    {
        return cores_[t]->bbvCounts();
    }

    // ---- checkpointing (DESIGN.md §10) -------------------------------

    /**
     * Serialize all chip state into/out of an archive, as a group of
     * "chip.*" sections.  Must be called between run() calls (never
     * mid-round; the ledger enforces no capture is in flight).  On
     * load, restored program images are owned by the chip and stay
     * alive for the lifetime of the restored threads.  The chip must
     * be constructed with the same PitonParams and ChipInstance; the
     * key identity knobs are fingerprinted and mismatches throw
     * ckpt::CheckpointError.
     */
    void serialize(ckpt::Archive &ar);

    /** Standalone chip-level checkpoint (System adds board/thermal/
     *  telemetry sections around the same chip payload). */
    std::vector<std::uint8_t> saveBytes();
    void restoreBytes(const std::vector<std::uint8_t> &bytes);
    void save(const std::string &path);
    void restore(const std::string &path);

  private:
    RunResult runLegacy(Cycle max_cycles);
    RunResult runFast(Cycle max_cycles);

    /**
     * Core-major run-ahead round over [start, lim): every participating
     * core's first event seeds a bucket queue, and one pop loop serves
     * the queued events in global (cycle, core) order, each pop ticking
     * that event and letting the core run ahead core-locally until its
     * next shared-memory op (queued) or `lim` (Core::runAhead).  Charges
     * are captured per core and then replayed in that same order, so
     * the ledger's floating-point sums match in-order stepping bit for
     * bit.  Returns the last cycle any core issued at (>= start).
     */
    Cycle runAheadRound(Cycle start, Cycle lim);

    /** Cycles per run-ahead round: big enough to amortize the round's
     *  setup and keep each core's slice long (hot state, trained
     *  branches), small enough that the charge logs stay cache
     *  resident (25 cores x 64 cycles x ~2 charges x 32 B ~ 100 KB).
     *  At most 64, so a round's queued cycles fit one occupancy word. */
    static constexpr Cycle kRoundCycles = 64;
    static_assert(kRoundCycles <= 64, "queue occupancy is one 64-bit word");

    config::PitonParams params_;
    chip::ChipInstance instance_;
    const power::EnergyModel &energy_;
    power::EnergyLedger ledger_;
    /** Per-tile energy accumulators (SoA; cores write through it). */
    power::TileEnergyLedger tileEnergy_;
    MainMemory memory_;
    std::unique_ptr<MemorySystem> mem_;
    std::vector<std::unique_ptr<Core>> cores_;
    /** Program images reconstructed by restore(); threads point into
     *  these until the caller loads something else. */
    std::vector<std::unique_ptr<isa::Program>> restoredPrograms_;
    Cycle now_ = 0;
    bool fastPath_ = true;
    /** Event scheduler: cached raw next-event cycle per core (kNever
     *  when idle/halted), refreshed from core return values. */
    std::vector<Cycle> nextAt_;
    /** Run-ahead round scratch (persistent to keep capacity): per-core
     *  captured-charge logs and replay cursors. */
    std::vector<std::vector<power::CapturedCharge>> chargeLogs_;
    std::vector<power::ReplayCursor> replayCursors_;
    /** Queued events of the current round (each core's first event,
     *  then the shared ops it paused at), as a bucket queue: bit i of
     *  pauseCores_[c - start] means core i has its next event at cycle
     *  c, and bit k of pauseCycles_ means pauseCores_[k] is non-zero.
     *  Empty between rounds. */
    std::array<std::uint64_t, kRoundCycles> pauseCores_{};
    std::uint64_t pauseCycles_ = 0;
    std::uint32_t bbvBuckets_ = 0;
    std::uint64_t runAheadRounds_ = 0;
};

} // namespace piton::arch

#endif // PITON_ARCH_PITON_CHIP_HH
