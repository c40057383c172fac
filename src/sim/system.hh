/**
 * @file
 * The full experimental system: a Piton chip in its socket on the test
 * board, with bench supplies, the heat-sink/fan cooling solution, and
 * the chipset FPGA behind it (Section III).
 *
 * System glues the layers together and implements the measurement
 * methodology: true rail powers are composed per sample window from
 * (a) the event-energy ledger accumulated by the architecture model,
 * (b) the analytic clock-tree idle power, and (c) leakage at the
 * current die temperature; the window powers then pass through the
 * board's monitor chain (quantization + noise) and the 128-sample
 * averaging protocol.
 */

#ifndef PITON_SIM_SYSTEM_HH
#define PITON_SIM_SYSTEM_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arch/piton_chip.hh"
#include "board/measurement.hh"
#include "board/test_board.hh"
#include "chip/chip_instance.hh"
#include "config/piton_params.hh"
#include "governor/governor.hh"
#include "power/energy_model.hh"
#include "telemetry/recorder.hh"
#include "thermal/thermal_model.hh"

namespace piton::sim
{

struct SystemOptions
{
    config::SystemConfig cfg = config::defaultSystemConfig();
    int chipId = 2;
    double vddV = 1.00;
    double vcsV = 1.05;
    double vioV = 1.80;
    double coreClockMhz = 500.05;
    std::uint64_t seed = 0x517;

    /** Simulated cycles represented by one 17 Hz monitor sample.  The
     *  workloads are steady-state loops, so shortening the real 29 M-
     *  cycle window preserves the sample statistics (DESIGN.md). */
    Cycle cyclesPerSample = 2000;
    Cycle warmupCycles = 30000;

    /** Worker threads for the experiment drivers' sweep fan-outs
     *  (runAll()-style methods); 0 means all hardware threads.  Each
     *  sweep point runs in its own System, so results are bit-identical
     *  at any value (see common/parallel.hh). */
    unsigned sweepThreads = 1;

    /** Use the event-driven chip scheduler + batched core issue
     *  (DESIGN.md §9).  false selects the legacy per-cycle reference
     *  stepping; both produce bit-identical results (the escape hatch
     *  exists for equivalence testing and debugging). */
    bool fastPath = true;

    /** BBV histogram buckets per tile for the sampling subsystem's
     *  interval profiler (DESIGN.md §14); power of two in [2, 2^20],
     *  0 disables.  The counters are commutative integers, so enabling
     *  them never perturbs results — only adds a per-retire bump. */
    std::uint32_t bbvBuckets = 0;

    /** Static per-tile commanded frequency (MHz), realized exactly like
     *  a governor actuation: window-granularity duty gating, integer
     *  Bresenham on the PLL grid (DESIGN.md §13/§16).  Empty = every
     *  tile at the chip clock (no gating).  When non-empty the size
     *  must equal cfg.piton.tileCount; entries <= 0 hard-gate the tile,
     *  entries above the chip clock clamp to it.  Mutually exclusive
     *  with attachGovernor — the governor owns the duty tables.  The
     *  table joins the checkpoint fingerprint, and ungoverned duty
     *  phase rides in an unconditional sys.duty section, so placed runs
     *  stay bit-identical across engines/threads/checkpoint-resume. */
    std::vector<double> tileFreqMhz;

    power::EnergyParams energyParams = power::defaultEnergyParams();
    thermal::ThermalParams thermalParams;
};

/** Result of running a finite workload to completion. */
struct CompletionResult
{
    bool completed = false;
    /** True when the run was abandoned because the chip stopped making
     *  forward progress (no cycles elapsed across consecutive run
     *  windows without halting).  No energy is charged for the
     *  zero-progress windows. */
    bool stalled = false;
    Cycle cycles = 0;
    double seconds = 0.0;
    std::uint64_t insts = 0;
    /** VDD+VCS energy including the clock-tree and leakage floor. */
    double onChipEnergyJ = 0.0;
    /** Event energy only (the "active" portion of Fig. 14). */
    double activeEnergyJ = 0.0;
    /** Clock tree + leakage over the run ("idle" portion). */
    double idleEnergyJ = 0.0;
};

class System;

/** One recorded run window, as observed by a WindowHook. */
struct WindowObs
{
    Cycle cycles = 0;        ///< cycles the chip advanced this window
    double windowS = 0.0;    ///< wall-clock seconds of the window
    double idleEnergyJ = 0.0;///< clock-tree + leakage J of the window
    bool done = false;       ///< the workload finished in this window
};

/**
 * Per-window observer for runToCompletion: invoked after each window's
 * accounting (thermal step, telemetry, governor, sample clock) with the
 * window's observation.  Return false to stop the run after this window
 * — the result reports the partial run with completed == false.  The
 * sampling profiler uses this to cut intervals and to stop slice
 * replays at exact window boundaries (DESIGN.md §14).
 */
using WindowHook = std::function<bool(const WindowObs &)>;

/**
 * A subsystem that rides along in System checkpoints (the sampling
 * profiler is the one client today).  Mirrors the telemetry/governor
 * contract: the client's section is written only while attached, and
 * restoring an image without the section re-baselines the client on the
 * restored state instead (attach first, then restore).
 */
class CheckpointClient
{
  public:
    virtual ~CheckpointClient() = default;
    /** Archive section name, e.g. "sys.sampling"; must be stable. */
    virtual const char *checkpointSection() const = 0;
    /** Symmetric field I/O for the client's state. */
    virtual void serializeClient(ckpt::Archive &ar) = 0;
    /** Restored an image with no client section: restart from the
     *  restored counters (like snapshotTelemetryBaselines). */
    virtual void rebaseline(System &sys) = 0;
};

class System
{
  public:
    explicit System(SystemOptions opts = SystemOptions{});

    arch::PitonChip &pitonChip() { return *chip_; }
    board::TestBoard &testBoard() { return board_; }
    thermal::ThermalModel &thermalModel() { return thermal_; }
    const power::EnergyModel &energyModel() const { return energy_; }
    const chip::ChipInstance &chipInstance() const { return instance_; }
    const SystemOptions &options() const { return opts_; }

    void loadProgram(TileId tile, ThreadId tid, const isa::Program *p,
                     const std::vector<std::pair<int, RegVal>> &init = {});

    /** Current core clock.  Equal to the configured clock unless a
     *  governor has actuated a different operating point. */
    double coreClockHz() const { return mhzToHz(effClockMhz_); }
    double effectiveClockMhz() const { return effClockMhz_; }
    double effectiveVddV() const { return effVddV_; }

    /**
     * Steady-state measurement per the paper's protocol: run the warmup
     * window, pin the thermal state at the equilibrium for the observed
     * power, then record `samples` monitor samples.
     */
    board::PowerMeasurement measure(std::uint32_t samples = 128);

    /** Static power: all inputs (including clocks) grounded — leakage
     *  only, with the die barely above ambient. */
    board::PowerMeasurement measureStatic(std::uint32_t samples = 128);

    /** Run a finite workload to completion (energy + execution time). */
    CompletionResult runToCompletion(Cycle max_cycles);

    /** Closed-form idle power (W, VDD+VCS) at thermal equilibrium. */
    double idlePowerW() const;

    /** True rail powers over one window, advancing the chip; exposed
     *  for time-series experiments. Returns {VDD, VCS, VIO} watts. */
    std::array<double, 3> windowTruePowers(Cycle window_cycles);

    /** Die temperature right now. */
    double dieTempC() const { return thermal_.dieTempC(); }

    /**
     * Attach a telemetry recorder: every subsequent sample window
     * (windowTruePowers, measure, runToCompletion chunks) records the
     * schema of telemetry/schema.hh — true per-rail powers, the
     * static/dynamic decomposition, per-category ledger deltas, NoC
     * counters, thermal readout, and (if the recorder's config asks
     * for it) per-tile core energies.  The monitor chain additionally
     * records the measured.* series during measure()/measureStatic().
     * Counter baselines snapshot at attach time, so deltas cover only
     * post-attach activity.  Pass nullptr to detach.
     */
    void attachTelemetry(telemetry::TelemetryRecorder *rec);
    telemetry::TelemetryRecorder *telemetry() const { return telem_; }

    /**
     * Attach a closed-loop DVFS governor (DESIGN.md §13).  Every
     * sample window thereafter: (1) the per-tile duty gates for the
     * window are derived from the governor's last actuation (integer
     * Bresenham on the PLL grid — a tile commanded f_t of a chip clock
     * f runs round(f_t/step) of every round(f/step) windows, ungated
     * in the windows its accumulator carries); (2) the chip runs the
     * window; (3) telemetry records it; (4) the epoch accumulators
     * advance, and at every epochWindows()-th window the governor's
     * controlEpoch() runs and its actuation (chip V-f via
     * EnergyModel::setOperatingPoint + the effective clock, per-tile
     * duty tables) applies before the next window.  All of it is
     * serial arithmetic on bit-identical inputs, so governed runs stay
     * bit-identical under both engines and across checkpoint/resume.
     *
     * The governor is init()-ed against this system's platform at
     * attach; counter baselines snapshot like attachTelemetry.  For
     * telemetry of the control loop itself (governor.* series), attach
     * the recorder first.  Pass nullptr to detach (gates clear; the
     * actuated operating point remains).  Checkpoints save controller
     * state in a sys.governor section when a governor is attached;
     * restoring governed state requires attaching a governor of the
     * same policy first (mirrors the telemetry contract).
     */
    void attachGovernor(governor::Governor *gov);
    governor::Governor *dvfsGovernor() const { return gov_; }

    /** Install the per-window observer (see WindowHook); empty
     *  function detaches.  Purely observational unless it stops the
     *  run, so hooked runs are otherwise bit-identical. */
    void setWindowHook(WindowHook hook) { windowHook_ = std::move(hook); }

    /** Attach/detach (nullptr) the checkpoint extension client whose
     *  state rides along in saveBytes (see CheckpointClient). */
    void attachCheckpointClient(CheckpointClient *client)
    {
        client_ = client;
    }
    CheckpointClient *checkpointClient() const { return client_; }

    /** Tiles duty-gated for the window currently being set up/run. */
    std::uint32_t gatedTileCount() const { return gatedTiles_; }

    /** Monotone sample-clock: seconds of sample windows recorded so
     *  far (the telemetry time axis; advances even when the chip has
     *  halted, like the board's 17 Hz monitors do). */
    double sampleClockS() const { return sampleClockS_; }

    // ---- checkpointing (DESIGN.md §10) -------------------------------
    //
    // A checkpoint captures the full system: chip (cores, caches,
    // coherence, NoC, memory pages, energy ledger, program images),
    // board (supply config + monitor-noise RNG), thermal state, the
    // per-window telemetry baselines, and — when a recorder is
    // attached at save time — the recorder contents.  Restore into a
    // System constructed with the same SystemOptions (key knobs are
    // fingerprinted; mismatches throw ckpt::CheckpointError) resumes
    // bit-identically: ledger sums, per-tile energies, and telemetry
    // exports match an uninterrupted run byte for byte, under either
    // fastPath setting.  Attach the recorder *before* restoring so the
    // saved ring contents have series to land in.

    std::vector<std::uint8_t> saveBytes();
    void save(const std::string &path);

    /** Restore from a checkpoint image.  `mark_telemetry_event`
     *  additionally records a schema::kEventRestore sample at the
     *  resume time (opt-in: it breaks byte-identity with an
     *  uninterrupted run's export by design). */
    void restoreBytes(const std::vector<std::uint8_t> &bytes,
                      bool mark_telemetry_event = false);
    void restore(const std::string &path,
                 bool mark_telemetry_event = false);

  private:
    /** Shared body of saveBytes/restoreBytes. */
    void serializeSystem(ckpt::Archive &ar);

    /** Re-baseline the per-window telemetry deltas on the current chip
     *  counters (as attachTelemetry does).  Used after restoring a
     *  checkpoint that carried no recorder state: the saved baselines
     *  belong to a system that never recorded, so the attached
     *  recorder's deltas must start from the restored counters. */
    void snapshotTelemetryBaselines();

    /** Clock-tree power (W) per rail at the operating point. */
    power::RailEnergy clockTreePowerW() const;

    /** Record one sample window into the attached recorder (called
     *  after the thermal step; does not advance the sample clock). */
    void recordWindowTelemetry(double window_s,
                               const std::array<double, 3> &true_p,
                               const power::RailEnergy &delta,
                               const power::RailEnergy &clock_w,
                               const power::RailEnergy &leak_w);

    // ---- governor control loop (DESIGN.md §13) -----------------------

    /** Derive and apply the per-tile duty gates for the next window
     *  (call immediately before chip_->run).  Guarantees at least one
     *  unfinished core stays ungated, so governed runs always make
     *  forward progress and allHalted keeps its meaning. */
    void applyGovernorGates();

    /** Advance the epoch accumulators by one recorded window; at an
     *  epoch boundary, run the governor and apply its actuation. */
    void governorEpochWindow(Cycle cycles, double window_s,
                             const power::RailEnergy &delta,
                             const power::RailEnergy &clock_w,
                             const power::RailEnergy &leak_w);

    /** Realize an actuation: chip operating point + duty tables. */
    void applyActuation(const governor::Actuation &act);

    /** Reset the epoch state and baselines on the current counters
     *  (attach, or restore of a checkpoint without governor state). */
    void snapshotGovernorBaselines();

    /** Build the duty tables from SystemOptions::tileFreqMhz (ctor). */
    void initStaticDuty();

    /** Duty gates are live: a governor drives them, or the static
     *  per-tile table from SystemOptions::tileFreqMhz does. */
    bool dutyActive() const { return gov_ != nullptr || staticDuty_; }

    /** Record the governor.* series for one epoch (lazy schema). */
    void recordGovernorEpoch(const governor::EpochObs &obs);

    SystemOptions opts_;
    chip::ChipInstance instance_;
    power::EnergyModel energy_;
    std::unique_ptr<arch::PitonChip> chip_;
    board::TestBoard board_;
    thermal::ThermalModel thermal_;
    power::RailEnergy prevLedger_;

    telemetry::TelemetryRecorder *telem_ = nullptr;
    WindowHook windowHook_;
    CheckpointClient *client_ = nullptr;
    double sampleClockS_ = 0.0;
    /** Series indices into telem_, resolved once at attach. */
    struct TelemetryIds
    {
        std::size_t vddW, vcsW, vioW, onChipW;
        std::size_t dynamicW, clockW, leakW;
        std::size_t activeJ;
        std::array<std::size_t, power::kNumCategories> catJ;
        std::size_t nocFlits, nocFlitHops, nocToggledBits, nocFlitsPerS;
        std::size_t dieC, packageC;
        std::size_t insts, activeThreads;
        /** Per-rail power/voltage/current gauges (power.rail.*). */
        std::array<std::size_t, power::kNumRails> railW, railV, railA;
        std::vector<std::size_t> tileJ; ///< empty unless perTile
    } tids_{};
    /** Counter baselines for per-window deltas. */
    std::array<power::RailEnergy, power::kNumCategories> prevCatJ_{};
    arch::NocStats prevNoc_{};
    std::uint64_t prevInsts_ = 0;
    std::vector<double> prevTileJ_;

    // ---- governor state (checkpointed as sys.governor) ---------------
    governor::Governor *gov_ = nullptr;
    /** Duty tables seeded from SystemOptions::tileFreqMhz (no
     *  governor); accumulator phase checkpointed as sys.duty. */
    bool staticDuty_ = false;
    /** Actuated operating point; == the configured one until a
     *  governor changes it (so ungoverned runs are untouched). */
    double effVddV_ = 0.0;
    double effClockMhz_ = 0.0;
    /** Duty tables: a tile runs dutyNum_[t] of every dutyDen_ windows
     *  (Bresenham accumulator dutyAcc_); num == den = never gated,
     *  num == 0 = hard-gated. */
    std::uint32_t dutyDen_ = 1;
    std::vector<std::uint32_t> dutyNum_;
    std::vector<std::uint32_t> dutyAcc_;
    /** Per-tile commanded frequency (MHz; 0 = off), for EpochObs. */
    std::vector<double> tileFreqCmd_;
    std::uint32_t gatedTiles_ = 0;
    /** Epoch accumulators and per-tile counter baselines. */
    std::uint32_t epochWindow_ = 0;
    std::uint64_t epochCycles_ = 0;
    double epochTimeS_ = 0.0;
    std::array<double, power::kNumRails> epochRailJ_{};
    std::vector<std::uint64_t> govPrevInsts_;
    std::vector<std::uint64_t> govPrevStall_;
    std::vector<double> govPrevTileJ_;
    /** governor.* series ids, resolved lazily at the first epoch. */
    struct GovTids
    {
        bool ready = false;
        std::size_t freqMhz, vddV, powerW, capW, gatedTiles, epochs;
    } govTids_{};
};

} // namespace piton::sim

#endif // PITON_SIM_SYSTEM_HH
