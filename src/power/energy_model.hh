/**
 * @file
 * Per-event energy model of the Piton chip.
 *
 * The model is the "silicon" of this reproduction: a table of per-event
 * energies (instruction execution with operand-dependent switching,
 * cache accesses, NoC router/link traversal, rollbacks, stalls, clock
 * tree, leakage) calibrated so that the paper's measurement methodology,
 * re-run against the simulator, lands on the published numbers.
 *
 * Calibration anchors (all from the paper):
 *  - Chip #2 static 389.3 mW and idle 2015.3 mW at 1.0 V / 1.05 V /
 *    500.05 MHz (Table V).
 *  - EPI: add ~1/3 of an L1-hit ldx (0.286 nJ); sdivx near 1 nJ; strong
 *    operand-value dependence (Fig. 11).
 *  - Memory energy ladder of Table VII.
 *  - NoC EPF slopes of Fig. 12 (NSW 3.6 ... FSW 16.7 pJ/hop).
 *
 * Dynamic events scale with V^2 from the 1.0 V / 1.05 V reference;
 * leakage scales exponentially with voltage and temperature.
 */

#ifndef PITON_POWER_ENERGY_MODEL_HH
#define PITON_POWER_ENERGY_MODEL_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/instruction.hh"
#include "power/rails.hh"

namespace piton::power
{

/** Energy accounting categories for chip-level breakdowns. */
enum class Category : std::size_t
{
    Exec,      ///< core datapath + RF + L1 access for the instruction itself
    CacheL15,  ///< L1.5 accesses beyond the L1
    CacheL2,   ///< L2 slice + directory accesses
    Noc,       ///< router and link energy
    ChipBridge,///< off-chip serialization logic
    Rollback,  ///< thread rollback/replay events
    Stall,     ///< active-but-waiting cycles above the clock-tree floor
    OffChip,   ///< per-L2-miss off-chip excursion (see DESIGN.md)
    ClockTree, ///< idle dynamic power (clock distribution + idle FSMs)
    Leakage,   ///< static power integrated over time

    NumCategories
};

constexpr std::size_t kNumCategories =
    static_cast<std::size_t>(Category::NumCategories);

const char *categoryName(Category c);

/** Per-instruction-class execution energy at the reference voltages. */
struct ClassEnergy
{
    double minPj = 0.0;  ///< all-zero operands
    double maxPj = 0.0;  ///< all-one operands
    double vcsFrac = 0.15; ///< fraction drawn from VCS (RF/L1 arrays)
};

/** Calibration constants; defaults reproduce the paper's Chip #2. */
struct EnergyParams
{
    double refVddV = 1.00;
    double refVcsV = 1.05;
    double refTempC = 24.0;

    /** Indexed by isa::InstClass. */
    std::array<ClassEnergy, static_cast<std::size_t>(
                                isa::InstClass::NumClasses)>
        classEnergy{};

    // Cache-hierarchy access energies beyond the L1s (pJ, mostly VCS).
    double l15AccessPj = 110.0;
    double l2AccessPj = 650.0;
    double dirAccessPj = 60.0;
    double cacheVcsFrac = 0.75;

    // NoC (Fig. 12): per-flit-per-hop router energy plus per-toggled-bit
    // link charging energy, plus a small coupling surcharge when
    // adjacent wires switch in opposite directions (the FSWA pattern).
    double nocRouterFlitPj = 3.58;
    double nocLinkBitTogglePj = 0.23;
    double nocCouplingPj = 0.012;
    double nocVcsFrac = 0.05;

    // Chip bridge serialization per flit crossing the off-chip boundary.
    double chipBridgeFlitPj = 35.0;
    /** VIO pad energy per 32-bit off-chip beat (1.8 V rail). */
    double vioBeatPj = 180.0;

    // Speculation rollback (load miss / store-buffer-full replay).
    double rollbackPj = 200.0;
    // Active-stall energy per thread-cycle spent waiting on memory.
    double stallCyclePj = 8.0;
    // Off-chip miss excursion, calibrated to Table VII's L2-miss row.
    double offChipMissPj = 200'000.0;
    // Hardware thread-switch overhead charged when consecutive issue
    // slots belong to different threads.  The paper's Fig. 14 analysis
    // finds two-way FGMT's switching overhead comparable to the active
    // power of an extra core; this knob reproduces that.
    double threadSwitchPj = 60.0;

    // Execution Drafting (McKeown et al., MICRO'14): the Piton core
    // deduplicates front-end work when its two threads execute the
    // same instruction.  When a drafted instruction issues, this
    // fraction of its execution energy (fetch + decode) is saved.
    double execDraftFrontEndFrac = 0.30;

    // Clock tree / idle dynamic.  Chip #2 idle is 2015.3 mW with the
    // die at thermal equilibrium (~41 C, where leakage is ~549 mW), so
    // the clock tree contributes ~1466 mW at 500.05 MHz across 25
    // tiles = 117.3 pJ/tile/cycle.
    double idleCyclePjPerTile = 117.3;
    double idleVcsFrac = 0.12;

    // Leakage at reference voltage and temperature.  Chip #2 static
    // power is 389.3 mW measured with clocks grounded, i.e. with the
    // die barely above ambient (~24 C).  The VDD/VCS split follows
    // Fig. 16's rail breakdown (core ~1.77 W vs SRAM ~0.27 W during a
    // benchmark run).
    double staticVddW = 0.310;
    double staticVcsW = 0.079;
    double leakVoltSens = 4.5;  ///< 1/V, exp(kv * (V - Vref))
    double leakTempSens = 0.020; ///< 1/degC, exp(kt * (T - Tref))

    /** VIO standing power (gateway interface clocks, 1.8 V). */
    double vioIdleW = 0.045;
};

/** Factory with the per-class EPI table filled in (Fig. 11 targets). */
EnergyParams defaultEnergyParams();

/**
 * Per-event energy calculator.  The architecture simulator calls one
 * method per micro-architectural event; all voltage scaling is applied
 * here so sweeps only change the operating point.
 *
 * The per-instruction and fixed per-event energies are memoized: a
 * flat (class, operand-activity bucket) cache and one precomputed
 * RailEnergy per fixed event, rebuilt eagerly by setOperatingPoint.
 * Every cached entry is produced by the original formula, so cached
 * and uncached results are byte-identical (tests/test_power.cc).
 */
class EnergyModel
{
  public:
    explicit EnergyModel(EnergyParams params = defaultEnergyParams());

    const EnergyParams &params() const { return params_; }

    /** Set the operating point used for dynamic V^2 / leakage scaling. */
    void setOperatingPoint(double vdd_v, double vcs_v);
    double vddV() const { return vddV_; }
    double vcsV() const { return vcsV_; }

    /**
     * Switched-bit activity estimate for an instruction's operands:
     * Hamming weight of both 64-bit sources, in [0, 128].  The paper's
     * min/random/max operand experiment maps to 0 / ~64 / 128.
     */
    static std::uint32_t
    operandActivity(RegVal rs1, RegVal rs2)
    {
        return static_cast<std::uint32_t>(std::popcount(rs1)
                                          + std::popcount(rs2));
    }

    /** Distinct operand-activity values: popcounts in [0, 128]. */
    static constexpr std::uint32_t kActivityBuckets = 129;

    /** Execution energy (J) for one instruction, split across rails. */
    const RailEnergy &
    instructionEnergy(isa::InstClass cls, std::uint32_t activity_bits) const
    {
        return instCache_[static_cast<std::size_t>(cls) * kActivityBuckets
                          + activity_bits];
    }

    /** Reference path of instructionEnergy, bypassing the memo cache
     *  (the byte-identity guard in tests/test_power.cc compares the
     *  two). */
    RailEnergy instructionEnergyUncached(isa::InstClass cls,
                                         std::uint32_t activity_bits) const;

    const RailEnergy &l15AccessEnergy() const { return l15E_; }
    const RailEnergy &
    l2AccessEnergy(bool with_directory = true) const
    {
        return l2E_[with_directory ? 1 : 0];
    }

    /**
     * One flit traversing one router hop with the given link toggles.
     * @param opposing_pairs adjacent wire pairs switching in opposite
     *        directions (aggressor coupling, Fig. 12's FSWA case).
     */
    RailEnergy nocHopEnergy(std::uint32_t toggled_bits,
                            std::uint32_t opposing_pairs = 0) const;

    /** Opposing-transition adjacency count between consecutive flits. */
    static std::uint32_t opposingPairs(RegVal prev, RegVal cur);

    const RailEnergy &chipBridgeFlitEnergy() const { return chipBridgeE_; }
    /** Off-chip pad energy for one 32-bit beat (VIO rail). */
    const RailEnergy &vioBeatEnergy() const { return vioBeatE_; }

    const RailEnergy &rollbackEnergy() const { return rollbackE_; }
    const RailEnergy &stallCycleEnergy() const { return stallE_; }
    const RailEnergy &offChipMissEnergy() const { return offChipMissE_; }
    const RailEnergy &threadSwitchEnergy() const { return threadSwitchE_; }

    /** Clock-tree (idle) dynamic energy for one cycle of one tile. */
    const RailEnergy &idleCycleEnergy() const { return idleE_; }

    /** Leakage power (W) per rail at the operating point and given die
     *  temperature; leak_factor is the chip's process-variation knob. */
    RailEnergy leakagePowerW(double temp_c, double leak_factor = 1.0) const;

    /** Total chip idle power (W): clock tree + leakage, for quick
     *  closed-form checks (tests, V/f sweeps). */
    double idlePowerW(double freq_hz, std::uint32_t tiles, double temp_c,
                      double leak_factor = 1.0) const;

    /** Dynamic V^2 scale factor for a VDD-rail event. */
    double dynScaleVdd() const { return dynVdd_; }
    double dynScaleVcs() const { return dynVcs_; }

  private:
    /** Recompute every memoized event energy (operating-point change). */
    void rebuildCaches();

    EnergyParams params_;
    double vddV_;
    double vcsV_;
    double dynVdd_ = 1.0;
    double dynVcs_ = 1.0;

    /** Flat (class, activity-bucket) memo of instructionEnergy. */
    std::array<RailEnergy,
               static_cast<std::size_t>(isa::InstClass::NumClasses)
                   * kActivityBuckets>
        instCache_{};
    RailEnergy l15E_;
    std::array<RailEnergy, 2> l2E_; ///< [0] without, [1] with directory
    RailEnergy chipBridgeE_;
    RailEnergy vioBeatE_;
    RailEnergy rollbackE_;
    RailEnergy stallE_;
    RailEnergy offChipMissE_;
    RailEnergy threadSwitchE_;
    RailEnergy idleE_;

    RailEnergy split(double pj, double vcs_frac) const;
};

/**
 * One charge diverted by an EnergyLedger capture (see beginCapture):
 * the cycle it belongs to (as an offset from the capture base, keeping
 * the entry at 32 bytes) plus the exact (category, energy) arguments
 * of the intercepted add().  Replaying the captures in (cycle, actor)
 * order reproduces the accumulator sums bit for bit, since each replay
 * performs the identical double additions in the identical order.
 *
 * `afterSwitch` folds a thread-switch charge into the entry that
 * follows it at the same (cycle, core): replay first adds the log's
 * switchE as an Exec charge, then the entry itself — the two adds the
 * unfolded pair would make, in the same order (Core::runAhead).
 */
struct CapturedCharge
{
    RailEnergy e;
    std::uint32_t cycleDelta = 0; ///< cycle - capture base
    /** Category.  Not a character type: a store through one may alias
     *  anything, which would make the stretch reload every member it
     *  reads after each entry it writes. */
    std::uint16_t cat = 0;
    bool afterSwitch = false;     ///< replay switchE first
};
static_assert(sizeof(CapturedCharge) == 32,
              "capture entries stream through caches on the hot path");

/**
 * One core's capture log for a run-ahead round.  Entries past end()
 * are allocated storage that keeps its capacity across rounds, so a
 * writer that reserve()s room for k entries may fill them in place
 * through the returned cursor and commit() the end, with one capacity
 * check for the lot (Core::runAhead's stretch); push() is the one-entry
 * form the ledger capture and Core::charge use.
 */
class ChargeLog
{
  public:
    bool empty() const { return n_ == 0; }
    const CapturedCharge *begin() const { return buf_.data(); }
    const CapturedCharge *end() const { return buf_.data() + n_; }
    void clear() { n_ = 0; }

    /** Write cursor with room for `k` more entries. */
    CapturedCharge *
    reserve(std::size_t k)
    {
        if (buf_.size() - n_ < k) [[unlikely]]
            buf_.resize(std::max(2 * buf_.size(), n_ + k + 64));
        return buf_.data() + n_;
    }
    /** Take every entry below `end` (a cursor from reserve()). */
    void
    commit(const CapturedCharge *end)
    {
        n_ = static_cast<std::size_t>(end - buf_.data());
    }

    void
    push(const RailEnergy &e, std::uint32_t delta, std::uint16_t cat,
         bool after_switch = false)
    {
        CapturedCharge *w = reserve(1);
        w->e = e;
        w->cycleDelta = delta;
        w->cat = cat;
        w->afterSwitch = after_switch;
        ++n_;
    }

    /** The owning core's thread-switch charge, replayed before each
     *  entry flagged afterSwitch. */
    RailEnergy switchE;

  private:
    std::vector<CapturedCharge> buf_;
    std::size_t n_ = 0;
};

/** One log with entries left in EnergyLedger::replayCaptures' walk. */
struct ReplayCursor
{
    const CapturedCharge *next; ///< first entry not yet replayed
    const CapturedCharge *end;
    const RailEnergy *switchE;  ///< the log's folded switch charge
};

/**
 * Per-tile energy accumulators in structure-of-arrays layout: one
 * densely packed double array per rail, indexed by tile.  Each core
 * adds its own charges to its own slot as it makes them (Core::charge,
 * also during a run-ahead round's capture), so a slot receives only
 * its core's charges, in that core's order — the same per-rail double
 * chains in-order stepping performs, so sums are bit-identical.
 */
class TileEnergyLedger
{
  public:
    void
    resize(std::size_t tiles)
    {
        vdd_.assign(tiles, 0.0);
        vcs_.assign(tiles, 0.0);
        vio_.assign(tiles, 0.0);
    }

    std::size_t size() const { return vdd_.size(); }

    void
    add(std::size_t tile, const RailEnergy &e)
    {
        vdd_[tile] += e.get(Rail::Vdd);
        vcs_[tile] += e.get(Rail::Vcs);
        vio_[tile] += e.get(Rail::Vio);
    }

    /** One tile's three accumulators by value, for a writer that adds
     *  a run of charges in registers and stores them back once
     *  (Core::runAhead's stretch): the same adds in the same order. */
    struct Slot
    {
        double vdd, vcs, vio;

        void
        add(const RailEnergy &e)
        {
            vdd += e.get(Rail::Vdd);
            vcs += e.get(Rail::Vcs);
            vio += e.get(Rail::Vio);
        }
    };
    Slot load(std::size_t tile) const
    {
        return {vdd_[tile], vcs_[tile], vio_[tile]};
    }
    void
    store(std::size_t tile, const Slot &s)
    {
        vdd_[tile] = s.vdd;
        vcs_[tile] = s.vcs;
        vio_[tile] = s.vio;
    }

    /** Reassembled per-tile total (telemetry-facing AoS view). */
    RailEnergy
    at(std::size_t tile) const
    {
        RailEnergy e;
        e.add(Rail::Vdd, vdd_[tile]);
        e.add(Rail::Vcs, vcs_[tile]);
        e.add(Rail::Vio, vio_[tile]);
        return e;
    }

    /** VDD + VCS, the per-tile slice the paper's EPI figures report. */
    double
    onChipCoreAndSramJ(std::size_t tile) const
    {
        return vdd_[tile] + vcs_[tile];
    }

    void
    reset()
    {
        std::fill(vdd_.begin(), vdd_.end(), 0.0);
        std::fill(vcs_.begin(), vcs_.end(), 0.0);
        std::fill(vio_.begin(), vio_.end(), 0.0);
    }

    /** Checkpoint hook: raw per-rail accumulator bits, tile-major
     *  within each rail.  The tile count is construction-time state
     *  (fingerprinted in chip.meta), so only the payload is written. */
    template <typename Ar>
    void
    serialize(Ar &ar)
    {
        for (auto &v : vdd_)
            ar.io(v);
        for (auto &v : vcs_)
            ar.io(v);
        for (auto &v : vio_)
            ar.io(v);
    }

  private:
    std::vector<double> vdd_;
    std::vector<double> vcs_;
    std::vector<double> vio_;
};

/** Per-category, per-rail energy accumulator. */
class EnergyLedger
{
  public:
    void
    add(Category c, const RailEnergy &e)
    {
        if (capture_) {
            capture_->push(
                e, static_cast<std::uint32_t>(captureCycle_ - captureBase_),
                static_cast<std::uint16_t>(c));
            return;
        }
        byCat_[static_cast<std::size_t>(c)] += e;
        total_ += e;
    }

    /**
     * Divert subsequent add() calls into `log` instead of accumulating.
     * The chip's run-ahead scheduler uses this to let cores execute
     * out of global cycle order while the ledger's floating-point add
     * order — which is observable through the non-associative sums —
     * is reconstructed by replaying the logs in (cycle, core) order.
     * Capture stays active until endCapture(); entries are tagged
     * relative to `base` with the cycle the executing core last set
     * via setCaptureCycle().
     */
    void
    beginCapture(ChargeLog *log, Cycle base)
    {
        capture_ = log;
        captureBase_ = base;
    }
    void setCaptureCycle(Cycle c) { captureCycle_ = c; }
    void endCapture() { capture_ = nullptr; }
    bool capturing() const { return capture_ != nullptr; }

    /**
     * Replay a round's capture logs cycle-major, actor-minor — the
     * exact add order in-order stepping would have used, so the
     * accumulator sums come out bit-identical.  `logs` is one sorted
     * log per actor (ascending cycleDelta); ties replay in actor
     * order.
     *
     * The walk keeps cursors only for logs with entries left, in actor
     * order (`active` is caller-owned scratch, rebuilt here): a round
     * in which a few of many actors ran visits only those logs per
     * distinct cycle, and a cursor drops out once its log is spent.
     *
     * An entry flagged afterSwitch first adds its log's switchE as an
     * Exec charge (the folded thread switch, see CapturedCharge).
     *
     * Defined inline so the running total and the Exec category — the
     * category of nearly every charge — stay in registers across the
     * whole walk instead of round-tripping through memory on every
     * entry (the walk is the fast path's second-hottest loop).  Each
     * accumulator still receives its charges in the same order.
     */
    template <typename Logs>
    void
    replayCaptures(const Logs &logs, std::vector<ReplayCursor> &active)
    {
        constexpr std::uint32_t kNoDelta = ~std::uint32_t{0};
        constexpr auto kExec = static_cast<std::uint16_t>(Category::Exec);
        std::uint32_t d = kNoDelta;
        active.clear();
        for (const auto &log : logs) {
            if (log.empty())
                continue;
            active.push_back({log.begin(), log.end(), &log.switchE});
            d = std::min(d, log.begin()->cycleDelta);
        }
        RailEnergy tot = total_;        // register-resident chains
        RailEnergy exec = byCat_[kExec];
        while (!active.empty()) {
            std::uint32_t next_d = kNoDelta;
            std::size_t kept = 0;
            for (ReplayCursor c : active) {
                const RailEnergy sw = *c.switchE;
                for (; c.next != c.end && c.next->cycleDelta == d; ++c.next) {
                    if (c.next->afterSwitch) {
                        exec += sw;
                        tot += sw;
                    }
                    const RailEnergy &e = c.next->e;
                    if (c.next->cat == kExec)
                        exec += e;
                    else
                        byCat_[c.next->cat] += e;
                    tot += e;
                }
                if (c.next == c.end)
                    continue; // spent: drop the cursor
                next_d = std::min(next_d, c.next->cycleDelta);
                active[kept++] = c;
            }
            active.resize(kept);
            d = next_d;
        }
        byCat_[kExec] = exec;
        total_ = tot;
    }

    const RailEnergy &total() const { return total_; }
    const RailEnergy &
    category(Category c) const
    {
        return byCat_[static_cast<std::size_t>(c)];
    }

    void reset();

    /**
     * Checkpoint hook.  Captures are round-local scratch — begin/
     * endCapture bracket a single run-ahead round inside one run()
     * call — so a checkpoint taken between runs must never observe one
     * in flight; the guard enforces that on save, and restore re-arms
     * nothing.
     */
    template <typename Ar>
    void
    serialize(Ar &ar)
    {
        Ar::check(capture_ == nullptr,
                  "ledger capture active at checkpoint");
        for (auto &c : byCat_)
            c.serialize(ar);
        total_.serialize(ar);
        if (ar.loading()) {
            capture_ = nullptr;
            captureCycle_ = 0;
            captureBase_ = 0;
        }
    }

  private:
    std::array<RailEnergy, kNumCategories> byCat_{};
    RailEnergy total_;
    ChargeLog *capture_ = nullptr;
    Cycle captureCycle_ = 0;
    Cycle captureBase_ = 0;
};

} // namespace piton::power

#endif // PITON_POWER_ENERGY_MODEL_HH
