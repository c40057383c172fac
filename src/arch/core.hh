/**
 * @file
 * The Piton core: a single-issue, six-stage, in-order SPARC-style core
 * with two-way fine-grained multithreading (a modified OpenSPARC T1).
 *
 * Modelled behaviours that the characterization depends on:
 *  - fine-grained thread interleaving: each cycle the issue slot goes
 *    round-robin to a ready thread, hiding long-latency instructions of
 *    the other thread (Section IV-H's multithreading-vs-multicore
 *    study);
 *  - instruction occupancy per Table VI (a thread cannot issue again
 *    until its previous instruction's latency elapses);
 *  - an eight-entry store buffer that drains one store per store
 *    latency; stores are issued speculatively and roll back when the
 *    buffer is full (the paper's stx(F) vs stx(NF) distinction);
 *  - load-hit speculation with rollback on a miss;
 *  - per-instruction energy charged with operand-value-dependent
 *    switching activity (Fig. 11's min/random/max operand series).
 */

#ifndef PITON_ARCH_CORE_HH
#define PITON_ARCH_CORE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "arch/mem_system.hh"
#include "common/types.hh"
#include "config/piton_params.hh"
#include "isa/alu.hh"
#include "isa/program.hh"
#include "power/energy_model.hh"

namespace piton::ckpt
{
class Archive;
class ProgramTable;
}

namespace piton::arch
{

enum class ThreadStatus : std::uint8_t
{
    Idle,    ///< no program loaded
    Ready,   ///< can issue when readyAt <= now
    Halted,  ///< executed Halt
};

struct ThreadState
{
    std::array<RegVal, isa::kNumIntRegs> regs{};
    std::array<RegVal, isa::kNumFpRegs> fregs{};
    isa::CondCodes cc;
    const isa::Program *program = nullptr;
    std::uint32_t pc = 0;
    ThreadStatus status = ThreadStatus::Idle;
    Cycle readyAt = 0;

    /**
     * MRU fetch filter: the L1I line this thread last fetched from and
     * its resident-line handle.  A repeat fetch revalidates tag+state
     * on the cached line and applies the same LRU touch the full
     * lookup would, skipping the associative way scan (whose data-
     * dependent early exit mispredicts badly with 50 interleaved
     * threads).  Any mismatch falls back to MemorySystem::ifetch.
     */
    Addr fetchLine = ~Addr{0};
    CacheLine *fetchRef = nullptr;

    // Statistics.
    std::uint64_t instsExecuted = 0;
    /** Retired instructions per energy class (power-model fitting). */
    std::array<std::uint64_t,
               static_cast<std::size_t>(isa::InstClass::NumClasses)>
        classCounts{};
    std::uint64_t loadRollbacks = 0;
    std::uint64_t storeRollbacks = 0;
    std::uint64_t memStallCycles = 0;
};

class Core
{
  public:
    Core(TileId tile, const config::PitonParams &params,
         MemorySystem &mem, const power::EnergyModel &energy,
         power::EnergyLedger &ledger, power::TileEnergyLedger &tile_energy,
         double dyn_factor = 1.0);

    TileId tileId() const { return tile_; }

    /**
     * Enable Execution Drafting (the Piton core's energy-efficiency
     * mechanism for similar code on the two threads, McKeown et al.
     * MICRO'14): when a thread issues the same static instruction its
     * sibling just executed, the duplicated front-end work is saved.
     */
    void
    setExecDrafting(bool enabled)
    {
        if (enabled != execDrafting_)
            std::fill(lastIssue_.begin(), lastIssue_.end(),
                      std::pair<const isa::Program *, std::uint32_t>{
                          nullptr, 0});
        execDrafting_ = enabled;
    }
    bool execDrafting() const { return execDrafting_; }
    /** Instructions that issued drafted (diagnostics). */
    std::uint64_t draftedInsts() const { return draftedInsts_; }
    /** Hardware thread switches charged (diagnostics). */
    std::uint64_t threadSwitches() const { return threadSwitches_; }

    /**
     * Load a program onto a hardware thread.  Initial integer registers
     * may be seeded (workloads pass base addresses / thread ids here).
     */
    void loadProgram(ThreadId tid, const isa::Program *program,
                     const std::vector<std::pair<int, RegVal>> &init_regs = {});

    /**
     * Advance the core at cycle `now`: prune completed store-buffer
     * entries, pick a ready thread (round-robin, or ExecD's MinPC
     * policy under Execution Drafting) and issue its next instruction.
     * The in-order stepper (PitonChip::runLegacy) calls this for every
     * core at every stepped cycle; the fast path calls it only for a
     * core with work at `now`.
     */
    void tick(Cycle now);

    /**
     * DVFS duty gate (sim::System's per-tile frequency actuation,
     * DESIGN.md §13): a gated core reports no events and ignores
     * tick(), so neither engine ever runs it.  Only toggled between
     * run() calls — gating never changes inside a run window, which is
     * what keeps the charge-replay order independent of it.  Purely a
     * scheduling veto: thread state, store buffer, and statistics are
     * untouched, so ungating resumes exactly where the core paused.
     */
    void setDvfsGated(bool gated) { dvfsGated_ = gated; }
    bool dvfsGated() const { return dvfsGated_; }

    /** Total memory-stall cycles across this core's threads (the
     *  per-tile cache-pressure signal the governors consume). */
    std::uint64_t
    memStallCycles() const
    {
        std::uint64_t n = 0;
        for (const auto &t : threads_)
            n += t.memStallCycles;
        return n;
    }

    /** Earliest future cycle at which this core can do work, or
     *  `kNever` when all threads are idle/halted. */
    static constexpr Cycle kNever = ~Cycle{0};
    Cycle nextEventCycle(Cycle now) const
    {
        if (dvfsGated_)
            return kNever;
        Cycle next = kNever;
        for (const auto &t : threads_) {
            if (t.status != ThreadStatus::Ready)
                continue;
            next = std::min(next, std::max(t.readyAt, now));
        }
        return next;
    }

    /** Outcome of a run-ahead slice (see runAhead). */
    struct AheadResult
    {
        /** When paused: the cycle of the pending shared-memory op.
         *  Otherwise: the next event cycle (>= the slice limit, or
         *  kNever when all threads halted). */
        Cycle next = kNever;
        /** Last cycle this core issued at (>= the slice's `c`). */
        Cycle last = 0;
        /** Stopped *before* a shared-memory op at cycle `next`. */
        bool paused = false;
    };

    /**
     * Run-ahead slice for the chip's run-ahead round: tick() the event
     * at cycle `c` (the chip calls this in global (cycle, core) order,
     * so that event may touch MemorySystem), then run this core's
     * events in (c, lim) as long as they are provably core-local
     * (ALU/branch/halt instructions whose fetch hits the tile's own
     * L1I).  The slice pauses *before* the first later event that
     * would touch MemorySystem (load/store/CAS or an I-fetch miss); the
     * chip queues it and calls runAhead again at that cycle.  Energy
     * charges are expected to be captured (beginCapture here,
     * EnergyLedger::beginCapture for the memory side) and replayed in
     * global order.
     *
     * Covers plain round-robin issue over one or two thread slots,
     * whatever the thread status or store-buffer occupancy; the chip
     * never calls it on a core with Execution Drafting or a trace hook
     * (those step in order).  A slot that is not Ready reads as never
     * ready in a local copy of the issue times.  After the tick at `c`
     * it executes ALU/branch/halt instructions in a tight loop that
     * skips tick()'s pick scan, per-tick store-buffer drain and
     * next-event recomputation.  The buffer is drained once, at the
     * last issue cycle, when the slice ends (a pause leaves that to the
     * next call's tick).  Charge order per cycle (switch, fetch, exec)
     * matches tick().
     */
    AheadResult runAhead(Cycle c, Cycle lim);

    /** Whether a per-instruction trace hook is installed (the chip
     *  then steps in order through runLegacy: hook invocation order
     *  across cores is observable). */
    bool hasTraceHook() const { return static_cast<bool>(trace_); }

    bool allThreadsDone() const;

    const ThreadState &thread(ThreadId tid) const { return threads_[tid]; }
    std::uint32_t threadCount() const
    {
        return static_cast<std::uint32_t>(threads_.size());
    }
    std::uint64_t totalInsts() const;

    /** Cumulative core-local energy charged by this tile's core (exec,
     *  thread switches, store rollbacks) — the per-tile slice of the
     *  chip ledger the telemetry subsystem samples.  Shared-fabric
     *  energy (caches, NoC, off-chip) is charged by MemorySystem and
     *  is not tile-attributable.  Lives in the chip's SoA
     *  TileEnergyLedger; this is the AoS view of this tile's slot. */
    power::RailEnergy coreEnergy() const { return tileEnergy_.at(tile_); }

    /**
     * Divert this core's chip-ledger charges into `log` (entries
     * cycle-tagged relative to `base`) instead of accumulating, until
     * endCapture().  The per-tile share is still added at charge time.
     * The chip's run-ahead round calls this once per participating
     * core; because the diverted state is core-owned, a core's
     * core-local stretch captures without touching the shared ledger
     * (DESIGN.md §9).  The core's charge cycle is maintained
     * internally by runAhead (capCycle_).
     */
    void beginCapture(std::vector<power::CapturedCharge> *log, Cycle base)
    {
        capLog_ = log;
        capBase_ = base;
    }
    void endCapture() { capLog_ = nullptr; }

    /** Store-buffer occupancy (diagnostics / tests). */
    std::size_t storeBufferDepth(Cycle now) const;

    /** Prune store-buffer entries that completed by `now`.  Idempotent
     *  and monotone in time: nothing reads a completed entry, so
     *  pruning early is invisible.  tick() calls it every cycle; the
     *  chip calls it on save so images do not depend on the engine. */
    void drainStoreBuffer(Cycle now);

    // ---- BBV profiling (DESIGN.md §14) -------------------------------

    /**
     * Enable basic-block-vector accumulation: every retired instruction
     * bumps one of `buckets` hashed PC-histogram counters (noteBbv).
     * `buckets` must be a power of two in [2, 2^20]; 0 disables and
     * frees the histogram.  Unlike the trace hook this does not take
     * the chip off the fast path: the counters are commutative integers
     * bumped in retire order, identical under both engines.
     */
    void enableBbv(std::uint32_t buckets);
    std::uint32_t bbvBuckets() const { return bbvBuckets_; }
    /** The histogram (size bbvBuckets(); empty when disabled). */
    const std::vector<std::uint64_t> &bbvCounts() const { return bbv_; }
    /** Mutable view for the chip's checkpoint code (chip.bbv). */
    std::vector<std::uint64_t> &bbvData() { return bbv_; }

    /**
     * Per-instruction trace hook (gem5-style exec tracing): invoked
     * after every retired instruction with (tile, thread, cycle, pc,
     * instruction).  Empty function disables tracing.
     */
    using InstTraceHook = std::function<void(
        TileId, ThreadId, Cycle, Addr, const isa::Instruction &)>;
    void setTraceHook(InstTraceHook hook) { trace_ = std::move(hook); }

    /**
     * Checkpoint hook.  Program pointers go through `pt`; the caller
     * must have restored the memory system first (the per-thread MRU
     * fetch handle is re-resolved against the restored L1I).  The
     * store-buffer ring is saved in normalized form (live entries from
     * the head; restored with head 0), which is behaviourally identical
     * — only the live range is ever observed.
     */
    void serialize(ckpt::Archive &ar, const ckpt::ProgramTable &pt);

  private:
    void issue(ThreadState &t, ThreadId tid, Cycle now);

    /** Charge to the chip ledger and the per-tile accumulator.
     *  Forced inline: this is called once or twice per issued
     *  instruction, and GCC otherwise leaves out-of-line calls in the
     *  runAhead loop.  Under a core capture the chip-ledger share lands
     *  in the core-owned log — no shared ledger access, so a
     *  core-local stretch may run out of global cycle order; replay
     *  applies it later.  The per-tile share is added here either way:
     *  the tile's slot only ever receives this core's charges, in this
     *  order. */
#if defined(__GNUC__)
    [[gnu::always_inline]]
#endif
    void
    charge(power::Category c, const power::RailEnergy &e)
    {
        if (capLog_)
            capLog_->push_back(
                {e, static_cast<std::uint32_t>(capCycle_ - capBase_),
                 static_cast<std::uint8_t>(c)});
        else
            ledger_.add(c, e);
        tileEnergy_.add(tile_, e);
    }

#if defined(__GNUC__)
    [[gnu::always_inline]]
#endif
    void
    chargeExec(isa::InstClass cls, RegVal rs1, RegVal rs2)
    {
        const auto activity = power::EnergyModel::operandActivity(rs1, rs2);
        double scale = dynFactor_;
        if (draftActive_) {
            // Execution Drafting: the duplicated front-end (fetch/
            // decode) work of the drafted instruction is saved.
            scale *= 1.0 - energy_.params().execDraftFrontEndFrac;
        }
        charge(power::Category::Exec,
               energy_.instructionEnergy(cls, activity).scaled(scale));
    }
    /** BBV bump for one retired instruction: hash (thread, pc-index)
     *  into a bucket.  Fibonacci multiplicative hash; the shift keeps
     *  the high bits so the bucket count stays a pure mask-free
     *  power-of-two reduction. */
    void
    noteBbv(ThreadId tid, std::uint32_t pc)
    {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(tid) << 32) | pc;
        ++bbv_[(key * 0x9E3779B97F4A7C15ull) >> bbvShift_];
    }

    /** Execution-Drafting check: does (program, pc) match the sibling
     *  thread's last issued instruction? Updates draft tracking. */
    bool draftCheck(ThreadId tid, const ThreadState &t);

    TileId tile_;
    const config::PitonParams &params_;
    MemorySystem &mem_;
    const power::EnergyModel &energy_;
    power::EnergyLedger &ledger_;
    /** Chip-owned SoA of per-tile accumulators; this core only ever
     *  touches slot tile_. */
    power::TileEnergyLedger &tileEnergy_;
    double dynFactor_;
    RegVal hwidBase_ = 0; ///< tile * threadsPerCore (Rdhwid base)
    Addr l1iLineMask_ = 0; ///< line-align mask for the fetch filter
    isa::LatencyTable lat_;

    std::vector<ThreadState> threads_;
    /** BBV histogram (see enableBbv); empty when disabled. */
    std::vector<std::uint64_t> bbv_;
    /** 64 - log2(bbvBuckets_); 0 = BBV disabled (the retire-path
     *  guard, so the disabled cost is one register test). */
    std::uint32_t bbvShift_ = 0;
    std::uint32_t bbvBuckets_ = 0;
    /** Active charge-capture log (see beginCapture), or nullptr. */
    std::vector<power::CapturedCharge> *capLog_ = nullptr;
    Cycle capBase_ = 0;
    /** Cycle tag for captured charges; runAhead sets it before every
     *  event it executes. */
    Cycle capCycle_ = 0;
    std::uint32_t lastIssued_ = 0;
    /** DVFS duty gate (see setDvfsGated); not checkpointed — the
     *  System re-derives it from its duty counters every window. */
    bool dvfsGated_ = false;
    bool execDrafting_ = false;
    std::uint64_t threadSwitches_ = 0;
    bool draftActive_ = false; ///< current instruction issues drafted
    std::uint64_t draftedInsts_ = 0;
    /** (program, pc) last issued per thread, for draft matching. */
    std::vector<std::pair<const isa::Program *, std::uint32_t>> lastIssue_;

    /**
     * Ring buffer of in-flight store completion cycles, capacity
     * storeBufferEntries.  Completion cycles are pushed in
     * monotonically non-decreasing order (each store drains after the
     * previous one), so the head is always the earliest completion:
     * drain pops from the head in O(1) and the occupancy is the O(1)
     * live count `sbCount_`.
     */
    std::vector<Cycle> storeBuffer_;
    std::uint32_t sbHead_ = 0;
    std::uint32_t sbCount_ = 0;
    Cycle lastStoreDrain_ = 0;

    InstTraceHook trace_;
};

} // namespace piton::arch

#endif // PITON_ARCH_CORE_HH
