#include "arch/piton_chip.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "checkpoint/archive.hh"
#include "checkpoint/program_table.hh"
#include "common/logging.hh"

namespace piton::arch
{

PitonChip::PitonChip(const config::PitonParams &params,
                     const chip::ChipInstance &instance,
                     const power::EnergyModel &energy, std::uint64_t seed)
    : params_(params), instance_(instance), energy_(energy)
{
    // The run-ahead round's pause queue holds one bit per core, and
    // Core::runAhead issues from at most two thread slots.
    piton_assert(params_.tileCount <= 64,
                 "tile count %u exceeds the 64 cores a round can queue",
                 params_.tileCount);
    piton_assert(params_.threadsPerCore == 1 || params_.threadsPerCore == 2,
                 "threads per core must be 1 or 2, got %u",
                 params_.threadsPerCore);
    mem_ = std::make_unique<MemorySystem>(params_, energy_, ledger_,
                                          memory_, seed);
    tileEnergy_.resize(params_.tileCount);
    cores_.reserve(params_.tileCount);
    for (TileId t = 0; t < params_.tileCount; ++t) {
        cores_.push_back(std::make_unique<Core>(
            t, params_, *mem_, energy_, ledger_, tileEnergy_,
            instance_.dynFactor * instance_.tileFactor(t)));
    }
}

void
PitonChip::resetEnergy()
{
    piton_assert(!ledger_.capturing(),
                 "resetEnergy called mid-round (capture in flight)");
    ledger_.reset();
    tileEnergy_.reset();
    runAheadRounds_ = 0;
    runAheadPops_ = 0;
    popsByCause_ = {};
    for (auto &log : chargeLogs_)
        log.clear();
    pauseCores_ = {};
    pauseCycles_ = 0;
}

void
PitonChip::loadProgram(TileId tile, ThreadId tid,
                       const isa::Program *program,
                       const std::vector<std::pair<int, RegVal>> &init)
{
    piton_assert(tile < params_.tileCount, "tile %u out of range", tile);
    cores_[tile]->loadProgram(tid, program, init);
}

PitonChip::RunResult
PitonChip::run(Cycle max_cycles)
{
    // Trace hooks observe the cross-core issue order, and Execution
    // Drafting's MinPC picker and draft tracking live only in
    // Core::tick, so chips with either step in order.  Both are set
    // per core, so every call checks every core.
    bool in_order = !fastPath_;
    for (const auto &c : cores_)
        in_order |= c->hasTraceHook() || c->execDrafting();
    return in_order ? runLegacy(max_cycles) : runFast(max_cycles);
}

/**
 * Reference stepping: every core is visited at every stepped cycle.
 * The equivalence baseline for the event-driven fast path (select with
 * fastPath=false), and the stepper for traced and Execution-Drafting
 * chips.
 */
PitonChip::RunResult
PitonChip::runLegacy(Cycle max_cycles)
{
    const Cycle end = now_ + max_cycles;
    RunResult res;
    while (now_ < end) {
        bool all_done = true;
        for (auto &c : cores_)
            all_done &= c->allThreadsDone();
        if (all_done) {
            res.allHalted = true;
            break;
        }

        for (auto &c : cores_)
            c->tick(now_);

        // Event skip: jump to the earliest future cycle with work.
        Cycle next = Core::kNever;
        for (auto &c : cores_)
            next = std::min(next, c->nextEventCycle(now_ + 1));
        if (next == Core::kNever) {
            res.allHalted = true;
            break;
        }
        now_ = std::min(std::max(now_ + 1, next), end);
    }
    res.cyclesElapsed = max_cycles - (end - now_);
    return res;
}

/**
 * Event-driven stepping.  A per-core next-event cache replaces the
 * legacy triple scan (allThreadsDone / tick / nextEventCycle over all
 * cores per stepped cycle): each iteration finds the earliest event
 * cycle and runs one run-ahead round from there, which touches only
 * the cores with work inside it, however many they are.
 *
 * Equivalence with runLegacy: cores are visited at exactly the cycles
 * where they have ready threads; every event that touches shared state
 * runs in global (cycle, core index) order, and the charge replay adds
 * every energy charge in that order, so instructions issue — and energy
 * is charged — in the identical per-instruction order.  Legacy
 * additionally calls tick() on cores with no ready thread, which do
 * nothing there.  Neither engine prunes completed store-buffer entries
 * except at a store (no consumer of the buffer can observe a completed
 * entry: each re-drains or filters by completion cycle), and serialize
 * drains every buffer at now_ on save, so checkpoint images match too.
 */
PitonChip::RunResult
PitonChip::runFast(Cycle max_cycles)
{
    const Cycle end = now_ + max_cycles;
    RunResult res;
    const std::size_t n = cores_.size();
    // Refresh the cache on entry: loadProgram or direct Core
    // manipulation between run() calls happens out of band.  Cached
    // entries never fall behind now_ afterwards (cores only ever
    // schedule forward), so no clamping is needed.
    nextAt_.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        nextAt_[i] = cores_[i]->nextEventCycle(now_);

    while (now_ < end) {
        const Cycle first = *std::min_element(nextAt_.begin(), nextAt_.end());
        if (first == Core::kNever) {
            res.allHalted = true;
            break;
        }
        if (first >= end) {
            now_ = end;
            break;
        }
        now_ = runAheadRound(first, std::min(first + kRoundCycles, end));
    }
    res.cyclesElapsed = max_cycles - (end - now_);
    return res;
}

Cycle
PitonChip::runAheadRound(Cycle start, Cycle lim)
{
    const std::size_t n = cores_.size();
    chargeLogs_.resize(n);
    Cycle maxLast = start;
    ++runAheadRounds_;

    // Every event the round serves is inside [start, lim), and
    // lim - start is at most kRoundCycles, so its cycle offset indexes
    // the bucket queue.
    const auto queue = [&](std::size_t i, Cycle c) {
        const Cycle off = c - start;
        pauseCores_[off] |= std::uint64_t{1} << i;
        pauseCycles_ |= std::uint64_t{1} << off;
    };

    // Seed the queue with each participating core's first event.  Each
    // core's charges are diverted into its own log for the whole round.
    for (std::size_t i = 0; i < n; ++i) {
        const Cycle e = nextAt_[i];
        if (e >= lim) // includes kNever
            continue;
        cores_[i]->beginCapture(&chargeLogs_[i], start);
        queue(i, e);
        ++popsByCause_[static_cast<std::size_t>(
            Core::PauseCause::RoundStart)];
    }

    // Serve queued events in global (cycle, core index) order — the
    // order in-order stepping would use.  The lowest set bit of the
    // occupancy word is the earliest queued cycle, and the lowest set
    // bit of that cycle's word its lowest core.  Each pop ticks the
    // core's event (which may be a shared-memory op), then lets it run
    // ahead core-locally until its next shared op, which it queues, or
    // the round's end.  That next op is always at a later cycle, so the
    // pop sequence stays globally sorted.  Core-local stretches touch
    // only the core's own state and its own tile's L1I (fills come only
    // from that tile's fetches; an L1I hit charges nothing to the
    // shared ledger).  The memory system's charges ride the chip
    // ledger's capture into the popped core's log.
    while (pauseCycles_ != 0) {
        const int off = std::countr_zero(pauseCycles_);
        std::uint64_t &cores = pauseCores_[off];
        const auto i = static_cast<std::size_t>(std::countr_zero(cores));
        cores &= cores - 1;
        if (cores == 0)
            pauseCycles_ &= pauseCycles_ - 1;
        ledger_.beginCapture(&chargeLogs_[i], start);
        ++runAheadPops_;
        const Core::AheadResult r = cores_[i]->runAhead(start + off, lim);
        maxLast = std::max(maxLast, r.last);
        if (r.paused) {
            queue(i, r.next);
            ++popsByCause_[static_cast<std::size_t>(r.cause)];
        } else {
            nextAt_[i] = r.next;
        }
    }
    ledger_.endCapture();
    for (auto &core : cores_)
        core->endCapture();

    // Replay the captured charges cycle-major, core-minor — the exact
    // add order of in-order stepping, so the ledger's floating-point
    // sums are bit-identical to the legacy path.  Each core's log is
    // already sorted by cycle; the walk visits the distinct charge
    // cycles (as offsets from `start`), skipping gaps, and per cycle
    // only the logs that still hold entries.  The cores already added
    // their per-tile shares at charge time.
    ledger_.replayCaptures(chargeLogs_, replayCursors_);
    for (auto &log : chargeLogs_)
        log.clear();
    return maxLast;
}

std::uint64_t
PitonChip::totalInsts() const
{
    std::uint64_t n = 0;
    for (const auto &c : cores_)
        n += c->totalInsts();
    return n;
}

std::array<std::uint64_t,
           static_cast<std::size_t>(isa::InstClass::NumClasses)>
PitonChip::classCounts() const
{
    std::array<std::uint64_t,
               static_cast<std::size_t>(isa::InstClass::NumClasses)>
        counts{};
    for (const auto &core : cores_) {
        for (ThreadId t = 0; t < core->threadCount(); ++t) {
            const auto &tc = core->thread(t).classCounts;
            for (std::size_t i = 0; i < counts.size(); ++i)
                counts[i] += tc[i];
        }
    }
    return counts;
}

void
PitonChip::setExecDrafting(bool enabled)
{
    for (auto &c : cores_)
        c->setExecDrafting(enabled);
}

void
PitonChip::setTraceHook(Core::InstTraceHook hook)
{
    for (auto &c : cores_)
        c->setTraceHook(hook);
}

std::uint64_t
PitonChip::draftedInsts() const
{
    std::uint64_t n = 0;
    for (const auto &c : cores_)
        n += c->draftedInsts();
    return n;
}

std::vector<double>
PitonChip::tileCoreEnergyJ() const
{
    std::vector<double> out;
    out.reserve(tileEnergy_.size());
    for (std::size_t t = 0; t < tileEnergy_.size(); ++t)
        out.push_back(tileEnergy_.onChipCoreAndSramJ(t));
    return out;
}

std::vector<std::uint64_t>
PitonChip::tileInsts() const
{
    std::vector<std::uint64_t> out;
    out.reserve(cores_.size());
    for (const auto &c : cores_)
        out.push_back(c->totalInsts());
    return out;
}

bool
PitonChip::allThreadsDone() const
{
    for (const auto &c : cores_)
        if (!c->allThreadsDone())
            return false;
    return true;
}

std::vector<std::uint64_t>
PitonChip::tileMemStallCycles() const
{
    std::vector<std::uint64_t> out;
    out.reserve(cores_.size());
    for (const auto &c : cores_)
        out.push_back(c->memStallCycles());
    return out;
}

void
PitonChip::enableBbv(std::uint32_t buckets)
{
    bbvBuckets_ = buckets;
    for (auto &c : cores_)
        c->enableBbv(buckets);
}

std::uint32_t
PitonChip::activeThreads() const
{
    std::uint32_t n = 0;
    for (const auto &c : cores_)
        for (ThreadId t = 0; t < c->threadCount(); ++t)
            n += (c->thread(t).status == ThreadStatus::Ready);
    return n;
}

void
PitonChip::serialize(ckpt::Archive &ar)
{
    ar.beginSection("chip.meta");
    ar.ioExpect(params_.tileCount, "tile count");
    ar.ioExpect(params_.threadsPerCore, "threads per core");
    ar.ioExpect(params_.storeBufferEntries, "store buffer entries");
    ar.io(now_);
    ar.endSection();

    // Program images first: cores serialize pointer fields through the
    // table.  Registration order is deterministic (tile-major,
    // thread-minor), so save and load agree on ids.
    ckpt::ProgramTable pt;
    ar.beginSection("chip.programs");
    if (ar.saving()) {
        for (const auto &core : cores_)
            for (ThreadId t = 0; t < core->threadCount(); ++t)
                pt.add(core->thread(t).program);
    }
    std::vector<std::unique_ptr<isa::Program>> restored;
    pt.serialize(ar, restored);
    ar.endSection();
    if (ar.loading()) {
        // Adopt the images immediately — and keep any previously
        // restored ones — so a CheckpointError thrown by a later
        // section can never leave a thread pointing at freed memory
        // (a failed restore leaves the chip inconsistent, but never
        // dangling).
        for (auto &p : restored)
            restoredPrograms_.push_back(std::move(p));
    }

    ar.beginSection("chip.ledger");
    ledger_.serialize(ar);
    ar.endSection();

    // Per-tile SoA accumulators (format v2; previously each core wrote
    // its own RailEnergy inside chip.cores).
    ar.beginSection("chip.tile_energy");
    tileEnergy_.serialize(ar);
    ar.endSection();

    ar.beginSection("chip.memory");
    memory_.serialize(ar);
    ar.endSection();

    ar.beginSection("chip.mem");
    mem_->serialize(ar);
    ar.endSection();

    // Cores last: the fetch-filter handles re-resolve against the
    // restored L1I arrays.  On save, every store buffer is first
    // drained at now_, so an image holds only the stores still in
    // flight, whatever either engine pruned before (when a drain runs
    // is invisible, see Core::drainStoreBuffer).  Images from before
    // this drain still load; their completed entries drain at the next
    // store.
    if (ar.saving())
        for (auto &core : cores_)
            core->drainStoreBuffer(now_);
    ar.beginSection("chip.cores");
    for (auto &core : cores_)
        core->serialize(ar, pt);
    ar.endSection();

    // BBV histograms (format v4).  Always written — buckets 0 with an
    // empty payload when disabled — so restore re-establishes the exact
    // profiling state, counts included.
    ar.beginSection("chip.bbv");
    std::uint32_t buckets = bbvBuckets_;
    ar.io(buckets);
    ckpt::Archive::check(buckets == 0
                             || (buckets >= 2 && buckets <= (1u << 20)
                                 && (buckets & (buckets - 1)) == 0),
                         "bad BBV bucket count");
    const std::uint64_t expect =
        static_cast<std::uint64_t>(buckets) * cores_.size();
    ckpt::Archive::check(ar.ioSize(expect, 8) == expect,
                         "BBV payload size mismatch");
    if (ar.loading())
        enableBbv(buckets);
    for (auto &core : cores_)
        for (auto &v : core->bbvData())
            ar.io(v);
    ar.endSection();

    // nextAt_ and the run-ahead scratch are rebuilt on every run()
    // entry; they carry no cross-run state.  Restoring into a chip
    // that already ran rounds must not inherit that run's scratch or
    // counters either (fastPath_ is a speed knob and deliberately
    // survives).
    if (ar.loading()) {
        runAheadRounds_ = 0;
        runAheadPops_ = 0;
        popsByCause_ = {};
        for (auto &log : chargeLogs_)
            log.clear();
        pauseCores_ = {};
        pauseCycles_ = 0;
    }
}

std::vector<std::uint8_t>
PitonChip::saveBytes()
{
    ckpt::Archive ar = ckpt::Archive::forSave();
    serialize(ar);
    return ar.finish();
}

void
PitonChip::restoreBytes(const std::vector<std::uint8_t> &bytes)
{
    ckpt::Archive ar = ckpt::Archive::forLoad(bytes);
    serialize(ar);
}

void
PitonChip::save(const std::string &path)
{
    ckpt::writeFile(path, saveBytes());
}

void
PitonChip::restore(const std::string &path)
{
    restoreBytes(ckpt::readFile(path));
}

} // namespace piton::arch
