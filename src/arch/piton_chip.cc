#include "arch/piton_chip.hh"

#include <algorithm>
#include <cstring>
#include <functional>
#include <utility>

#include "checkpoint/archive.hh"
#include "checkpoint/program_table.hh"
#include "common/logging.hh"

namespace piton::arch
{

namespace
{

/**
 * Stable two-way merge of sorted charge runs by cycleDelta.  Equal
 * keys take from the left run first; the merge tree only ever pairs a
 * run of lower core indices on the left, so the merged order is the
 * global (cycle, core) replay order — the exact FP add order of
 * in-order stepping (DESIGN.md §12).
 */
void
mergeChargeRuns(const power::CapturedCharge *a, std::size_t na,
                const power::CapturedCharge *b, std::size_t nb,
                power::CapturedCharge *out)
{
    while (na != 0 && nb != 0) {
        if (b->cycleDelta < a->cycleDelta) {
            *out++ = *b++;
            --nb;
        } else {
            *out++ = *a++;
            --na;
        }
    }
    if (na != 0)
        std::memcpy(out, a, na * sizeof(*a));
    else if (nb != 0)
        std::memcpy(out, b, nb * sizeof(*b));
}

} // namespace

PitonChip::PitonChip(const config::PitonParams &params,
                     const chip::ChipInstance &instance,
                     const power::EnergyModel &energy, std::uint64_t seed)
    : params_(params), instance_(instance), energy_(energy)
{
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
PitonChip::setEngineThreads(unsigned threads)
{
    const unsigned resolved = std::min<unsigned>(
        resolveThreadCount(threads), params_.tileCount);
    engineThreads_ = std::max(1u, resolved);
    // The gang is sized to the shard count; drop a stale one and let
    // the next sharded round rebuild it lazily (single-threaded runs
    // never pay for worker threads).
    if (gang_ && gang_->shards() != engineThreads_)
        gang_.reset();
    if (engineThreads_ == 1)
        gang_.reset();
}

void
PitonChip::resetEnergy()
{
    piton_assert(!ledger_.capturing(),
                 "resetEnergy called mid-round (capture in flight)");
    ledger_.reset();
    tileEnergy_.reset();
    runAheadRounds_ = 0;
    for (auto &log : chargeLogs_)
        log.clear();
    pauseHeap_.clear();
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
    return fastPath_ ? runFast(max_cycles) : runLegacy(max_cycles);
}

/**
 * Reference stepping: every core is visited at every stepped cycle.
 * Kept verbatim as the equivalence baseline for the event-driven fast
 * path (select with fastPath=false).
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
 * cycle and only touches cores with work there.  When a single core
 * owns the window up to the next other-core event, it batches
 * back-to-back issue locally (Core::runWindow) without returning to
 * this loop.
 *
 * Equivalence with runLegacy: cores are visited at exactly the cycles
 * where they have ready threads, in core-index order within a cycle,
 * so instructions issue — and energy is charged — in the identical
 * per-instruction order.  Legacy additionally calls tick() on cores
 * with no ready thread, but those calls only lazily prune completed
 * store-buffer entries, which is behaviourally invisible (every
 * consumer of the buffer re-drains or filters by completion cycle).
 */
PitonChip::RunResult
PitonChip::runFast(Cycle max_cycles)
{
    const Cycle end = now_ + max_cycles;
    RunResult res;
    const std::size_t n = cores_.size();
    // Refresh the cache on entry: loadProgram or direct Core
    // manipulation between run() calls happens out of band.
    nextAt_.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        nextAt_[i] = cores_[i]->nextEventCycle(now_);

    // Per-instruction trace hooks observe the cross-core interleaving
    // directly, so run-ahead (which reorders core-local work) is off
    // for traced runs; the in-order per-cycle pass below handles them.
    bool traced = false;
    for (const auto &c : cores_)
        traced |= c->hasTraceHook();

    // Scan state: earliest event cycle, how many cores share it, the
    // index of the first such core, and the earliest event of any
    // *other* core (the batch horizon when exactly one core owns the
    // first event).  Cached entries never fall behind now_ (cores only
    // ever schedule forward), so no clamping is needed.
    Cycle first = Core::kNever;
    Cycle second = Core::kNever;
    std::size_t first_i = 0;
    std::uint32_t at_first = 0;
    const auto scan = [&] {
        first = second = Core::kNever;
        first_i = 0;
        at_first = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const Cycle e = nextAt_[i];
            if (e == Core::kNever)
                continue;
            if (e < first) {
                second = first;
                first = e;
                first_i = i;
                at_first = 1;
            } else if (e == first) {
                ++at_first;
                second = e;
            } else if (e < second) {
                second = e;
            }
        }
    };
    scan();

    while (now_ < end) {
        if (first == Core::kNever) {
            res.allHalted = true;
            break;
        }
        if (first >= end) {
            now_ = end;
            break;
        }
        if (at_first == 1) {
            // Sole owner of [first, until]: batch issue core-locally.
            const Cycle until = std::min(second, end) - 1;
            const Core::WindowResult w =
                cores_[first_i]->runWindow(first, until);
            nextAt_[first_i] = w.next;
            now_ = w.last;
            scan();
        } else if (!traced) {
            // Multiple cores share this cycle: run a core-major
            // run-ahead round.  Each core executes its core-local
            // stretch in one contiguous slice, shared-memory ops are
            // serialized in global (cycle, core) order, and the charge
            // replay reconstructs the in-order ledger add sequence.
            now_ = runAheadRound(first, std::min(first + roundCycles(),
                                                 end));
            scan();
        } else {
            // Multiple cores share this cycle: interleave them in core
            // index order, exactly like the legacy per-cycle step.  The
            // pass recomputes the scan state from the updated events as
            // it goes, so the steady all-cores-active case never pays a
            // separate scan.
            const Cycle cycle = first;
            first = second = Core::kNever;
            first_i = 0;
            at_first = 0;
            for (std::size_t i = 0; i < n; ++i) {
                Cycle e = nextAt_[i];
                if (e <= cycle) { // kNever never compares <=
                    const Core::WindowResult w =
                        cores_[i]->runWindow(cycle, cycle);
                    e = w.next;
                    nextAt_[i] = e;
                }
                if (e == Core::kNever)
                    continue;
                if (e < first) {
                    second = first;
                    first = e;
                    first_i = i;
                    at_first = 1;
                } else if (e == first) {
                    ++at_first;
                    second = e;
                } else if (e < second) {
                    second = e;
                }
            }
            now_ = cycle;
        }
    }
    res.cyclesElapsed = max_cycles - (end - now_);
    return res;
}

Cycle
PitonChip::runAheadRound(Cycle start, Cycle lim)
{
    const std::size_t n = cores_.size();
    chargeLogs_.resize(n);
    pauseHeap_.clear();
    Cycle maxLast = start;
    ++runAheadRounds_;

    const auto note = [&](std::size_t i, const Core::AheadResult &r) {
        if (r.ticked && r.last > maxLast)
            maxLast = r.last;
        if (r.paused) {
            pauseHeap_.emplace_back(r.next, i);
            std::push_heap(pauseHeap_.begin(), pauseHeap_.end(),
                           std::greater<>{});
        } else {
            nextAt_[i] = r.next;
        }
    };

    // Phase 1: each participating core runs its core-local events in
    // [nextAt_, lim) back to back, pausing before the first op that
    // would touch the shared memory system.  Core-local slices touch
    // only the core's own state and its own tile's L1I (fills come
    // only from that tile's fetches; an L1I hit charges nothing to the
    // shared ledger), and every charge is diverted into the core-owned
    // log — so the slices of different cores share nothing and shard
    // cleanly.  Each shard owns a fixed contiguous tile range; the
    // serial note() merge afterwards runs in core-index order, so the
    // heap contents — and everything downstream — are independent of
    // the shard count (DESIGN.md §12).
    const bool sharded = engineThreads_ > 1;
    if (sharded) {
        if (!gang_)
            gang_ = std::make_unique<WorkerGang>(engineThreads_);
        const unsigned shards = gang_->shards();
        aheadResults_.resize(n);
        aheadRan_.assign(n, 0);
        gang_->run([&](unsigned shard) {
            const std::size_t lo = n * shard / shards;
            const std::size_t hi = n * (shard + 1) / shards;
            for (std::size_t i = lo; i < hi; ++i) {
                const Cycle e = nextAt_[i];
                if (e >= lim) // includes kNever
                    continue;
                cores_[i]->beginCapture(&chargeLogs_[i], start);
                aheadResults_[i] = cores_[i]->runAhead(e, lim);
                aheadRan_[i] = 1;
            }
        });
        for (std::size_t i = 0; i < n; ++i)
            if (aheadRan_[i])
                note(i, aheadResults_[i]);
    } else {
        for (std::size_t i = 0; i < n; ++i) {
            const Cycle e = nextAt_[i];
            if (e >= lim) // includes kNever
                continue;
            cores_[i]->beginCapture(&chargeLogs_[i], start);
            note(i, cores_[i]->runAhead(e, lim));
        }
    }

    // Phase 2 (always serial): execute pending shared-memory ops in
    // global (cycle, core index) order — the order in-order stepping
    // would use — then let each core run ahead again until its next
    // shared op.  Keys pushed while draining are always larger than
    // the key popped, so the pop sequence stays globally sorted.  The
    // resumed core's charges keep appending to its own log; the memory
    // system's charges ride the chip ledger's capture into that same
    // log.
    while (!pauseHeap_.empty()) {
        std::pop_heap(pauseHeap_.begin(), pauseHeap_.end(),
                      std::greater<>{});
        const auto [c, i] = pauseHeap_.back();
        pauseHeap_.pop_back();
        cores_[i]->beginCapture(&chargeLogs_[i], start);
        ledger_.beginCapture(&chargeLogs_[i], start);
        note(i, cores_[i]->resumeShared(c, lim));
    }
    ledger_.endCapture();
    for (auto &core : cores_)
        core->endCapture();

    // Phase 3: replay the captured charges cycle-major, core-minor —
    // the exact add order of in-order stepping, so the ledger's
    // floating-point sums are bit-identical to the legacy path.  Each
    // core's log is already sorted by cycle; the walk visits the
    // distinct charge cycles (as offsets from `start`), skipping gaps,
    // and per cycle only the logs that still hold entries.
    //
    // Sharded rounds split the replay: the category/total merge is one
    // global FP chain and must stay a serial scan, while the per-tile
    // sums — each of which depends only on its own core's log order —
    // are summed by the other shards in parallel over the same
    // read-only logs.  Serial and split replay perform the identical
    // double additions in the identical order per accumulator.
    //
    // To shrink the serial residue, the gang first tree-merges the
    // per-core logs into one contiguous (cycle, core)-ordered array:
    // adjacent sorted runs merge pairwise per level, pairs distributed
    // round-robin over the shards.  The merged content is a pure
    // function of the logs — the shard assignment only decides who
    // copies which pair — so it is bit-identical at any thread count.
    // The global FP chain then degenerates from an interleaved
    // 25-cursor walk (re-scanning every log per distinct cycle) to a
    // linear pass over contiguous memory (replayMerged), and the merge
    // itself — ~log2(tiles) copy passes — runs on all shards.
    if (sharded) {
        const unsigned shards = gang_->shards();
        std::size_t total = 0;
        for (const auto &log : chargeLogs_)
            total += log.size();
        mergeA_.resize(total);
        mergeB_.resize(total);
        // Level 1 merges adjacent per-core logs straight out of the
        // logs; segment s covers cores 2s and 2s+1, so offsets are the
        // prefix sums of the pair sizes.
        std::size_t nseg = (n + 1) / 2;
        mergeOff_.assign(nseg + 1, 0);
        for (std::size_t s = 0; s < nseg; ++s) {
            std::size_t len = chargeLogs_[2 * s].size();
            if (2 * s + 1 < n)
                len += chargeLogs_[2 * s + 1].size();
            mergeOff_[s + 1] = mergeOff_[s] + len;
        }
        std::vector<power::CapturedCharge> *cur = &mergeA_;
        std::vector<power::CapturedCharge> *nxt = &mergeB_;
        gang_->run([&](unsigned shard) {
            for (std::size_t s = shard; s < nseg; s += shards) {
                const auto &a = chargeLogs_[2 * s];
                const bool has_b = 2 * s + 1 < n;
                mergeChargeRuns(
                    a.data(), a.size(),
                    has_b ? chargeLogs_[2 * s + 1].data() : nullptr,
                    has_b ? chargeLogs_[2 * s + 1].size() : 0,
                    cur->data() + mergeOff_[s]);
            }
        });
        while (nseg > 1) {
            // Pair s of this level reads segments 2s/2s+1 and writes at
            // the left segment's offset (merging neighbours preserves
            // the prefix layout), so the next level's offsets are the
            // even entries of this one plus the total sentinel.
            const std::size_t half = (nseg + 1) / 2;
            gang_->run([&](unsigned shard) {
                for (std::size_t s = shard; s < half; s += shards) {
                    const std::size_t lo = mergeOff_[2 * s];
                    const std::size_t mid = mergeOff_[2 * s + 1];
                    const bool has_b = 2 * s + 1 < nseg;
                    const std::size_t hi =
                        has_b ? mergeOff_[2 * s + 2] : mid;
                    mergeChargeRuns(cur->data() + lo, mid - lo,
                                    has_b ? cur->data() + mid : nullptr,
                                    hi - mid, nxt->data() + lo);
                }
            });
            mergeOffNext_.assign(half + 1, 0);
            for (std::size_t s = 0; s < half; ++s)
                mergeOffNext_[s] = mergeOff_[2 * s];
            mergeOffNext_[half] = total;
            mergeOff_.swap(mergeOffNext_);
            std::swap(cur, nxt);
            nseg = half;
        }
        gang_->run([&](unsigned shard) {
            if (shard == 0) {
                ledger_.replayMerged(*cur);
                return;
            }
            const unsigned workers = shards - 1;
            const std::size_t lo = n * (shard - 1) / workers;
            const std::size_t hi = n * shard / workers;
            for (std::size_t i = lo; i < hi; ++i)
                for (const auto &cc : chargeLogs_[i])
                    if (cc.cat & power::kCapturedCoreBit)
                        tileEnergy_.add(i, cc.e);
        });
    } else {
        ledger_.replayCaptures(
            chargeLogs_, replayCursors_,
            [this](std::size_t i, const power::RailEnergy &e) {
                tileEnergy_.add(i, e);
            });
    }
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
    // restored L1I arrays.
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
    // that already ran sharded rounds must not inherit that run's
    // scratch or counters either (engineThreads_ itself is a speed
    // knob and deliberately survives, like fastPath_).
    if (ar.loading()) {
        runAheadRounds_ = 0;
        for (auto &log : chargeLogs_)
            log.clear();
        pauseHeap_.clear();
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
