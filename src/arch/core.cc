#include "arch/core.hh"

#include <algorithm>

#include "checkpoint/archive.hh"
#include "checkpoint/program_table.hh"
#include "common/logging.hh"

namespace piton::arch
{

Core::Core(TileId tile, const config::PitonParams &params,
           MemorySystem &mem, const power::EnergyModel &energy,
           power::EnergyLedger &ledger, power::TileEnergyLedger &tile_energy,
           double dyn_factor)
    : tile_(tile), params_(params), mem_(mem), energy_(energy),
      ledger_(ledger), tileEnergy_(tile_energy), dynFactor_(dyn_factor)
{
    threads_.resize(params_.threadsPerCore);
    lastIssue_.resize(params_.threadsPerCore, {nullptr, 0});
    piton_assert(params_.storeBufferEntries > 0,
                 "store buffer needs at least one entry");
    storeBuffer_.resize(params_.storeBufferEntries);
    hwidBase_ = static_cast<RegVal>(tile_) * params_.threadsPerCore;
    l1iLineMask_ = ~static_cast<Addr>(params_.l1i.lineBytes - 1);
}

void
Core::loadProgram(ThreadId tid, const isa::Program *program,
                  const std::vector<std::pair<int, RegVal>> &init_regs)
{
    piton_assert(tid < threads_.size(), "thread id %u out of range", tid);
    piton_assert(program && !program->empty(), "empty program");
    ThreadState &t = threads_[tid];
    t = ThreadState{};
    t.program = program;
    t.status = ThreadStatus::Ready;
    for (const auto &[reg, val] : init_regs) {
        piton_assert(reg > 0 && reg < static_cast<int>(isa::kNumIntRegs),
                     "bad init register %d", reg);
        t.regs[static_cast<std::size_t>(reg)] = val;
    }
}

bool
Core::draftCheck(ThreadId tid, const ThreadState &t)
{
    if (!execDrafting_ || threads_.size() < 2)
        return false;
    // Drafted when the sibling thread's last issued instruction is the
    // same static instruction (same program, same pc).
    const ThreadId sibling = (tid + 1) % threads_.size();
    const auto &[prog, pc] = lastIssue_[sibling];
    return prog == t.program && pc == t.pc;
}

void
Core::drainStoreBuffer(Cycle now)
{
    while (sbCount_ > 0 && storeBuffer_[sbHead_] <= now) {
        if (++sbHead_ == storeBuffer_.size())
            sbHead_ = 0;
        --sbCount_;
    }
}

std::size_t
Core::storeBufferDepth(Cycle now) const
{
    // Entries are sorted by completion cycle, so in-flight stores are
    // a suffix of the live ring contents.
    std::size_t depth = 0;
    std::size_t idx = sbHead_;
    for (std::uint32_t i = 0; i < sbCount_; ++i) {
        depth += (storeBuffer_[idx] > now);
        if (++idx == storeBuffer_.size())
            idx = 0;
    }
    return depth;
}

void
Core::enableBbv(std::uint32_t buckets)
{
    if (buckets == 0) {
        bbv_.clear();
        bbv_.shrink_to_fit();
        bbvShift_ = 0;
        bbvBuckets_ = 0;
        return;
    }
    // buckets == 1 would make bbvShift_ 64 (shift UB); there is no
    // reason to profile into a single bucket anyway.
    piton_assert(buckets >= 2 && buckets <= (1u << 20)
                     && (buckets & (buckets - 1)) == 0,
                 "BBV buckets must be a power of two in [2, 2^20], got %u",
                 buckets);
    std::uint32_t lg = 0;
    while ((1u << lg) != buckets)
        ++lg;
    bbvShift_ = 64 - lg;
    bbvBuckets_ = buckets;
    bbv_.assign(buckets, 0);
}

bool
Core::allThreadsDone() const
{
    for (const auto &t : threads_) {
        if (t.status == ThreadStatus::Ready)
            return false;
    }
    return true;
}

std::uint64_t
Core::totalInsts() const
{
    std::uint64_t n = 0;
    for (const auto &t : threads_)
        n += t.instsExecuted;
    return n;
}

void
Core::tick(Cycle now)
{
    // Duty-gated: no issue, and also no lazy store-buffer pruning — the
    // fast path never visits a gated core (nextEventCycle is kNever),
    // so the legacy path must not do bookkeeping here either.  The
    // drain is lazy/idempotent anyway; skipping it is invisible.
    if (dvfsGated_)
        return;
    drainStoreBuffer(now);

    // Round-robin thread selection starting after the last issuer, so
    // two ready threads alternate cycle by cycle (fine-grained MT).
    // Under Execution Drafting the selector switches to ExecD's MinPC
    // policy: the ready thread furthest behind in the (shared) program
    // issues first, pulling similar threads into lockstep so their
    // instructions draft.
    const auto n = static_cast<std::uint32_t>(threads_.size());
    std::uint32_t pick = n; // invalid
    if (execDrafting_) {
        for (std::uint32_t tid = 0; tid < n; ++tid) {
            const ThreadState &t = threads_[tid];
            if (t.status != ThreadStatus::Ready || t.readyAt > now)
                continue;
            if (pick == n)
                pick = tid;
            else if (threads_[pick].program == t.program
                     && t.pc < threads_[pick].pc)
                pick = tid;
            else if (threads_[pick].program == t.program
                     && t.pc == threads_[pick].pc && pick == lastIssued_)
                pick = tid; // tie: alternate issuers
        }
    } else {
        std::uint32_t tid = lastIssued_;
        for (std::uint32_t i = 0; i < n; ++i) {
            if (++tid >= n)
                tid = 0;
            const ThreadState &t = threads_[tid];
            if (t.status != ThreadStatus::Ready || t.readyAt > now)
                continue;
            pick = tid;
            break;
        }
    }
    if (pick == n)
        return;

    ThreadState &t = threads_[pick];

    // A drafted instruction reuses the sibling's front-end work: no
    // context-switch energy is paid for it.  (Without ExecD,
    // draftCheck is constant false and this is the plain FGMT
    // context-switch charge of Section IV-H2.)
    draftActive_ = draftCheck(pick, t);
    if (pick != lastIssued_ && !draftActive_) {
        ++threadSwitches_;
        charge(power::Category::Exec,
               energy_.threadSwitchEnergy().scaled(dynFactor_));
    }
    lastIssued_ = pick;
    const std::uint32_t pc_before = t.pc;
    const isa::Program *prog = t.program;
    const std::uint64_t insts_before = t.instsExecuted;
    issue(t, pick, now);
    // An I-fetch miss stalls without executing: don't record it.
    if (t.instsExecuted != insts_before) {
        // Draft-match history only feeds draftCheck, so it is
        // maintained only while ExecD is on (setExecDrafting clears it
        // on a mode change, so a later enable starts from a clean
        // slate instead of stale pre-drafting history).
        if (execDrafting_) {
            if (draftActive_)
                ++draftedInsts_;
            lastIssue_[pick] = {prog, pc_before};
        }
        if (trace_)
            trace_(tile_, pick, now, prog->pcOf(pc_before),
                   prog->at(pc_before));
        if (bbvShift_ != 0)
            noteBbv(pick, pc_before);
    }
    draftActive_ = false;
}

Core::AheadResult
Core::runAhead(Cycle c, Cycle lim)
{
    // The event at `c` may be a shared-memory op: its core-side charges
    // tag through capCycle_, its memory-side charges through the chip
    // ledger's capture (the chip pops events in global (cycle, core)
    // order, so touching the shared ledger here is safe).  Both streams
    // land in this core's log, in charge order.
    capCycle_ = c;
    ledger_.setCaptureCycle(c);
    tick(c);
    AheadResult r;
    r.last = c;
    Cycle cur = nextEventCycle(c + 1);
    if (cur == kNever || cur >= lim) {
        r.next = cur;
        return r;
    }

    ThreadState *const th[2] = {
        &threads_[0], threads_.size() == 2 ? &threads_[1] : nullptr};
    // Local issue times: a slot that is not Ready (idle, halted or
    // absent on a one-thread core) never issues, so it reads kNever.
    // Status only changes on a halt, which sets its slot to kNever.
    Cycle ready[2] = {kNever, kNever};
    for (std::size_t i = 0; i < threads_.size(); ++i)
        if (threads_[i].status == ThreadStatus::Ready)
            ready[i] = threads_[i].readyAt;
    // Scaling the switch energy is deterministic, so hoisting it out
    // of the loop keeps the charged bits identical.
    const power::RailEnergy switch_e =
        energy_.threadSwitchEnergy().scaled(dynFactor_);
    std::uint32_t last = lastIssued_;
    for (;;) {
        // Round-robin pick, in tick()'s scan order: the sibling of
        // the last issuer first.  `cur` is always a cycle where at
        // least one thread is ready, so the fallback pick is ready.
        std::uint32_t pick = last ^ 1u;
        if (ready[pick] > cur)
            pick = last;
        ThreadState &t = *th[pick];

        // Pause before anything that would touch MemorySystem: a pc
        // past the end (issue()'s diagnostic must fire in global
        // order), a load, store or CAS, or a fetch that misses both
        // the MRU filter and the tile's own L1I (which no other tile
        // ever touches: fills come only from this tile's misses).
        // The next runAhead call starts with a tick at `cur` that
        // re-picks the same thread, since nothing above mutates its
        // inputs, pays the switch charge then, and drains the store
        // buffer at `cur`, past every cycle this call issued at.
        if (t.pc >= t.program->size())
            break;
        const isa::DecodedInst &d = t.program->decoded(t.pc);
        if (d.kind == isa::IssueKind::Load || d.kind == isa::IssueKind::Store
            || d.kind == isa::IssueKind::Cas)
            break;
        const Addr fline = d.pc & l1iLineMask_;
        CacheLine *cl = t.fetchRef;
        if (!cl || t.fetchLine != fline || cl->tag != fline
            || !cl->valid()) [[unlikely]] {
            cl = mem_.l1iLine(tile_, fline);
            if (!cl)
                break; // I-fetch miss
            t.fetchLine = fline;
            t.fetchRef = cl;
        }

        // Committed to this issue: replicate tick()'s per-cycle
        // charge order (thread switch, fetch, exec).
        const std::uint32_t pc_issue = t.pc;
        capCycle_ = cur;
        if (pick != last) {
            ++threadSwitches_;
            charge(power::Category::Exec, switch_e);
        }
        last = pick;

        cl->lastUse = cur; // the L1I hit's LRU touch

        const isa::InstClass cls = d.cls;
        switch (d.kind) {
          case isa::IssueKind::Branch: {
            chargeExec(cls, t.cc.zero, t.cc.negative);
            const bool taken = isa::branchTaken(d.op, t.cc);
            t.pc = taken ? d.target : t.pc + 1;
            t.readyAt = ready[pick] = cur + d.latency;
            break;
          }
          case isa::IssueKind::Halt:
            t.status = ThreadStatus::Halted;
            ready[pick] = kNever;
            break;
          default: {
            const auto &srcs = d.fp ? t.fregs : t.regs;
            const RegVal rs1 = srcs[d.rs1];
            const RegVal rs2 =
                d.useImm ? static_cast<RegVal>(d.imm) : srcs[d.rs2];
            chargeExec(cls, rs1, rs2);
            const isa::AluResult res = isa::evalAluOp(
                d.op, d.imm, rs1, rs2, hwidBase_ + pick);
            if (res.writesRd && (d.fp || d.rd != 0)) {
                auto &dsts = d.fp ? t.fregs : t.regs;
                dsts[d.rd] = res.value;
            }
            if (res.setsCc)
                t.cc = res.cc;
            ++t.pc;
            t.readyAt = ready[pick] = cur + d.latency;
            break;
          }
        }
        ++t.classCounts[static_cast<std::size_t>(cls)];
        ++t.instsExecuted;
        if (bbvShift_ != 0)
            noteBbv(pick, pc_issue);

        r.last = cur;
        const Cycle next = std::max(cur + 1, std::min(ready[0], ready[1]));
        if (next >= lim) {
            // tick() drains the store buffer on every tick; ALU,
            // branch and halt issue never read it and drains are
            // monotone in time, so one drain at the last issue cycle
            // leaves the identical buffer.
            drainStoreBuffer(cur);
            lastIssued_ = last;
            r.next = next; // kNever once every slot has halted
            return r;
        }
        cur = next;
    }
    lastIssued_ = last;
    r.next = cur;
    r.paused = true;
    return r;
}

void
Core::issue(ThreadState &t, ThreadId tid, Cycle now)
{
    piton_assert(t.pc < t.program->size(),
                 "pc %u fell off the end of the program (size %u); "
                 "programs must loop or halt",
                 t.pc, t.program->size());

    // Predecoded record: energy class, issue latency, PC, operand
    // fields, and dispatch group resolved once at Program construction.
    const isa::DecodedInst &d = t.program->decoded(t.pc);

    // Instruction fetch.  The per-thread MRU filter handles the
    // common same-line repeat fetch: revalidate the cached line.
    // Anything else (line crossing, eviction, invalidation) looks the
    // line up in the L1I once; an L1I miss stalls the thread (the miss
    // latency is never 0) and retries.  A hit applies the LRU touch.
    const Addr fline = d.pc & l1iLineMask_;
    CacheLine *cl = t.fetchRef;
    if (!cl || t.fetchLine != fline || cl->tag != fline || !cl->valid())
        [[unlikely]] {
        cl = mem_.l1iLine(tile_, fline);
        if (!cl) {
            const std::uint32_t fetch_extra =
                mem_.ifetchMiss(tile_, fline, now);
            t.readyAt = now + fetch_extra;
            t.memStallCycles += fetch_extra;
            return;
        }
        t.fetchLine = fline;
        t.fetchRef = cl;
    }
    cl->lastUse = now;

    const isa::InstClass cls = d.cls;

    switch (d.kind) {
      case isa::IssueKind::Load: {
        const Addr addr = t.regs[d.rs1] + static_cast<Addr>(d.imm);
        RegVal data = 0;
        const AccessOutcome out = mem_.load(tile_, addr, data, now);
        // Load energy switches with the returned data and the address
        // bus (the operand-value dependence of Fig. 11).
        chargeExec(cls, data, static_cast<RegVal>(addr));
        if (d.rd != 0)
            t.regs[d.rd] = data;
        ++t.classCounts[static_cast<std::size_t>(cls)];
        if (out.level != HitLevel::L1) {
            ++t.loadRollbacks;
            t.memStallCycles += out.latency - lat_.loadL1Hit;
        }
        t.readyAt = now + out.latency;
        ++t.instsExecuted;
        ++t.pc;
        return;
      }
      case isa::IssueKind::Store: {
        drainStoreBuffer(now);
        if (sbCount_ >= params_.storeBufferEntries) {
            // Speculative issue found the buffer full: roll back this
            // thread and replay the store once a slot frees.
            ++t.storeRollbacks;
            charge(power::Category::Rollback,
                   energy_.rollbackEnergy().scaled(dynFactor_));
            t.readyAt = storeBuffer_[sbHead_];
            return; // pc unchanged: the store re-executes
        }
        const Addr addr = t.regs[d.rs1] + static_cast<Addr>(d.imm);
        const RegVal data = t.regs[d.rd];
        chargeExec(cls, data, static_cast<RegVal>(addr));
        const AccessOutcome out = mem_.store(tile_, addr, data, now);
        // Stores drain serially: one per store latency.
        const Cycle start = std::max(now, lastStoreDrain_);
        const Cycle done = start + out.latency;
        std::size_t slot = sbHead_ + sbCount_;
        if (slot >= storeBuffer_.size())
            slot -= storeBuffer_.size();
        storeBuffer_[slot] = done;
        ++sbCount_;
        lastStoreDrain_ = done;
        // The thread itself continues; later instructions bypass the
        // buffered store.
        ++t.classCounts[static_cast<std::size_t>(cls)];
        t.readyAt = now + 1;
        ++t.instsExecuted;
        ++t.pc;
        return;
      }
      case isa::IssueKind::Cas: {
        const Addr addr = t.regs[d.rs1];
        chargeExec(cls, t.regs[d.rs2], t.regs[d.rd]);
        RegVal old = 0;
        const AccessOutcome out = mem_.atomicCas(
            tile_, addr, t.regs[d.rs2], t.regs[d.rd], old, now);
        if (d.rd != 0)
            t.regs[d.rd] = old;
        ++t.classCounts[static_cast<std::size_t>(cls)];
        t.memStallCycles += out.latency;
        t.readyAt = now + out.latency;
        ++t.instsExecuted;
        ++t.pc;
        return;
      }
      case isa::IssueKind::Branch: {
        chargeExec(cls, t.cc.zero, t.cc.negative);
        const bool taken = isa::branchTaken(d.op, t.cc);
        t.pc = taken ? d.target : t.pc + 1;
        ++t.classCounts[static_cast<std::size_t>(cls)];
        t.readyAt = now + d.latency;
        ++t.instsExecuted;
        return;
      }
      case isa::IssueKind::Halt:
        t.status = ThreadStatus::Halted;
        ++t.classCounts[static_cast<std::size_t>(cls)];
        ++t.instsExecuted;
        return;
      case isa::IssueKind::Alu:
      default: {
        // ALU / FP / pseudo ops.  Source operand values drive the
        // switching energy.
        const auto &srcs = d.fp ? t.fregs : t.regs;
        const RegVal rs1 = srcs[d.rs1];
        const RegVal rs2 = d.useImm ? static_cast<RegVal>(d.imm)
                                    : srcs[d.rs2];
        chargeExec(cls, rs1, rs2);
        const RegVal hwid = hwidBase_ + tid;
        const isa::AluResult res =
            isa::evalAluOp(d.op, d.imm, rs1, rs2, hwid);
        // %r0 is hardwired zero; FP registers have no zero register.
        if (res.writesRd && (d.fp || d.rd != 0)) {
            auto &dsts = d.fp ? t.fregs : t.regs;
            dsts[d.rd] = res.value;
        }
        if (res.setsCc)
            t.cc = res.cc;
        ++t.classCounts[static_cast<std::size_t>(cls)];
        t.readyAt = now + d.latency;
        ++t.instsExecuted;
        ++t.pc;
        return;
      }
    }
}

void
Core::serialize(ckpt::Archive &ar, const ckpt::ProgramTable &pt)
{
    ckpt::Archive::check(capLog_ == nullptr,
                         "core capture active at checkpoint");
    ar.ioExpect(static_cast<std::uint32_t>(threads_.size()),
                "threads per core");
    for (auto &t : threads_) {
        for (auto &r : t.regs)
            ar.io(r);
        for (auto &r : t.fregs)
            ar.io(r);
        ar.io(t.cc.zero);
        ar.io(t.cc.negative);
        pt.ioRef(ar, t.program);
        ar.io(t.pc);
        ckpt::Archive::check(
            t.program == nullptr || t.pc < t.program->size(),
            "thread pc out of range");
        ar.ioEnum(t.status, static_cast<ThreadStatus>(3));
        ckpt::Archive::check(
            t.status == ThreadStatus::Idle || t.program != nullptr,
            "non-idle thread without a program");
        ar.io(t.readyAt);
        ar.io(t.fetchLine);
        if (ar.loading()) {
            // Re-resolve the MRU fetch handle against the restored L1I
            // (the caller serializes MemorySystem first).  A resident
            // line yields the same filter hit the saved pointer would
            // have revalidated to; an absent one falls back to the full
            // lookup — exactly as a stale saved pointer would.
            t.fetchRef = (t.program != nullptr && t.fetchLine != ~Addr{0})
                             ? mem_.l1iLine(tile_, t.fetchLine)
                             : nullptr;
        }
        ar.io(t.instsExecuted);
        for (auto &c : t.classCounts)
            ar.io(c);
        ar.io(t.loadRollbacks);
        ar.io(t.storeRollbacks);
        ar.io(t.memStallCycles);
    }

    // The per-tile energy accumulator lives in the chip's SoA
    // TileEnergyLedger, serialized as its own chip.tile_energy section
    // (format v2); nothing per-core to write here.
    ar.io(lastIssued_);
    ckpt::Archive::check(lastIssued_ < threads_.size(),
                         "lastIssued out of range");
    ar.io(execDrafting_);
    ar.io(threadSwitches_);
    ar.io(draftedInsts_);
    for (auto &li : lastIssue_) {
        pt.ioRef(ar, li.first);
        ar.io(li.second);
    }
    if (ar.loading()) {
        draftActive_ = false; // transient within one tick
        // Captures are round-local scratch, never live at a checkpoint
        // (the ledger guard enforces that on save).
        capLog_ = nullptr;
        capBase_ = 0;
        capCycle_ = 0;
    }

    // Store buffer: live completion cycles only, oldest first (the
    // ring's head offset is not architectural state).
    std::uint32_t live = sbCount_;
    ar.io(live);
    ckpt::Archive::check(live <= storeBuffer_.size(),
                         "store buffer overflow");
    if (ar.loading()) {
        sbHead_ = 0;
        sbCount_ = live;
    }
    for (std::uint32_t i = 0; i < live; ++i) {
        Cycle &slot =
            ar.saving()
                ? storeBuffer_[(sbHead_ + i) % storeBuffer_.size()]
                : storeBuffer_[i];
        ar.io(slot);
    }
    ar.io(lastStoreDrain_);
}

} // namespace piton::arch
