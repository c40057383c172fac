/**
 * @file
 * Differential program fuzzer.
 *
 * A seeded generator builds random-but-always-terminating programs
 * over the modelled ISA (ALU, mul/div, FP, loads/stores, CAS, forward
 * branches, a bounded outer loop) and runs each one three ways on a
 * small multi-tile chip:
 *
 *   1. fast path      — the event-driven engine,
 *   2. legacy path    — the per-cycle reference stepping,
 *   3. checkpoint     — fast path interrupted at a seed-chosen cycle,
 *                       saved, restored into a fresh chip, resumed.
 *
 * All three must agree bit-for-bit: final register files (FP values as
 * raw bits), condition codes, per-thread counters, cycle counts, and
 * the full energy ledger.  A failure prints the seed and a replayable
 * disassembly so the case can be turned into a regression test.
 *
 * Program-shape invariants that make "random" safe:
 *  - address registers (r1-r4) are written only by the generated
 *    prologue, so every ldx/stx/casx address is 8-byte aligned;
 *  - conditional branches inside the body only jump forward;
 *  - the single backward branch is the outer loop, bounded by a
 *    dedicated counter register (r20) no body instruction touches.
 *
 * PITON_FUZZ_ITERS overrides the program count (CI runs a reduced
 * count under the sanitizers; the default exceeds the 200-program
 * acceptance floor).
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arch/piton_chip.hh"
#include "checkpoint/archive.hh"
#include "chip/chip_instance.hh"
#include "common/rng.hh"
#include "config/piton_params.hh"
#include "governor/governor.hh"
#include "isa/program.hh"
#include "power/energy_model.hh"
#include "sim/system.hh"

namespace
{

using namespace piton;

constexpr std::uint32_t kTiles = 4;
constexpr std::uint32_t kThreadsPerCore = 2;

// Register conventions (see file comment).
constexpr int kPrivBase = 1;   ///< per-hwid private region pointer
constexpr int kSharedBase = 2; ///< shared region pointer (all threads)
constexpr int kPrivAlt = 3;    ///< second private pointer
constexpr int kLockBase = 4;   ///< shared CAS target pointer
constexpr int kFirstData = 5, kLastData = 19;
constexpr int kLoopCounter = 20;

std::uint64_t
bitsOf(double d)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

/**
 * Generate one random program.  Two-phase: draw the whole body first
 * (recording where forward-branch targets land), then emit through
 * ProgramBuilder with the labels placed.
 */
isa::Program
generateProgram(std::uint64_t seed)
{
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
    isa::ProgramBuilder b;

    // Prologue: region pointers.  Private regions are 4 KB per
    // hardware thread id; all displacements below stay inside them.
    b.rdhwid(kPrivBase)
        .slli(kPrivBase, kPrivBase, 12)
        .set(kSharedBase, 0x200000)
        .add(kPrivBase, kPrivBase, kSharedBase)
        .set(kSharedBase, 0x80000)
        .addi(kPrivAlt, kPrivBase, 2048)
        .set(kLockBase, 0x90000)
        .set(kLoopCounter, 0);
    for (int r = kFirstData; r <= kLastData; ++r)
        b.set(r, rng.next());
    for (int f = 0; f < 8; ++f)
        b.setfd(f, rng.uniform(-4.0, 4.0));

    const std::size_t body_len = 24 + rng.below(32);
    std::vector<std::function<void(isa::ProgramBuilder &)>> body;
    std::map<std::size_t, std::vector<std::string>> labels_at;
    body.reserve(body_len + 8);

    auto data_reg = [&] {
        return kFirstData
               + static_cast<int>(rng.below(kLastData - kFirstData + 1));
    };
    auto fp_reg = [&] { return static_cast<int>(rng.below(16)); };
    auto addr_reg = [&] {
        const int regs[] = {kPrivBase, kPrivBase, kPrivAlt, kSharedBase};
        return regs[rng.below(4)];
    };
    auto disp = [&] {
        return static_cast<std::int64_t>(8 * rng.below(64)); // < 512 B
    };

    while (body.size() < body_len) {
        const std::uint64_t kind = rng.below(100);
        if (kind < 35) { // reg-reg ALU
            const int rd = data_reg(), a = data_reg(), c = data_reg();
            switch (rng.below(8)) {
              case 0: body.push_back([=](auto &pb) { pb.add(rd, a, c); }); break;
              case 1: body.push_back([=](auto &pb) { pb.sub(rd, a, c); }); break;
              case 2: body.push_back([=](auto &pb) { pb.andr(rd, a, c); }); break;
              case 3: body.push_back([=](auto &pb) { pb.orr(rd, a, c); }); break;
              case 4: body.push_back([=](auto &pb) { pb.xorr(rd, a, c); }); break;
              case 5: body.push_back([=](auto &pb) { pb.mulx(rd, a, c); }); break;
              case 6: body.push_back([=](auto &pb) { pb.sdivx(rd, a, c); }); break;
              default: body.push_back([=](auto &pb) { pb.mov(rd, a); }); break;
            }
        } else if (kind < 45) { // ALU immediate
            const int rd = data_reg(), a = data_reg();
            const auto imm = static_cast<std::int64_t>(rng.below(4096));
            switch (rng.below(4)) {
              case 0: body.push_back([=](auto &pb) { pb.addi(rd, a, imm); }); break;
              case 1: body.push_back([=](auto &pb) { pb.subi(rd, a, imm); }); break;
              case 2: body.push_back([=](auto &pb) { pb.andi(rd, a, imm); }); break;
              default:
                body.push_back(
                    [=](auto &pb) { pb.slli(rd, a, imm % 63); });
                break;
            }
        } else if (kind < 60) { // FP
            const int rd = fp_reg(), a = fp_reg(), c = fp_reg();
            switch (rng.below(6)) {
              case 0: body.push_back([=](auto &pb) { pb.faddd(rd, a, c); }); break;
              case 1: body.push_back([=](auto &pb) { pb.fmuld(rd, a, c); }); break;
              case 2: body.push_back([=](auto &pb) { pb.fdivd(rd, a, c); }); break;
              case 3: body.push_back([=](auto &pb) { pb.fadds(rd, a, c); }); break;
              case 4: body.push_back([=](auto &pb) { pb.fmuls(rd, a, c); }); break;
              default: body.push_back([=](auto &pb) { pb.fdivs(rd, a, c); }); break;
            }
        } else if (kind < 75) { // loads
            const int rd = data_reg(), ra = addr_reg();
            const auto d = disp();
            body.push_back([=](auto &pb) { pb.ldx(rd, ra, d); });
        } else if (kind < 88) { // stores (ring pressure is the point)
            const int rs = data_reg(), ra = addr_reg();
            const auto d = disp();
            body.push_back([=](auto &pb) { pb.stx(rs, ra, d); });
        } else if (kind < 92) { // CAS on the shared lock word
            const int rd = data_reg(), cmp_reg = data_reg();
            body.push_back(
                [=](auto &pb) { pb.casx(rd, kLockBase, cmp_reg); });
        } else { // guarded forward skip
            const std::size_t here = body.size();
            const std::size_t span = 1 + rng.below(4);
            const std::size_t target = here + 1 + span;
            if (target >= body_len)
                continue; // no room before the loop tail; redraw
            std::string label = "f";
            label += std::to_string(here);
            labels_at[target].push_back(label);
            const int a = data_reg(), c = data_reg();
            const std::uint64_t cond = rng.below(5);
            body.push_back([=](auto &pb) {
                pb.cmp(a, c);
                switch (cond) {
                  case 0: pb.beq(label); break;
                  case 1: pb.bne(label); break;
                  case 2: pb.bg(label); break;
                  case 3: pb.bl(label); break;
                  default: pb.ba(label); break;
                }
            });
        }
    }

    const std::uint64_t outer_iters = 2 + rng.below(4);
    b.label("loop");
    for (std::size_t i = 0; i < body.size(); ++i) {
        for (const auto &l : labels_at[i])
            b.label(l);
        body[i](b);
    }
    for (const auto &l : labels_at[body.size()])
        b.label(l);
    b.addi(kLoopCounter, kLoopCounter, 1)
        .cmpi(kLoopCounter, static_cast<std::int64_t>(outer_iters))
        .bl("loop")
        .halt();
    return b.build();
}

std::string
disassemble(const isa::Program &p, std::uint64_t seed)
{
    std::ostringstream os;
    os << "seed " << seed << ", " << p.size() << " instructions:\n";
    for (std::uint32_t i = 0; i < p.size(); ++i) {
        const isa::Instruction &in = p.instructions()[i];
        os << "  " << i << ": " << isa::mnemonic(in.op)
           << (in.fp ? " [fp]" : "") << " rd=" << int(in.rd)
           << " rs1=" << int(in.rs1);
        if (in.useImm)
            os << " imm=" << in.imm;
        else
            os << " rs2=" << int(in.rs2);
        if (isa::isBranch(in.op))
            os << " -> " << in.target;
        os << '\n';
    }
    return os.str();
}

/** Final observable state, FP as raw bits. */
struct FuzzFingerprint
{
    Cycle now = 0;
    std::uint64_t insts = 0;
    std::vector<std::uint64_t> threadWords;
    std::vector<std::uint64_t> ledgerBits;

    bool
    operator==(const FuzzFingerprint &o) const
    {
        return now == o.now && insts == o.insts
               && threadWords == o.threadWords
               && ledgerBits == o.ledgerBits;
    }
};

FuzzFingerprint
fingerprint(const arch::PitonChip &chip)
{
    FuzzFingerprint f;
    f.now = chip.now();
    f.insts = chip.totalInsts();
    for (TileId t = 0; t < kTiles; ++t) {
        const arch::Core &core = chip.core(t);
        for (ThreadId tid = 0; tid < kThreadsPerCore; ++tid) {
            const arch::ThreadState &th = core.thread(tid);
            for (const RegVal r : th.regs)
                f.threadWords.push_back(r);
            for (const RegVal r : th.fregs)
                f.threadWords.push_back(r);
            f.threadWords.push_back((th.cc.zero ? 1 : 0)
                                    | (th.cc.negative ? 2 : 0));
            f.threadWords.push_back(th.pc);
            f.threadWords.push_back(
                static_cast<std::uint64_t>(th.status));
            f.threadWords.push_back(th.instsExecuted);
            f.threadWords.push_back(th.loadRollbacks);
            f.threadWords.push_back(th.storeRollbacks);
        }
    }
    const auto &ledger = chip.ledger();
    for (std::size_t c = 0; c < power::kNumCategories; ++c)
        for (std::size_t rail = 0; rail < power::kNumRails; ++rail)
            f.ledgerBits.push_back(
                bitsOf(ledger.category(static_cast<power::Category>(c))
                           .get(static_cast<power::Rail>(rail))));
    return f;
}

struct ChipUnderTest
{
    config::PitonParams params;
    power::EnergyModel energy;
    arch::PitonChip chip;

    ChipUnderTest(const isa::Program *p, bool fast, bool drafting)
        : params(makeParams()),
          chip(params, chip::makeChip(2), energy, 17)
    {
        chip.setFastPath(fast);
        if (drafting)
            chip.setExecDrafting(true);
        if (p != nullptr)
            for (TileId t = 0; t < kTiles; ++t)
                for (ThreadId tid = 0; tid < kThreadsPerCore; ++tid)
                    chip.loadProgram(t, tid, p);
    }

    static config::PitonParams
    makeParams()
    {
        config::PitonParams params;
        params.tileCount = kTiles;
        params.threadsPerCore = kThreadsPerCore;
        return params;
    }
};

constexpr Cycle kMaxCycles = 4'000'000;

unsigned
fuzzIterations()
{
    if (const char *s = std::getenv("PITON_FUZZ_ITERS")) {
        const long v = std::strtol(s, nullptr, 10);
        if (v > 0)
            return static_cast<unsigned>(v);
    }
    return 240;
}

void
runOneSeed(std::uint64_t seed)
{
    const isa::Program p = generateProgram(seed);
    Rng rng(seed ^ 0xD1B54A32D192ED03ULL);
    const bool drafting = rng.chance(0.25);

    // Reference: fast path, straight through (split into two run()
    // calls so the resumed flow below sees the same call pattern).
    ChipUnderTest fast(&p, true, drafting);
    const auto head = fast.chip.run(1 + rng.below(2000));
    const Cycle split = fast.chip.now();
    fast.chip.run(kMaxCycles);
    ASSERT_TRUE(head.cyclesElapsed > 0 || fast.chip.now() > 0);
    const FuzzFingerprint ref = fingerprint(fast.chip);
    ASSERT_LT(ref.now, kMaxCycles) << "program did not terminate\n"
                                   << disassemble(p, seed);

    // Legacy engine must agree bit-for-bit.
    ChipUnderTest legacy(&p, false, drafting);
    legacy.chip.run(split);
    legacy.chip.run(kMaxCycles);
    EXPECT_TRUE(fingerprint(legacy.chip) == ref)
        << "fast vs legacy divergence\n"
        << disassemble(p, seed);

    // Checkpoint a fast run at the split and restore into a fresh
    // chip (alternating restore engine), resume; must land on the same
    // final state.
    ChipUnderTest saver(&p, true, drafting);
    saver.chip.run(split);
    const std::vector<std::uint8_t> image = saver.chip.saveBytes();
    ChipUnderTest resumed(nullptr, (seed % 2) == 0, drafting);
    resumed.chip.restoreBytes(image);
    resumed.chip.run(kMaxCycles);
    EXPECT_TRUE(fingerprint(resumed.chip) == ref)
        << "checkpoint-resume divergence (split at cycle " << split
        << ", resume engine "
        << ((seed % 2) == 0 ? "fast" : "legacy") << ")\n"
        << disassemble(p, seed);
}

TEST(ProgramFuzz, DifferentialFastLegacyCheckpoint)
{
    const unsigned iters = fuzzIterations();
    for (std::uint64_t seed = 1; seed <= iters; ++seed) {
        SCOPED_TRACE("fuzz seed " + std::to_string(seed));
        runOneSeed(seed);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

// ---- directed checkpoint-boundary audits -----------------------------
//
// The generic fuzzer picks one split cycle per seed, which rarely lands
// a checkpoint on the exact cycles where transient microarchitectural
// state is live.  These audits force it: a dense sweep checkpointing at
// *every* cycle of a stress window, under the two mechanisms with the
// most checkpoint-shaped state — the store-buffer ring (head/count
// wraparound, drain in flight) and ExecD run-ahead bursts (drafting
// pair mid-window).

/** Back-to-back stores against a tiny ring so head wraps constantly
 *  and the buffer is usually non-empty (and often full) at any given
 *  checkpoint cycle. */
isa::Program
storePressureProgram()
{
    isa::ProgramBuilder b;
    b.rdhwid(1).slli(1, 1, 12).set(2, 0x200000).add(1, 1, 2);
    b.set(2, 0xA5A5).set(3, 0);
    b.label("loop");
    for (int i = 0; i < 6; ++i)
        b.stx(2, 1, (i % 3) * 8);
    b.ldx(4, 1, 0);
    b.addi(3, 3, 1);
    b.cmpi(3, 40);
    b.bl("loop");
    b.halt();
    return b.build();
}

void
denseSplitAudit(const isa::Program &p, std::uint32_t store_buffer_entries,
                bool drafting, const char *what)
{
    config::PitonParams params = ChipUnderTest::makeParams();
    params.storeBufferEntries = store_buffer_entries;

    auto make_chip = [&](power::EnergyModel &energy, bool load) {
        auto chip = std::make_unique<arch::PitonChip>(
            params, chip::makeChip(2), energy, 17);
        if (drafting)
            chip->setExecDrafting(true);
        if (load)
            for (TileId t = 0; t < kTiles; ++t)
                for (ThreadId tid = 0; tid < kThreadsPerCore; ++tid)
                    chip->loadProgram(t, tid, &p);
        return chip;
    };

    power::EnergyModel ref_energy;
    auto ref = make_chip(ref_energy, true);
    ref->run(kMaxCycles);
    const Cycle total = ref->now();
    ASSERT_LT(total, kMaxCycles) << what << ": program did not halt";

    // March a live chip forward one cycle at a time; checkpoint at
    // every cycle, resume each image in a fresh chip, and require the
    // resumed final state to match the straight-through run.
    power::EnergyModel live_energy;
    auto live = make_chip(live_energy, true);
    const FuzzFingerprint ref_fp = fingerprint(*ref);
    for (Cycle c = 0; c < std::min<Cycle>(total, 200); ++c) {
        live->run(1);
        const std::vector<std::uint8_t> image = live->saveBytes();
        power::EnergyModel resumed_energy;
        auto resumed = make_chip(resumed_energy, false);
        resumed->restoreBytes(image);
        resumed->run(kMaxCycles);
        const FuzzFingerprint got = fingerprint(*resumed);
        ASSERT_TRUE(got == ref_fp)
            << what << ": checkpoint at cycle " << live->now()
            << " resumed to a different final state";
    }
}

TEST(CheckpointBoundaryAudit, StoreBufferRingEveryCycle)
{
    denseSplitAudit(storePressureProgram(), /*store_buffer_entries=*/2,
                    /*drafting=*/false, "store-buffer ring");
}

TEST(CheckpointBoundaryAudit, StoreBufferRingDefaultDepth)
{
    denseSplitAudit(storePressureProgram(), /*store_buffer_entries=*/8,
                    /*drafting=*/false, "store-buffer ring (depth 8)");
}

TEST(CheckpointBoundaryAudit, DraftingBurstEveryCycle)
{
    // Identical programs on both threads of each core so ExecD pairs
    // them; checkpoints land mid-draft-window.
    isa::ProgramBuilder b;
    b.set(1, 0).set(2, 7);
    b.label("loop");
    for (int i = 0; i < 8; ++i)
        b.add(3, 3, 2).xorr(4, 4, 2);
    b.addi(1, 1, 1);
    b.cmpi(1, 60);
    b.bl("loop");
    b.halt();
    denseSplitAudit(b.build(), /*store_buffer_entries=*/8,
                    /*drafting=*/true, "ExecD run-ahead burst");
}

TEST(CheckpointBoundaryAudit, FuzzedProgramsDenseSplits)
{
    // A handful of generated programs under the dense-split harness,
    // small ring + drafting — the fuzz corpus meets the boundary audit.
    const unsigned iters = std::max(1u, fuzzIterations() / 48);
    for (std::uint64_t seed = 101; seed < 101 + iters; ++seed) {
        SCOPED_TRACE("dense-split seed " + std::to_string(seed));
        denseSplitAudit(generateProgram(seed), /*store_buffer_entries=*/2,
                        /*drafting=*/(seed % 2) == 0, "fuzzed program");
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

// ---- governed differential runs --------------------------------------
//
// The same fuzz corpus under the closed DVFS loop (DESIGN.md §13): a
// full governed System runs each program on the legacy engine, the
// fast engine, and the fast engine across a mid-run checkpoint
// migrated into a fresh governed System.  The control loop (epoch
// accumulators, duty gating, PID state) must not break the bit-identity
// contract: window powers and ledger sums compare as raw bits.

std::vector<std::uint64_t>
governedSystemBits(sim::System &sys)
{
    std::vector<std::uint64_t> bits;
    const auto &ledger = sys.pitonChip().ledger();
    for (std::size_t c = 0; c < power::kNumCategories; ++c)
        for (std::size_t rail = 0; rail < power::kNumRails; ++rail)
            bits.push_back(
                bitsOf(ledger.category(static_cast<power::Category>(c))
                           .get(static_cast<power::Rail>(rail))));
    bits.push_back(sys.pitonChip().totalInsts());
    bits.push_back(sys.pitonChip().now());
    bits.push_back(bitsOf(sys.sampleClockS()));
    return bits;
}

/**
 * One governed run of `p`: `windows` sample windows under `policy`.
 * With split > 0, the run is checkpointed after that many windows and
 * resumed in a fresh governed System (governor attached first, per the
 * restore contract).  Returns every window power plus the final system
 * bits.
 */
std::vector<std::uint64_t>
governedFuzzRun(const isa::Program &p, const std::string &policy,
                bool fast, std::uint32_t windows, std::uint32_t split = 0)
{
    sim::SystemOptions opts;
    opts.fastPath = fast;

    const auto gov_params = [&] {
        governor::GovernorParams gp;
        gp.policy = policy;
        gp.epochWindows = 2;
        if (policy == "pidcap")
            gp.capW = 2.0;
        return gp;
    }();

    auto sys = std::make_unique<sim::System>(opts);
    auto gov = governor::makeGovernor(gov_params);
    sys->attachGovernor(gov.get());
    for (TileId t = 0; t < opts.cfg.piton.tileCount; ++t)
        for (ThreadId tid = 0; tid < kThreadsPerCore; ++tid)
            sys->loadProgram(t, tid, &p);

    std::vector<std::uint64_t> bits;
    for (std::uint32_t w = 0; w < windows; ++w) {
        if (split != 0 && w == split) {
            const std::vector<std::uint8_t> image = sys->saveBytes();
            sys = std::make_unique<sim::System>(opts);
            gov = governor::makeGovernor(gov_params);
            sys->attachGovernor(gov.get());
            sys->restoreBytes(image);
        }
        const auto powers =
            sys->windowTruePowers(opts.cyclesPerSample);
        for (const double v : powers)
            bits.push_back(bitsOf(v));
    }
    const auto tail = governedSystemBits(*sys);
    bits.insert(bits.end(), tail.begin(), tail.end());
    return bits;
}

TEST(GovernedFuzz, DifferentialGovernedRuns)
{
    const unsigned iters = std::max(1u, fuzzIterations() / 30);
    const char *const policies[] = {"ondemand", "pidcap", "theas"};
    constexpr std::uint32_t kWindows = 7; // odd: ends mid-epoch
    for (std::uint64_t seed = 301; seed < 301 + iters; ++seed) {
        SCOPED_TRACE("governed fuzz seed " + std::to_string(seed));
        const isa::Program p = generateProgram(seed);
        const std::string policy = policies[seed % 3];
        const auto ref =
            governedFuzzRun(p, policy, /*fast=*/false, kWindows);

        EXPECT_EQ(governedFuzzRun(p, policy, true, kWindows), ref)
            << policy << " fast engine diverged";
        // Checkpoint both at an epoch boundary (2) and mid-epoch (3).
        const std::uint32_t split = 2 + (seed % 2);
        EXPECT_EQ(governedFuzzRun(p, policy, true, kWindows, split), ref)
            << policy << " diverged across checkpoint at window "
            << split;
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

} // namespace
