/**
 * @file
 * Tests for the fine-grained multithreaded core and the chip run loop:
 * issue timing per Table VI, FGMT interleaving, store-buffer rollback,
 * load-miss rollback, and whole-chip execution.
 */

#include <gtest/gtest.h>

#include "arch/piton_chip.hh"
#include "chip/chip_instance.hh"
#include "isa/assembler.hh"
#include "isa/program.hh"
#include "power/energy_model.hh"

namespace piton::arch
{
namespace
{

class CoreTest : public testing::Test
{
  protected:
    CoreTest()
        : chip_(params_, chip::makeChip(2), energy_, 11)
    {
    }

    /** Run until halted (or the cycle cap) and return elapsed cycles. */
    Cycle
    runToHalt(Cycle cap = 2'000'000)
    {
        const auto res = chip_.run(cap);
        EXPECT_TRUE(res.allHalted) << "program did not halt within cap";
        return res.cyclesElapsed;
    }

    config::PitonParams params_;
    power::EnergyModel energy_;
    PitonChip chip_;
};

TEST_F(CoreTest, CountingLoopProducesCorrectRegisterValue)
{
    const isa::Program p = isa::assemble(R"(
        set 0, %r1
    loop:
        add %r1, 1, %r1
        cmp %r1, 100
        bl loop
        halt
    )");
    chip_.loadProgram(0, 0, &p);
    runToHalt();
    EXPECT_EQ(chip_.core(0).thread(0).regs[1], 100u);
    // 1 set + 100 * (add + cmp + bl) + halt = 302 instructions.
    EXPECT_EQ(chip_.core(0).thread(0).instsExecuted, 302u);
}

TEST_F(CoreTest, HotLoopIpcMatchesPipelineModel)
{
    // Loop body: add(1) + cmp(1) + bl(3, incl. 2 bubbles) = 5 cycles
    // for 3 instructions -> single-thread IPC 0.6 once the loop is
    // resident in the L1I.
    const isa::Program hot = isa::assemble(R"(
        set 0, %r1
    loop:
        add %r1, 1, %r1
        cmp %r1, 10000
        bl loop
        halt
    )");
    chip_.loadProgram(0, 0, &hot);
    const Cycle cycles = runToHalt();
    const double hot_ipc =
        static_cast<double>(chip_.core(0).thread(0).instsExecuted)
        / static_cast<double>(cycles);
    EXPECT_NEAR(hot_ipc, 0.6, 0.05);
}

TEST_F(CoreTest, TwoThreadsInterleaveAndHideBranchBubbles)
{
    const char *src = R"(
        set 0, %r1
    loop:
        add %r1, 1, %r1
        cmp %r1, 10000
        bl loop
        halt
    )";
    const isa::Program p = isa::assemble(src);
    // One thread: 5 cycles per 3-instruction iteration (IPC 0.6).
    PitonChip single(params_, chip::makeChip(2), energy_, 3);
    single.loadProgram(0, 0, &p);
    const Cycle t1 = single.run(2'000'000).cyclesElapsed;

    // Two threads run the same loop: branch bubbles of one thread are
    // filled by the other, so total cycles < 2x single.
    PitonChip dual(params_, chip::makeChip(2), energy_, 3);
    dual.loadProgram(0, 0, &p);
    dual.loadProgram(0, 1, &p);
    const Cycle t2 = dual.run(4'000'000).cyclesElapsed;
    EXPECT_LT(t2, static_cast<Cycle>(1.5 * t1));
    EXPECT_GT(t2, t1); // but not free
}

TEST_F(CoreTest, StoreBufferFillsAndRollsBack)
{
    // Back-to-back stores overwhelm the 8-entry buffer (stx(F)).
    isa::ProgramBuilder b;
    b.set(1, 0x20000);
    for (int i = 0; i < 100; ++i)
        b.stx(2, 1, (i % 2) * 8); // two hot lines, stay in L1.5
    b.halt();
    const isa::Program p = b.build();
    chip_.loadProgram(0, 0, &p);
    runToHalt();
    EXPECT_GT(chip_.core(0).thread(0).storeRollbacks, 20u);
}

TEST_F(CoreTest, NopsAfterStoresAvoidRollback)
{
    // stx + 9 nops matches the drain rate: never full (stx(NF)).
    // Warm the two target lines first so the measured stores hit an
    // M-state L1.5 line, as in the paper's methodology.
    isa::ProgramBuilder b;
    b.set(1, 0x20000);
    b.stx(2, 1, 0).stx(2, 1, 8);
    for (int n = 0; n < 2000; ++n)
        b.nop(); // let the warm-up stores drain completely
    for (int i = 0; i < 50; ++i) {
        b.stx(2, 1, (i % 2) * 8);
        for (int n = 0; n < 9; ++n)
            b.nop();
    }
    b.halt();
    const isa::Program p = b.build();
    chip_.loadProgram(0, 0, &p);
    runToHalt();
    EXPECT_EQ(chip_.core(0).thread(0).storeRollbacks, 0u);
}

TEST_F(CoreTest, LoadMissesRollBackAndStall)
{
    const isa::Program p = isa::assemble(R"(
        set 0x40000, %r1
        ldx [%r1 + 0], %r2
        ldx [%r1 + 0], %r3
        halt
    )");
    chip_.loadProgram(0, 0, &p);
    runToHalt();
    const auto &t = chip_.core(0).thread(0);
    EXPECT_EQ(t.loadRollbacks, 1u);  // first load misses, second hits
    EXPECT_GT(t.memStallCycles, 390u);
}

TEST_F(CoreTest, SdivxOccupiesTheThreadPerTableVI)
{
    // A hot loop of sdivx: each iteration costs 72 (sdivx) + 1 (add)
    // + 1 (cmp) + 3 (bl) = 77 cycles.
    const isa::Program p = isa::assemble(R"(
        set 1000000, %r1
        set 3, %r2
        set 0, %r4
    loop:
        sdivx %r1, %r2, %r3
        add %r4, 1, %r4
        cmp %r4, 1000
        bl loop
        halt
    )");
    chip_.loadProgram(0, 0, &p);
    const Cycle cycles = runToHalt();
    EXPECT_GT(cycles, 1000u * 77u);
    EXPECT_LT(cycles, 1000u * 77u + 1500u); // + I-warmup, bookkeeping
}

TEST_F(CoreTest, HwidDistinguishesThreads)
{
    const isa::Program p = isa::assemble("rdhwid %r1\nhalt\n");
    chip_.loadProgram(0, 0, &p);
    chip_.loadProgram(0, 1, &p);
    chip_.loadProgram(3, 1, &p);
    runToHalt();
    EXPECT_EQ(chip_.core(0).thread(0).regs[1], 0u);
    EXPECT_EQ(chip_.core(0).thread(1).regs[1], 1u);
    EXPECT_EQ(chip_.core(3).thread(1).regs[1], 7u);
}

TEST_F(CoreTest, SharedMemoryCommunicationAcrossTiles)
{
    // Tile 0 stores a flag; tile 1 spins on it, then reads the value.
    const isa::Program writer = isa::assemble(R"(
        set 0x50000, %r1
        set 1234, %r2
        stx %r2, [%r1 + 8]
        set 1, %r3
        stx %r3, [%r1 + 0]
        halt
    )");
    const isa::Program reader = isa::assemble(R"(
        set 0x50000, %r1
    spin:
        ldx [%r1 + 0], %r2
        cmp %r2, 1
        bne spin
        ldx [%r1 + 8], %r3
        halt
    )");
    chip_.loadProgram(0, 0, &writer);
    chip_.loadProgram(1, 0, &reader);
    runToHalt();
    EXPECT_EQ(chip_.core(1).thread(0).regs[3], 1234u);
}

TEST_F(CoreTest, CasLockMutualExclusion)
{
    // Two threads increment a shared counter 100 times each under a
    // CAS lock; the total must be exactly 200.
    const char *src = R"(
        set 0x60000, %r1      ! lock address
        set 0x60040, %r2      ! counter address (different L2 line)
        set 0, %r5            ! iteration count
    outer:
    acquire:
        set 0, %r6            ! expected: unlocked
        set 1, %r7            ! swap in: locked
        casx [%r1], %r6, %r7
        cmp %r7, 0
        bne acquire           ! someone else held it
        ldx [%r2 + 0], %r8
        add %r8, 1, %r8
        stx %r8, [%r2 + 0]
        set 0, %r9
        stx %r9, [%r1 + 0]    ! release (plain store; cas invalidates)
        add %r5, 1, %r5
        cmp %r5, 100
        bl outer
        halt
    )";
    const isa::Program p = isa::assemble(src);
    chip_.loadProgram(0, 0, &p);
    chip_.loadProgram(4, 0, &p);
    runToHalt(20'000'000);
    EXPECT_EQ(chip_.memory().read64(0x60040), 200u);
}

TEST_F(CoreTest, ChipRunStopsAtCycleCap)
{
    const isa::Program p = isa::assemble("loop:\nba loop\n");
    chip_.loadProgram(0, 0, &p);
    const auto res = chip_.run(5000);
    EXPECT_FALSE(res.allHalted);
    EXPECT_EQ(res.cyclesElapsed, 5000u);
    EXPECT_EQ(chip_.now(), 5000u);
}

TEST_F(CoreTest, ActiveThreadCountTracksHalts)
{
    const isa::Program p = isa::assemble("nop\nhalt\n");
    chip_.loadProgram(0, 0, &p);
    chip_.loadProgram(1, 0, &p);
    EXPECT_EQ(chip_.activeThreads(), 2u);
    runToHalt();
    EXPECT_EQ(chip_.activeThreads(), 0u);
}

TEST_F(CoreTest, ExecEnergyAccumulatesPerInstruction)
{
    const isa::Program p = isa::assemble(R"(
        set 0, %r1
    loop:
        add %r1, 1, %r1
        cmp %r1, 1000
        bl loop
        halt
    )");
    chip_.loadProgram(0, 0, &p);
    runToHalt();
    const double exec_j =
        chip_.ledger().category(power::Category::Exec).onChipCoreAndSram();
    const double per_inst_pj =
        jToPj(exec_j) / static_cast<double>(chip_.totalInsts());
    // Int-dominated mix lands in the IntSimple/Branch EPI band.
    EXPECT_GT(per_inst_pj, 40.0);
    EXPECT_LT(per_inst_pj, 200.0);
}

TEST_F(CoreTest, FallingOffProgramEndPanics)
{
    const isa::Program p = isa::assemble("nop\n"); // no halt
    chip_.loadProgram(0, 0, &p);
    // Enough cycles to cover the cold I-fetch before the fall-off.
    EXPECT_THROW(chip_.run(10000), ProgramFault);
}

} // namespace
} // namespace piton::arch
