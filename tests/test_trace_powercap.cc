/**
 * @file
 * Tests for the instruction-trace hook and the static power-capping
 * study.
 */

#include <gtest/gtest.h>

#include "arch/piton_chip.hh"
#include "chip/chip_instance.hh"
#include "core/power_cap.hh"
#include "isa/assembler.hh"

namespace piton
{
namespace
{

TEST(TraceHook, SeesEveryRetiredInstructionInOrder)
{
    config::PitonParams params;
    power::EnergyModel energy;
    arch::PitonChip chip(params, chip::makeChip(2), energy, 5);
    const isa::Program p = isa::assemble(R"(
        set 1, %r1
        add %r1, 2, %r2
        cmp %r2, 3
        beq done
        nop
    done:
        halt
    )");
    chip.loadProgram(4, 1, &p);

    std::vector<std::pair<Addr, isa::Opcode>> seen;
    chip.setTraceHook([&](TileId tile, ThreadId tid, Cycle, Addr pc,
                          const isa::Instruction &inst) {
        EXPECT_EQ(tile, 4u);
        EXPECT_EQ(tid, 1u);
        seen.emplace_back(pc, inst.op);
    });
    const auto r = chip.run(100'000);
    ASSERT_TRUE(r.allHalted);

    // set, add, cmp, beq (taken over the nop), halt.
    ASSERT_EQ(seen.size(), 5u);
    EXPECT_EQ(seen[0].second, isa::Opcode::SetImm);
    EXPECT_EQ(seen[1].second, isa::Opcode::Add);
    EXPECT_EQ(seen[2].second, isa::Opcode::Cmp);
    EXPECT_EQ(seen[3].second, isa::Opcode::Beq);
    EXPECT_EQ(seen[4].second, isa::Opcode::Halt);
    // PCs advance by 4 and skip the nop after the taken branch.
    EXPECT_EQ(seen[1].first, seen[0].first + 4);
    EXPECT_EQ(seen[4].first, seen[3].first + 8);
}

TEST(TraceHook, IFetchStallsAreNotTraced)
{
    config::PitonParams params;
    power::EnergyModel energy;
    arch::PitonChip chip(params, chip::makeChip(2), energy, 5);
    const isa::Program p = isa::assemble("nop\nhalt\n");
    chip.loadProgram(0, 0, &p);
    int calls = 0;
    chip.setTraceHook([&](TileId, ThreadId, Cycle, Addr,
                          const isa::Instruction &) { ++calls; });
    chip.run(100'000);
    EXPECT_EQ(calls, 2); // the I-miss retry does not double-count
}

class PowerCapTest : public testing::Test
{
  protected:
    core::PowerCapExperiment exp_{sim::SystemOptions{}, /*samples=*/8};
};

TEST_F(PowerCapTest, PowerMonotonicInCores)
{
    const double p0 = exp_.hpPowerW(0);
    const double p5 = exp_.hpPowerW(5);
    const double p25 = exp_.hpPowerW(25);
    EXPECT_LT(p0, p5);
    EXPECT_LT(p5, p25);
    EXPECT_NEAR(p0, 1.9, 0.1);  // Chip #3 idle
    EXPECT_GT(p25, 3.5);        // full HP (the paper's max regime)
}

TEST_F(PowerCapTest, StaticCapRespectsTheCap)
{
    for (const double cap : {2.4, 3.0, 3.6}) {
        const auto r = exp_.maxCoresUnderCap(cap);
        EXPECT_LE(r.powerAtMaxW, cap);
        if (r.maxCores < 25) {
            EXPECT_GT(exp_.hpPowerW(r.maxCores + 1), cap);
        }
    }
    // A cap below idle supports zero extra cores.
    const auto tight = exp_.maxCoresUnderCap(1.0);
    EXPECT_EQ(tight.maxCores, 0u);
}

} // namespace
} // namespace piton
