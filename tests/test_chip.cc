/**
 * @file
 * Unit tests for the chip module: variation, yield, area, fmax solver,
 * and the shapes a PitonChip accepts.
 */

#include <cstdint>
#include <stdexcept>

#include <gtest/gtest.h>

#include "arch/piton_chip.hh"
#include "chip/area_model.hh"
#include "chip/chip_instance.hh"
#include "chip/fmax_solver.hh"
#include "chip/yield_model.hh"
#include "config/piton_params.hh"
#include "power/energy_model.hh"

namespace piton::chip
{
namespace
{

TEST(ChipInstance, CalibratedChipsDiffer)
{
    const ChipInstance c1 = makeChip(1);
    const ChipInstance c2 = makeChip(2);
    const ChipInstance c3 = makeChip(3);
    // Chip #1: fast and leaky; Chip #2 nominal; Chip #3 cold and slow.
    EXPECT_GT(c1.speedFactor, c2.speedFactor);
    EXPECT_GT(c1.leakFactor, 1.25);
    EXPECT_DOUBLE_EQ(c2.leakFactor, 1.0);
    EXPECT_LT(c3.leakFactor, 1.0);
    EXPECT_LT(c3.dynFactor, 1.0);
    EXPECT_EQ(c1.tileDynFactor.size(), 25u);
}

TEST(ChipInstance, TileVariationIsSmallAndDeterministic)
{
    const ChipInstance a = makeChip(2, 99);
    const ChipInstance b = makeChip(2, 99);
    EXPECT_EQ(a.tileDynFactor, b.tileDynFactor);
    for (double f : a.tileDynFactor) {
        EXPECT_GT(f, 0.9);
        EXPECT_LT(f, 1.1);
    }
    EXPECT_DOUBLE_EQ(a.tileFactor(30), 1.0); // out of range -> neutral
}

TEST(ChipInstance, UnknownIdIsFatal)
{
    EXPECT_EXIT(makeChip(9), testing::ExitedWithCode(1), "unknown chip id");
}

/** Run-ahead issues from at most two thread slots, and a round queues
 *  at most 64 cores: the constructor refuses any other shape. */
TEST(PitonChipShape, ThreadsPerCoreMustBeOneOrTwo)
{
    const power::EnergyModel energy;
    config::PitonParams params;
    for (const std::uint32_t tpc : {0u, 3u}) {
        params.threadsPerCore = tpc;
        EXPECT_THROW(arch::PitonChip(params, makeChip(2), energy),
                     std::logic_error)
            << tpc << " threads per core";
    }
    for (const std::uint32_t tpc : {1u, 2u}) {
        params.threadsPerCore = tpc;
        EXPECT_NO_THROW(arch::PitonChip(params, makeChip(2), energy));
    }
}

TEST(PitonChipShape, TileCountMustFitOneRoundWord)
{
    const power::EnergyModel energy;
    config::PitonParams params;
    params.tileCount = 65;
    EXPECT_THROW(arch::PitonChip(params, makeChip(2), energy),
                 std::logic_error);
}

TEST(YieldModel, ProbabilitiesSumToOne)
{
    const YieldModel m;
    double sum = 0.0;
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(DieStatus::NumStatuses); ++i)
        sum += m.probabilityOf(static_cast<DieStatus>(i));
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(YieldModel, ClosedFormMatchesTableIVShape)
{
    const YieldModel m;
    // Table IV: 59.4% good, 21.9% deterministic-unstable, 12.5% VCS
    // short, 3.1% VDD short, 3.1% nondeterministic-unstable.
    EXPECT_NEAR(m.probabilityOf(DieStatus::Good), 0.594, 0.05);
    EXPECT_NEAR(m.probabilityOf(DieStatus::UnstableDeterministic), 0.219,
                0.05);
    EXPECT_NEAR(m.probabilityOf(DieStatus::BadVcsShort), 0.125, 0.02);
    EXPECT_NEAR(m.probabilityOf(DieStatus::BadVddShort), 0.031, 0.01);
    EXPECT_NEAR(m.probabilityOf(DieStatus::UnstableNondeterministic),
                0.031, 0.015);
}

TEST(YieldModel, MonteCarloConvergesToClosedForm)
{
    const YieldModel m;
    const TestingStats s = m.testDies(200000, 7);
    EXPECT_EQ(s.total(), 200000u);
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(DieStatus::NumStatuses); ++i) {
        const auto st = static_cast<DieStatus>(i);
        EXPECT_NEAR(s.percent(st) / 100.0, m.probabilityOf(st), 0.01)
            << dieStatusSymptom(st);
    }
}

TEST(YieldModel, BatchOf32IsDeterministicPerSeed)
{
    const YieldModel m;
    const TestingStats a = m.testDies(32, 42);
    const TestingStats b = m.testDies(32, 42);
    EXPECT_EQ(a.counts, b.counts);
    EXPECT_EQ(a.total(), 32u);
}

TEST(YieldModel, RepairabilityFlags)
{
    EXPECT_TRUE(possiblyRepairable(DieStatus::UnstableDeterministic));
    EXPECT_TRUE(possiblyRepairable(DieStatus::UnstableNondeterministic));
    EXPECT_FALSE(possiblyRepairable(DieStatus::Good));
    EXPECT_FALSE(possiblyRepairable(DieStatus::BadVcsShort));
}

TEST(AreaModel, LevelsMatchFig8Totals)
{
    const AreaModel m;
    EXPECT_DOUBLE_EQ(m.chip().totalMm2, 35.97552);
    EXPECT_DOUBLE_EQ(m.tile().totalMm2, 1.17459);
    EXPECT_DOUBLE_EQ(m.core().totalMm2, 0.55205);
}

TEST(AreaModel, PercentagesSumToRoughly100)
{
    const AreaModel m;
    EXPECT_NEAR(m.chip().percentSum(), 100.0, 0.25);
    EXPECT_NEAR(m.tile().percentSum(), 100.0, 0.25);
    EXPECT_NEAR(m.core().percentSum(), 100.0, 0.25);
}

TEST(AreaModel, KeyBlockValues)
{
    const AreaModel m;
    EXPECT_DOUBLE_EQ(m.tile().blockPercent("Core"), 47.00);
    EXPECT_DOUBLE_EQ(m.tile().blockPercent("L2 Cache"), 22.16);
    EXPECT_DOUBLE_EQ(m.core().blockPercent("Load/Store"), 22.33);
    EXPECT_DOUBLE_EQ(m.chip().blockPercent("Tile 1-24"), 78.37);
    // NoC routers are under 3% of the tile: the area context for the
    // "NoC energy is small" insight.
    EXPECT_LT(m.nocRouterTileFraction(), 0.03);
    EXPECT_GT(m.nocRouterTileFraction(), 0.025);
}

TEST(AreaModel, TileAreaConsistentWithChipLevel)
{
    const AreaModel m;
    // 24 identical tiles occupy 78.37% of the chip; the implied
    // per-tile area should be close to the tile level's floorplan.
    const double per_tile = m.chip().blockAreaMm2("Tile 1-24") / 24.0;
    EXPECT_NEAR(per_tile, m.tile().totalMm2, 0.01);
}

TEST(AreaModel, UnknownBlockIsFatal)
{
    const AreaModel m;
    EXPECT_EXIT(m.tile().blockPercent("Rocket"),
                testing::ExitedWithCode(1), "unknown area block");
}

class FmaxSolverTest : public testing::Test
{
  protected:
    FmaxSolver
    makeSolver() const
    {
        return FmaxSolver(power::VfModel{}, power::EnergyModel{},
                          thermal::ThermalParams{});
    }
};

TEST_F(FmaxSolverTest, NominalChipBootsNear514MhzAt1V)
{
    const FmaxSolver solver = makeSolver();
    const FmaxResult r = solver.solve(makeChip(2), 1.0, 1.05);
    EXPECT_FALSE(r.thermallyLimited);
    EXPECT_NEAR(r.fmaxMhz, 514.33, 3.0);
    EXPECT_GT(r.nextStepMhz, r.fmaxMhz);
}

TEST_F(FmaxSolverTest, FrequencyRisesWithVoltageUntilThermalLimit)
{
    const FmaxSolver solver = makeSolver();
    const ChipInstance chip2 = makeChip(2);
    double prev = 0.0;
    for (double v = 0.8; v <= 1.1001; v += 0.05) {
        const FmaxResult r = solver.solve(chip2, v, v + 0.05);
        EXPECT_GT(r.fmaxMhz, prev) << "at VDD=" << v;
        prev = r.fmaxMhz;
    }
}

TEST_F(FmaxSolverTest, Chip1FastestAtLowVoltageButThermallyLimited)
{
    const FmaxSolver solver = makeSolver();
    const ChipInstance c1 = makeChip(1);
    const ChipInstance c2 = makeChip(2);

    const FmaxResult low1 = solver.solve(c1, 0.8, 0.85);
    const FmaxResult low2 = solver.solve(c2, 0.8, 0.85);
    EXPECT_GT(low1.fmaxMhz, low2.fmaxMhz); // fast corner wins when cool

    const FmaxResult high1 = solver.solve(c1, 1.2, 1.25);
    const FmaxResult high2 = solver.solve(c2, 1.2, 1.25);
    EXPECT_TRUE(high1.thermallyLimited);
    EXPECT_LT(high1.fmaxMhz, high2.fmaxMhz); // leaky chip collapses
    // Severe drop: Chip #1 at 1.2 V is slower than at 1.15 V.
    const FmaxResult mid1 = solver.solve(c1, 1.15, 1.20);
    EXPECT_LT(high1.fmaxMhz, mid1.fmaxMhz);
}

TEST_F(FmaxSolverTest, BootPowerIncludesLeakageFeedback)
{
    const FmaxSolver solver = makeSolver();
    double temp = 0.0;
    const double p =
        solver.bootPowerW(makeChip(2), 500.05, 1.0, 1.05, &temp);
    EXPECT_GT(p, 1.8);
    EXPECT_LT(p, 2.6);
    EXPECT_GT(temp, 35.0); // die runs warm at 2 W behind ~10.5 K/W
    EXPECT_LT(temp, 55.0);
}

} // namespace
} // namespace piton::chip
