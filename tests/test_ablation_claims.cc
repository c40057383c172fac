/**
 * @file
 * The claims the NoC, store-buffer, monitor and slice-mapping ablation
 * benches print, each checked with an explicit bound on the same setup
 * the bench runs (smaller where the bench's size buys nothing):
 *
 *  - bench_ablation_noc: at Piton's measured (1x) link energy, even
 *    saturated injection keeps the NoC at a few percent of chip power;
 *  - bench_ablation_storebuffer: rollback energy does not rise as the
 *    store buffer deepens from 2 to 32 entries;
 *  - bench_ablation_monitor: the monitor's mean is unbiased as samples
 *    shrink, and the spread of the mean falls about as 1/sqrt(samples);
 *  - bench_ablation_slicemapping: low-order mapping homes a 4 MB array
 *    on all 25 slices, high-order mapping on fewer.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "arch/mem_system.hh"
#include "arch/memory.hh"
#include "arch/piton_chip.hh"
#include "chip/chip_instance.hh"
#include "common/stats.hh"
#include "config/piton_params.hh"
#include "core/equations.hh"
#include "isa/program.hh"
#include "power/energy_model.hh"
#include "sim/system.hh"

namespace piton
{
namespace
{

TEST(AblationClaims, NocIsAFewPercentOfChipPowerAtMeasuredLinkEnergy)
{
    // bench_ablation_noc's 1x row: saturate the chip-bridge injection
    // path with full-switching packets to the far corner.
    sim::System sys;
    const Cycle window = sys.options().cyclesPerSample;
    const auto nocJ = [&sys] {
        return sys.pitonChip()
            .ledger()
            .category(power::Category::Noc)
            .onChipCoreAndSram();
    };
    double noc_j = 0.0, total_w = 0.0;
    for (int i = 0; i < 24; ++i) {
        // Injection charges the packets' NoC energy up front.
        const double before = nocJ();
        for (Cycle k = 0; k < window / core::kNocPatternCycles; ++k) {
            std::vector<RegVal> payload(6);
            for (std::size_t f = 0; f < payload.size(); ++f)
                payload[f] = (f % 2 == 0) ? ~RegVal{0} : 0;
            sys.pitonChip().memSystem().injectPacket(24, payload);
        }
        const auto p = sys.windowTruePowers(window);
        if (i >= 8) { // skip warmup, as the bench does
            noc_j += nocJ() - before;
            total_w += p[0] + p[1];
        }
    }
    const double window_s = window / sys.coreClockHz();
    const double share = noc_j / window_s / total_w;
    EXPECT_GT(share, 0.0);
    EXPECT_LT(share, 0.05) << "NoC share " << 100 * share << " %";
}

TEST(AblationClaims, RollbackEnergyDoesNotRiseWithStoreBufferDepth)
{
    double prev_j = 0.0;
    for (const std::uint32_t entries : {2u, 4u, 8u, 16u, 32u}) {
        config::PitonParams params;
        params.storeBufferEntries = entries;
        power::EnergyModel energy;
        arch::PitonChip chip(params, chip::makeChip(2), energy, 17);

        // bench_ablation_storebuffer's stx(F) loop: back-to-back stores
        // to two hot L1.5 lines.
        isa::ProgramBuilder b;
        b.set(1, 0x20000).set(2, 0xA5A5A5A5A5A5A5A5ULL).set(30, 0);
        b.label("loop");
        for (int i = 0; i < 16; ++i)
            b.stx(2, 1, (i % 2) * 8);
        b.addi(30, 30, 1);
        b.cmpi(30, 2000);
        b.bl("loop");
        b.halt();
        const isa::Program p = b.build();
        chip.loadProgram(0, 0, &p);
        ASSERT_TRUE(chip.run(100'000'000).allHalted);

        const double rollback_j =
            chip.ledger().category(power::Category::Rollback)
                .onChipCoreAndSram();
        EXPECT_GT(rollback_j, 0.0) << entries << " entries";
        if (entries > 2) {
            EXPECT_LE(rollback_j, prev_j) << entries << " entries";
        }
        prev_j = rollback_j;
    }
}

TEST(AblationClaims, MonitorMeanIsUnbiasedAndSpreadFallsAsRootSamples)
{
    // Repeated idle measurements on one System, each drawing fresh
    // monitor noise (the true idle power is the same every time: with
    // the noise off, every mean is bit-identical).  64x more samples
    // should shrink the spread of the means by sqrt(64) = 8; the bound
    // takes anything between 64^(1/3) and 64^(2/3).
    constexpr int kRepeats = 64;
    const auto means = [](std::uint32_t samples) {
        RunningStats s;
        sim::System sys;
        for (int r = 0; r < kRepeats; ++r)
            s.add(sys.measure(samples).onChipMeanW());
        return s;
    };
    const RunningStats few = means(8);
    const RunningStats many = means(512);
    const double ratio = few.stddev() / many.stddev();
    EXPECT_GT(ratio, 4.0);
    EXPECT_LT(ratio, 16.0);
    // Unbiased: the grand means agree within three standard errors of
    // the 8-sample grand mean.
    const double sem = few.stddev() / std::sqrt(double{kRepeats});
    EXPECT_LT(std::abs(few.mean() - many.mean()), 3 * sem)
        << "8-sample mean " << few.mean() << " W, 512-sample mean "
        << many.mean() << " W";
}

TEST(AblationClaims, LowOrderMappingUsesEverySliceHighOrderFewer)
{
    const auto homes = [](config::LineToSliceMapping mapping) {
        config::PitonParams params;
        power::EnergyModel energy;
        power::EnergyLedger ledger;
        arch::MainMemory memory;
        arch::MemorySystem mem(params, energy, ledger, memory);
        mem.setSliceMapping(mapping);
        std::array<bool, 25> seen{};
        for (Addr a = 0; a < 4 * 1024 * 1024; a += 4096)
            seen[mem.homeTile(a)] = true;
        int n = 0;
        for (const bool s : seen)
            n += s;
        return n;
    };
    EXPECT_EQ(homes(config::LineToSliceMapping::LowOrder), 25);
    EXPECT_LT(homes(config::LineToSliceMapping::HighOrder), 25);
}

} // namespace
} // namespace piton
