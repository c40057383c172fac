/**
 * @file
 * Ablation: store-buffer depth versus rollback behaviour and store
 * energy.  The paper's stx(F) measurement exists because the 8-entry
 * buffer fills under back-to-back stores; this bench sweeps the depth
 * and shows how rollback rate (and the resulting wasted energy) would
 * change with a different design point.
 */

#include <cstdio>
#include <iostream>

#include "arch/piton_chip.hh"
#include "bench_util.hh"
#include "chip/chip_instance.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "isa/program.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace piton;
    CommandLine().parse(argc, argv);
    bench::banner("Ablation", "Store-buffer depth vs rollback energy");

    TextTable t({"Entries", "Stores", "Rollbacks", "Rollbacks/store",
                 "Exec+rollback energy (uJ)", "Cycles"});
    double first_rollback_j = 0.0, last_rollback_j = 0.0;
    for (const std::uint32_t entries : {2u, 4u, 8u, 16u, 32u}) {
        config::PitonParams params;
        params.storeBufferEntries = entries;
        power::EnergyModel energy;
        arch::PitonChip chip(params, chip::makeChip(2), energy, 17);

        // Back-to-back stores to two hot L1.5 lines (the stx(F) test).
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
        const auto r = chip.run(100'000'000);

        const auto &thread = chip.core(0).thread(0);
        const double rollback_j =
            chip.ledger().category(power::Category::Rollback)
                .onChipCoreAndSram();
        if (entries == 2)
            first_rollback_j = rollback_j;
        last_rollback_j = rollback_j;
        const double energy_uj =
            (chip.ledger().category(power::Category::Exec)
                 .onChipCoreAndSram()
             + rollback_j)
            * 1e6;
        t.addRow({std::to_string(entries),
                  std::to_string(thread.instsExecuted),
                  std::to_string(thread.storeRollbacks),
                  fmtF(static_cast<double>(thread.storeRollbacks) / 32000.0,
                       2),
                  fmtF(energy_uj, 2), std::to_string(r.cyclesElapsed)});
    }
    t.print(std::cout);

    std::printf("\nThe 16-store burst to two lines defeats every depth:"
                " about one rollback per\nstore at each, so rollback"
                " (replay) energy changes only %+.2f %% from 2 to 32\n"
                "entries.  A deeper buffer pays off only for bursts it"
                " can absorb, at the\narea/latency cost of a larger CAM"
                " — the design tradeoff behind Piton's\n8-entry"
                " choice.\n",
                (last_rollback_j / first_rollback_j - 1.0) * 100.0);
    return 0;
}

int
main(int argc, char **argv)
{
    return piton::bench::guardedMain(argc, argv, benchMain);
}
