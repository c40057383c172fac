/**
 * @file
 * Ablation of the Piton features the paper names but does not
 * characterize in isolation:
 *  - Execution Drafting (ExecD): energy saved when both threads run
 *    similar code;
 *  - Coherence Domain Restriction (CDR): directory energy vs domain
 *    size;
 *  - SRAM repair: good-die yield vs spare resources (Table IV's
 *    "possibly fixable with SRAM repair" classes).
 */

#include <iostream>

#include "arch/piton_chip.hh"
#include "bench_util.hh"
#include "chip/chip_instance.hh"
#include "chip/yield_model.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "isa/assembler.hh"

namespace
{

using namespace piton;

void
execDraftingStudy()
{
    std::cout << "Execution Drafting (identical threads, integer loop):\n";
    const isa::Program prog = isa::assemble(R"(
        set 0, %r1
    loop:
        add %r1, 1, %r1
        xor %r1, %r2, %r3
        and %r3, %r2, %r4
        cmp %r1, 30000
        bl loop
        halt
    )");
    TextTable t({"ExecD", "Drafted insts", "Exec energy (uJ)", "Saving"});
    double baseline = 0.0;
    for (const bool drafting : {false, true}) {
        config::PitonParams params;
        power::EnergyModel energy;
        arch::PitonChip chip(params, chip::makeChip(2), energy, 33);
        chip.setExecDrafting(drafting);
        chip.loadProgram(0, 0, &prog);
        chip.loadProgram(0, 1, &prog);
        chip.run(4'000'000'000ULL);
        const double exec_uj = chip.ledger()
                                   .category(power::Category::Exec)
                                   .onChipCoreAndSram()
                               * 1e6;
        if (!drafting)
            baseline = exec_uj;
        t.addRow({drafting ? "on" : "off",
                  std::to_string(chip.draftedInsts()), fmtF(exec_uj, 2),
                  drafting ? fmtF(100.0 * (1.0 - exec_uj / baseline), 1)
                                 + "%"
                           : "-"});
    }
    t.print(std::cout);
    std::cout << '\n';
}

void
cdrStudy()
{
    std::cout << "Coherence Domain Restriction (directory energy per L2 "
                 "access):\n";
    TextTable t({"Domain size (tiles)", "L2+dir energy per access (pJ)"});
    for (const std::uint32_t domain_tiles : {2u, 4u, 8u, 16u, 25u}) {
        config::PitonParams params;
        power::EnergyModel energy;
        power::EnergyLedger ledger;
        arch::MainMemory memory;
        arch::MemorySystem mem(params, energy, ledger, memory);
        if (domain_tiles < 25)
            mem.addCoherenceDomain(0x100000, 0x10000,
                                   (1u << domain_tiles) - 1);
        RegVal d;
        const double before =
            ledger.category(power::Category::CacheL2).total();
        mem.load(0, 0x100000, d, 1);
        const double per_access =
            jToPj(ledger.category(power::Category::CacheL2).total()
                  - before);
        t.addRow({std::to_string(domain_tiles), fmtF(per_access, 1)});
    }
    t.print(std::cout);
    std::cout << '\n';
}

void
repairStudy()
{
    std::cout << "SRAM repair (good-die yield, 100k simulated dies):\n";
    const chip::YieldModel model;
    TextTable t({"Spares per array", "Good yield",
                 "SRAM-fail classes remaining"});
    for (const std::uint32_t spares : {0u, 1u, 2u, 4u}) {
        chip::RepairConfig repair;
        repair.sparesPerArray = spares;
        const auto s = model.testDiesWithRepair(100000, 77, repair);
        const double sram_fail =
            s.percent(chip::DieStatus::UnstableDeterministic)
            + s.percent(chip::DieStatus::UnstableNondeterministic);
        t.addRow({std::to_string(spares),
                  fmtF(s.percent(chip::DieStatus::Good), 1) + "%",
                  fmtF(sram_fail, 2) + "%"});
    }
    t.print(std::cout);
    std::cout << "\nWith even one spare row/column per array, nearly all"
                 " of Table IV's\n\"possibly fixable\" dies (25% of the"
                 " batch) become good — yield approaches\nthe 15.6%"
                 " short-circuit limit.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    piton::CommandLine().parse(argc, argv);
    bench::banner("Ablation",
                  "ExecD / CDR / SRAM-repair feature studies");
    execDraftingStudy();
    cdrStudy();
    repairStudy();
    return 0;
}
