/**
 * @file
 * Table VI: instruction latencies used in the EPI calculations,
 * cross-checked against the cycle simulator (the paper verifies them
 * "through simulation, ensuring pipeline stalls and instruction
 * scheduling was as expected").
 */

#include <iostream>

#include "arch/piton_chip.hh"
#include "bench_util.hh"
#include "chip/chip_instance.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "isa/assembler.hh"

namespace
{

using namespace piton;

/** Measure the occupancy of one instruction by timing a dependent
 *  hot loop of `count` copies against an empty loop. */
double
measureLatency(const std::string &body, int count)
{
    auto run = [](const isa::Program &p) {
        config::PitonParams params;
        power::EnergyModel energy;
        arch::PitonChip chip(params, chip::makeChip(2), energy);
        chip.loadProgram(0, 0, &p);
        const auto r = chip.run(200'000'000);
        return static_cast<double>(r.cyclesElapsed);
    };
    std::string with = "        set 1000000, %r1\n        set 3, %r2\n"
                       "        set 0, %r4\nloop:\n";
    std::string without = with;
    for (int i = 0; i < count; ++i)
        with += body + "\n";
    const std::string tail = "        add %r4, 1, %r4\n"
                             "        cmp %r4, 2000\n        bl loop\n"
                             "        halt\n";
    with += tail;
    without += tail;
    const double cycles_with = run(isa::assemble(with));
    const double cycles_without = run(isa::assemble(without));
    return (cycles_with - cycles_without) / (2000.0 * count);
}

} // namespace

int
main(int argc, char **argv)
{
    piton::CommandLine().parse(argc, argv);
    bench::banner("Table VI", "Instruction latencies (simulation-verified)");

    struct Row
    {
        const char *group;
        const char *name;
        std::string body;
        int count;
        unsigned expected;
    };
    const Row rows[] = {
        {"Integer (64-bit)", "nop", "        nop", 8, 1},
        {"Integer (64-bit)", "and", "        and %r1, %r2, %r3", 8, 1},
        {"Integer (64-bit)", "add", "        add %r1, %r2, %r3", 8, 1},
        {"Integer (64-bit)", "mulx", "        mulx %r1, %r2, %r3", 4, 11},
        {"Integer (64-bit)", "sdivx", "        sdivx %r1, %r2, %r3", 2, 72},
        {"FP Double Precision", "faddd", "        faddd %f1, %f2, %f3", 2,
         22},
        {"FP Double Precision", "fmuld", "        fmuld %f1, %f2, %f3", 2,
         25},
        {"FP Double Precision", "fdivd", "        fdivd %f1, %f2, %f3", 2,
         79},
        {"FP Single Precision", "fadds", "        fadds %f1, %f2, %f3", 2,
         22},
        {"FP Single Precision", "fmuls", "        fmuls %f1, %f2, %f3", 2,
         25},
        {"FP Single Precision", "fdivs", "        fdivs %f1, %f2, %f3", 2,
         50},
        {"Memory (64-bit) L1/L1.5 Hit", "ldx",
         "        ldx [%r1 + 0], %r3", 4, 3},
        // Branch rows pair the branch with a cmp (1 cycle, subtracted
        // below); count 1 keeps the fall-through label unique.
        {"Control", "beq taken",
         "        cmp %r2, 3\n        beq next\nnext:", 1, 3 + 1},
        {"Control", "bne nottaken",
         "        cmp %r2, 3\n        bne loop2\nloop2:", 1, 3 + 1},
    };

    TextTable t({"Group", "Instruction", "Table VI (cycles)",
                 "Simulated (cycles)"});
    for (const auto &r : rows) {
        const double measured = measureLatency(r.body, r.count);
        // The branch rows include the paired cmp (1 cycle).
        t.addRow({r.group, r.name,
                  std::to_string(r.expected
                                 - (std::string(r.group) == "Control" ? 1
                                                                      : 0)),
                  piton::fmtF(measured
                                  - (std::string(r.group) == "Control"
                                         ? 1.0
                                         : 0.0),
                              2)});
    }
    t.print(std::cout);
    std::cout << "\nStore latency (stx, store buffer has space): 10 "
                 "cycles of buffer occupancy\n(drain-rate verified by the "
                 "stx(NF) EPI test, Fig. 11 bench).\n";
    return 0;
}
