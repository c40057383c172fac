/**
 * @file
 * Quickstart: assemble a program, run it on the simulated Piton
 * system, and measure its power the way the paper does.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "common/cli.hh"
#include "isa/assembler.hh"
#include "sim/system.hh"

int
main(int argc, char **argv)
{
    using namespace piton;
    CommandLine().parse(argc, argv);

    // 1. A system at the paper's default operating point (Table III):
    //    Chip #2, 1.0 V / 1.05 V / 1.8 V, 500.05 MHz.
    sim::System system;

    // 2. Assemble a small program: sum the integers 1..1000.
    const isa::Program program = isa::assemble(R"(
        set 0, %r1          ! accumulator
        set 0, %r2          ! counter
    loop:
        add %r2, 1, %r2
        add %r1, %r2, %r1
        cmp %r2, 1000
        bl loop
        set 0x10000, %r3    ! store the result to memory
        stx %r1, [%r3 + 0]
        halt
    )");

    // 3. Run it on tile 12's thread 0 and report the result.
    system.loadProgram(12, 0, &program);
    const sim::CompletionResult run = system.runToCompletion(10'000'000);
    const RegVal result = system.pitonChip().memory().read64(0x10000);
    std::printf("result: sum(1..1000) = %llu (expected 500500)\n",
                static_cast<unsigned long long>(result));
    std::printf("execution: %llu cycles = %.2f us at 500.05 MHz\n",
                static_cast<unsigned long long>(run.cycles),
                run.seconds * 1e6);
    std::printf("energy: %.2f uJ total on-chip (%.2f uJ above the idle "
                "floor)\n",
                run.onChipEnergyJ * 1e6, run.activeEnergyJ * 1e6);

    // 4. Measure steady-state power with the 128-sample protocol while
    //    all 25 cores run an infinite version of the loop.
    sim::System busy;
    const isa::Program spin = isa::assemble(R"(
        set 0, %r1
    loop:
        add %r1, 1, %r1
        xor %r1, %r2, %r3
        ba loop
    )");
    for (TileId t = 0; t < 25; ++t)
        busy.loadProgram(t, 0, &spin);
    const board::PowerMeasurement m = busy.measure();
    std::printf("\n25 active cores: %.1f±%.1f mW (VDD %.1f mW, VCS %.1f "
                "mW)\n",
                wToMw(m.onChipMeanW()), wToMw(m.onChipStddevW()),
                wToMw(m.vddW.mean()), wToMw(m.vcsW.mean()));
    std::printf("idle floor       : %.1f mW (Table V: 2015.3 mW)\n",
                wToMw(busy.idlePowerW()));
    return 0;
}
