/**
 * @file
 * Table I: Piton parameter summary.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "config/piton_params.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace piton;
    CommandLine().parse(argc, argv);
    bench::banner("Table I", "Piton parameter summary");

    const config::PitonParams p;
    TextTable t({"Parameter", "Value"});
    auto row = [&t](const std::string &k, const std::string &v) {
        t.addRow({k, v});
    };
    row("Process", p.process);
    row("Die Size", fmtF(p.dieAreaMm2, 0) + "mm^2 (" + fmtF(p.dieEdgeMm, 0)
                        + "mm x " + fmtF(p.dieEdgeMm, 0) + "mm)");
    row("Transistor Count", "> 460 million");
    row("Package", p.package);
    row("Nominal Core Volt. (VDD)", fmtF(p.nominalVddV, 2) + "V");
    row("Nominal SRAM Volt. (VCS)", fmtF(p.nominalVcsV, 2) + "V");
    row("Nominal I/O Volt. (VIO)", fmtF(p.nominalVioV, 2) + "V");
    row("Off-chip Interface Width",
        std::to_string(p.offChipInterfaceBits) + "-bit (each direction)");
    row("Tile Count", std::to_string(p.tileCount) + " ("
                          + std::to_string(p.meshWidth) + "x"
                          + std::to_string(p.meshHeight) + ")");
    row("NoC Count", std::to_string(p.nocCount));
    row("NoC Width",
        std::to_string(p.nocWidthBits) + "-bit (each direction)");
    row("Cores per Tile", std::to_string(p.coresPerTile));
    row("Threads per Core", std::to_string(p.threadsPerCore));
    row("Total Thread Count", std::to_string(p.totalThreads));
    row("Core ISA", p.coreIsa);
    row("Core Pipeline Depth",
        std::to_string(p.corePipelineDepth) + " stages");
    auto cache_rows = [&row](const std::string &name,
                             const config::CacheParams &c) {
        row(name + " Size", std::to_string(c.sizeBytes / 1024) + "KB");
        row(name + " Associativity",
            std::to_string(c.associativity) + "-way");
        row(name + " Line Size", std::to_string(c.lineBytes) + "B");
    };
    cache_rows("L1 Instruction Cache", p.l1i);
    cache_rows("L1 Data Cache", p.l1d);
    cache_rows("L1.5 Data Cache", p.l15);
    cache_rows("L2 Cache Slice", p.l2Slice);
    row("L2 Cache Size per Chip",
        fmtF(static_cast<double>(p.totalL2Bytes()) / 1024.0 / 1024.0, 1)
            + "MB");
    row("Coherence Protocol", p.coherenceProtocol);
    row("Coherence Point", p.coherencePoint);
    t.print(std::cout);
    return 0;
}

int
main(int argc, char **argv)
{
    return piton::bench::guardedMain(argc, argv, benchMain);
}
