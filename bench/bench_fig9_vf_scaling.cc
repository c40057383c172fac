/**
 * @file
 * Fig. 9: maximum frequency at which Linux boots vs VDD, for three
 * chips (VCS = VDD + 0.05 V), with PLL quantization error bars and the
 * thermal limitation of the leaky fast-corner Chip #1.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "core/vf_experiments.hh"

int
main(int argc, char **argv)
{
    using namespace piton;
    unsigned threads = 0;
    CommandLine().count("--threads", threads, 0, maxWorkerThreads())
        .parse(argc, argv);
    bench::banner("Fig. 9", "Maximum Linux-boot frequency vs VDD");

    const core::VfScalingExperiment exp;
    const std::vector<double> grid =
        core::VfScalingExperiment::voltageGrid();
    // Points come back ordered chip-major: chip id 1..3 x the grid.
    const auto points = exp.runAll({1, 2, 3}, threads);

    TextTable t({"VDD (V)", "Chip #1 (MHz)", "Chip #2 (MHz)",
                 "Chip #3 (MHz)", "Notes"});
    for (std::size_t vi = 0; vi < grid.size(); ++vi) {
        std::string cells[3];
        std::string note;
        for (int id = 1; id <= 3; ++id) {
            const core::VfPoint &p =
                points[static_cast<std::size_t>(id - 1) * grid.size() + vi];
            cells[id - 1] = fmtF(p.fmaxMhz, 2) + " (+"
                            + fmtF(p.nextStepMhz - p.fmaxMhz, 2) + ")";
            if (p.thermallyLimited)
                note += "chip" + std::to_string(id) + " thermally limited; ";
        }
        t.addRow({fmtF(grid[vi], 2), cells[0], cells[1], cells[2], note});
    }
    t.print(std::cout);

    std::cout << "\nPaper anchors: ~514.33 MHz @ 1.0 V, ~285.74 MHz @"
                 " 0.8 V; Chip #1 fastest at\nlow voltage but collapses"
                 " at 1.2 V (cooling-limited).  (+x) values are the\n"
                 "next PLL quantization step (the failed test point /"
                 " error bar).\n";
    return 0;
}
