/**
 * @file
 * Fig. 10: static and idle power, averaged across three chips, at each
 * (VDD, f) pair of the study — f is the minimum of the three chips'
 * maximum frequencies at that voltage.  Split into core (VDD) and SRAM
 * (VCS), static and dynamic — the four stacked components of the
 * figure.
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
    std::uint32_t samples = 48;
    sim::SystemOptions opts;
    opts.sweepThreads = 0;
    CommandLine()
        .count("--samples", samples, 1)
        .count("--threads", opts.sweepThreads, 0, maxWorkerThreads())
        .parse(argc, argv);
    bench::banner("Fig. 10", "Static and idle power vs voltage/frequency");

    const core::StaticIdleExperiment exp(opts, samples);
    TextTable t({"VDD (V)", "f (MHz)", "Core Static (W)", "SRAM Static (W)",
                 "Core Dynamic (W)", "SRAM Dynamic (W)", "Total Idle (W)"});
    for (const auto &row : exp.runAll()) {
        t.addRow({fmtF(row.vddV, 2), fmtF(row.freqMhz, 2),
                  fmtF(row.coreStaticW, 3), fmtF(row.sramStaticW, 3),
                  fmtF(row.coreDynamicW, 3), fmtF(row.sramDynamicW, 3),
                  fmtF(row.totalIdleW(), 3)});
    }
    t.print(std::cout);

    std::cout << "\nPaper: power follows an exponential-looking"
                 " relationship with voltage and\nfrequency; ~2.0 W idle"
                 " at (1.0 V, 514 MHz) rising to ~6-7 W at 1.2 V;\nthe"
                 " frequency at 1.2 V drops below the 1.15 V point"
                 " (thermal limit).\n";
    return 0;
}
