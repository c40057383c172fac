/**
 * @file
 * Table IX: SPECint 2006 performance, power, and energy — the
 * UltraSPARC T1 baseline versus the Piton system, via the analytic
 * CPI/power model over the surrogate workload profiles.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "core/app_experiments.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace piton;
    CommandLine().parse(argc, argv);
    bench::banner("Table IX", "SPECint 2006 performance, power, energy");

    const perfmodel::SpecModel model = core::makePaperSpecModel();
    // Paper's reported values for side-by-side comparison.
    struct PaperRow
    {
        const char *name;
        double pitonMin, slowdown, powerW, energyKj;
    };
    const PaperRow paper[] = {
        {"bzip2-chicken", 57.36, 4.89, 2.199, 7.566},
        {"bzip2-source", 129.02, 5.46, 2.119, 16.404},
        {"gcc-166", 38.28, 6.70, 2.094, 4.809},
        {"gcc-200", 70.67, 7.67, 2.156, 9.139},
        {"gobmk-13x13", 77.51, 4.65, 2.127, 9.889},
        {"h264ref-foreman-baseline", 71.08, 3.12, 2.149, 9.162},
        {"hmmer-nph3", 164.94, 3.41, 2.400, 23.750},
        {"libquantum", 1175.70, 5.83, 2.287, 161.363},
        {"omnetpp", 727.04, 9.97, 2.096, 91.431},
        {"perlbench-checkspam", 92.56, 8.00, 2.137, 11.863},
        {"perlbench-diffmail", 184.37, 7.97, 2.141, 22.320},
        {"sjeng", 569.22, 4.66, 2.080, 71.043},
        {"xalancbmk", 730.03, 7.09, 2.148, 94.077},
    };

    TextTable t({"Benchmark/Input", "T1 (min)", "Piton (min)",
                 "[paper]", "Slowdown", "[paper]", "Avg Power (W)",
                 "[paper]", "Energy (kJ)", "[paper]"});
    const auto results = model.evaluateAll();
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        const auto &p = paper[i];
        t.addRow({r.name, fmtF(r.t1Minutes, 2), fmtF(r.pitonMinutes, 2),
                  fmtF(p.pitonMin, 2), fmtF(r.slowdown, 2),
                  fmtF(p.slowdown, 2), fmtF(r.pitonAvgPowerW, 3),
                  fmtF(p.powerW, 3), fmtF(r.pitonEnergyKj, 3),
                  fmtF(p.energyKj, 3)});
    }
    t.print(std::cout);

    std::cout << "\nShape checks: omnetpp is the worst slowdown, h264ref"
                 " the best; hmmer and\nlibquantum draw the most power"
                 " (high I/O activity); energy tracks runtime.\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return piton::bench::guardedMain(argc, argv, benchMain);
}
