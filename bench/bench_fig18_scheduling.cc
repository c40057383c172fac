/**
 * @file
 * Fig. 18: power and temperature under synchronized vs interleaved
 * scheduling of the two-phase test application on all 50 threads —
 * time series, hysteresis, and the average-temperature difference.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "core/thermal_experiments.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace piton;
    std::uint32_t samples = 24;
    CommandLine().count("--samples", samples, 1).parse(argc, argv);
    bench::banner("Fig. 18", "Synchronized vs interleaved scheduling");

    const core::SchedulingExperiment exp(core::thermalStudyOptions(),
                                         samples);
    std::cout << "Phase powers (dynamic component):\n"
              << "  compute phase: "
              << fmtF(wToMw(exp.computePhasePowerW()), 0) << " mW\n"
              << "  idle (nop) phase: "
              << fmtF(wToMw(exp.idlePhasePowerW()), 0) << " mW\n\n";

    const auto sync =
        exp.run(core::Schedule::Synchronized, 10.0, 400.0, 0.5);
    const auto inter =
        exp.run(core::Schedule::Interleaved, 10.0, 400.0, 0.5);

    // Decimated time series (one row per 20 s) for both schedules.
    TextTable t({"Time (s)", "Sync P (mW)", "Sync T (C)",
                 "Inter P (mW)", "Inter T (C)"});
    for (std::size_t i = 0; i < sync.trace.size(); i += 40) {
        t.addRow({fmtF(sync.trace[i].timeS, 0),
                  fmtF(wToMw(sync.trace[i].powerW), 0),
                  fmtF(sync.trace[i].packageTempC, 2),
                  fmtF(wToMw(inter.trace[i].powerW), 0),
                  fmtF(inter.trace[i].packageTempC, 2)});
    }
    t.print(std::cout);

    TextTable s({"Schedule", "Avg P (mW)", "Avg pkg T (C)",
                 "Temp swing (C)"});
    for (const auto *r : {&sync, &inter}) {
        s.addRow({core::scheduleName(r->schedule),
                  fmtF(wToMw(r->avgPowerW), 1),
                  fmtF(r->avgPackageTempC, 3), fmtF(r->tempSwingC, 3)});
    }
    std::cout << '\n';
    s.print(std::cout);

    std::cout << "\nAverage package temperature difference"
                 " (sync - interleaved): "
              << fmtF(sync.avgPackageTempC - inter.avgPackageTempC, 3)
              << " C (paper: 0.22 C).\nSynchronized scheduling traces a"
                 " much wider power/temperature hysteresis\nloop;"
                 " interleaving limits peak power and lowers average"
                 " temperature.\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return piton::bench::guardedMain(argc, argv, benchMain);
}
