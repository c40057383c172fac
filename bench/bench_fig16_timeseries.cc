/**
 * @file
 * Fig. 16: time series of power broken down into each Piton supply
 * over the execution of gcc-166 (phase-modulated surrogate profile
 * through the monitor chain).
 */

#include <iostream>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "core/app_experiments.hh"
#include "telemetry/export.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace piton;
    std::string out_dir;
    CommandLine().text("--out", out_dir, "DIR").parse(argc, argv);
    bench::banner("Fig. 16", "Per-supply power time series (gcc-166)");

    core::PowerTimeSeriesExperiment exp;
    telemetry::TelemetryRecorder telem;
    const auto trace = exp.run(workloads::specProfile("gcc-166"), 2.0,
                               2000.0, &telem);

    // Print a decimated series (every 60 s) plus summary statistics.
    TextTable t({"Time (s)", "Core/VDD (mW)", "I/O/VIO (mW)",
                 "SRAM/VCS (mW)"});
    for (std::size_t i = 0; i < trace.size(); i += 30) {
        const auto &pt = trace[i];
        t.addRow({fmtF(pt.timeS, 0), fmtF(pt.coreMw, 1),
                  fmtF(pt.ioMw, 1), fmtF(pt.sramMw, 1)});
    }
    t.print(std::cout);

    RunningStats core_mw, io_mw, sram_mw;
    for (const auto &pt : trace) {
        core_mw.add(pt.coreMw);
        io_mw.add(pt.ioMw);
        sram_mw.add(pt.sramMw);
    }
    std::cout << "\nSummary over " << trace.size() << " samples:\n"
              << "  Core: mean " << fmtF(core_mw.mean(), 1) << " mW, range "
              << fmtF(core_mw.min(), 1) << ".." << fmtF(core_mw.max(), 1)
              << " (paper: ~1765-1790 mW)\n"
              << "  I/O:  mean " << fmtF(io_mw.mean(), 1) << " mW, range "
              << fmtF(io_mw.min(), 1) << ".." << fmtF(io_mw.max(), 1)
              << " (paper: ~0-600 mW bursts)\n"
              << "  SRAM: mean " << fmtF(sram_mw.mean(), 1) << " mW, range "
              << fmtF(sram_mw.min(), 1) << ".." << fmtF(sram_mw.max(), 1)
              << " (paper: ~268-280 mW)\n";
    if (!out_dir.empty()) {
        telemetry::exportTelemetry(out_dir, "fig16_timeseries", telem);
        std::cout << "\ntelemetry: " << out_dir
                  << "/fig16_timeseries.{csv,jsonl} ("
                  << telem.seriesCount() << " series)\n";
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return piton::bench::guardedMain(argc, argv, benchMain);
}
