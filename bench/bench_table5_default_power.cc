/**
 * @file
 * Table V: default power parameters (Chip #2) — static power with all
 * inputs (including clocks) grounded, and idle power with clocks
 * running at 500.05 MHz, both measured through the board's monitor
 * chain with the 128-sample protocol.
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
    std::uint32_t samples = 128;
    CommandLine().count("--samples", samples, 1).parse(argc, argv);
    bench::banner("Table V", "Default power parameters (Chip #2)");

    const core::DefaultPowerResult r = core::measureDefaultPower(2, samples);
    TextTable t({"Parameter", "Measured", "Paper"});
    t.addRow({"Static Power @ Room Temperature",
              fmtPm(r.staticMw, r.staticErrMw, 1) + " mW",
              "389.3±1.5 mW"});
    t.addRow({"Idle Power @ 500.05MHz",
              fmtPm(r.idleMw, r.idleErrMw, 1) + " mW", "2015.3±1.5 mW"});
    t.print(std::cout);

    std::cout << "\nChip #3 (microbenchmark studies):\n";
    const core::DefaultPowerResult r3 = core::measureDefaultPower(3, samples);
    TextTable t3({"Parameter", "Measured", "Paper"});
    t3.addRow({"Static Power @ Room Temperature",
               fmtPm(r3.staticMw, r3.staticErrMw, 1) + " mW",
               "364.8±1.9 mW"});
    t3.addRow({"Idle Power @ 500.05MHz",
               fmtPm(r3.idleMw, r3.idleErrMw, 1) + " mW",
               "1906.2±2.0 mW"});
    t3.print(std::cout);
    return 0;
}
