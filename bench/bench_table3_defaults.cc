/**
 * @file
 * Table III: default Piton measurement parameters.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "config/piton_params.hh"

int
main(int argc, char **argv)
{
    using namespace piton;
    CommandLine().parse(argc, argv);
    bench::banner("Table III", "Default Piton measurement parameters");

    const config::MeasurementDefaults d;
    TextTable t({"Parameter", "Value"});
    t.addRow({"Core Voltage (VDD)", fmtF(d.vddV, 2) + "V"});
    t.addRow({"SRAM Voltage (VCS)", fmtF(d.vcsV, 2) + "V"});
    t.addRow({"I/O Voltage (VIO)", fmtF(d.vioV, 2) + "V"});
    t.addRow({"Core Clock Frequency", fmtF(d.coreClockMhz, 2) + "MHz"});
    t.print(std::cout);

    std::cout << "\nMeasurement protocol: " << d.monitorSamples
              << " monitor samples at ~" << fmtF(d.monitorPollHz, 0)
              << " Hz after steady state; errors are sample standard"
                 " deviations.\n";
    return 0;
}
