/**
 * @file
 * Table II: experimental system frequencies.
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
    bench::banner("Table II", "Experimental system frequencies");

    const config::SystemFrequencies f;
    TextTable t({"Interface", "Frequency"});
    t.addRow({"Gateway FPGA <-> Piton",
              fmtF(f.gatewayToPitonMhz, 0) + " MHz"});
    t.addRow({"Gateway FPGA <-> FMC <-> Chipset FPGA",
              fmtF(f.gatewayToChipsetMhz, 0) + " MHz"});
    t.addRow({"Chipset FPGA Logic", fmtF(f.chipsetLogicMhz, 0) + " MHz"});
    t.addRow({"DRAM DDR3 PHY",
              fmtF(f.dramPhyMhz, 0) + " MHz (1600 MT/s)"});
    t.addRow({"DDR3 DRAM Controller",
              fmtF(f.dramControllerMhz, 0) + " MHz"});
    t.addRow({"SD Card SPI", fmtF(f.sdCardSpiMhz, 0) + " MHz"});
    t.addRow({"UART Serial Port", fmtF(f.uartBps, 0) + " bps"});
    t.print(std::cout);
    return 0;
}

int
main(int argc, char **argv)
{
    return piton::bench::guardedMain(argc, argv, benchMain);
}
