/**
 * @file
 * Table VIII: Sun Fire T2000 and Piton system specifications.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "perfmodel/machine.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace piton;
    CommandLine().parse(argc, argv);
    bench::banner("Table VIII", "Sun Fire T2000 vs Piton system specs");

    const perfmodel::MachineParams t1 = perfmodel::sunFireT2000();
    const perfmodel::MachineParams pt = perfmodel::pitonSystem();

    TextTable t({"System Parameter", t1.name, pt.name});
    auto row = [&t](const std::string &k, const std::string &a,
                    const std::string &b) { t.addRow({k, a, b}); };
    row("Operating System", t1.operatingSystem, pt.operatingSystem);
    row("Kernel Version", t1.kernelVersion, pt.kernelVersion);
    row("Memory Device Type", t1.memoryDeviceType, pt.memoryDeviceType);
    row("Rated Memory Clock", fmtF(t1.ratedMemoryClockMhz, 2) + "MHz",
        fmtF(pt.ratedMemoryClockMhz, 0) + "MHz");
    row("Actual Memory Clock", fmtF(t1.actualMemoryClockMhz, 2) + "MHz",
        fmtF(pt.actualMemoryClockMhz, 0) + "MHz");
    row("Rated Memory Timings (cycles)", t1.ratedTimingsCycles,
        pt.ratedTimingsCycles);
    row("Rated Memory Timings (ns)", t1.ratedTimingsNs, pt.ratedTimingsNs);
    row("Actual Memory Timings (cycles)", t1.actualTimingsCycles,
        pt.actualTimingsCycles);
    row("Actual Memory Timings (ns)", t1.actualTimingsNs,
        pt.actualTimingsNs);
    row("Memory Data Width", "64bits + 8bits ECC", "32bits");
    row("Memory Size", t1.memorySize, pt.memorySize);
    row("Memory Access Latency (Average)",
        fmtF(t1.memoryLatencyNs, 0) + "ns",
        fmtF(pt.memoryLatencyNs, 0) + "ns");
    row("Persistent Storage Type", t1.persistentStorage,
        pt.persistentStorage);
    row("Processor", t1.processor, pt.processor);
    row("Processor Frequency", fmtF(t1.processorFreqMhz / 1000.0, 0) + "GHz",
        fmtF(pt.processorFreqMhz, 2) + "MHz");
    row("Processor Cores", std::to_string(t1.cores),
        std::to_string(pt.cores));
    row("Processor Threads Per Core", std::to_string(t1.threadsPerCore),
        std::to_string(pt.threadsPerCore));
    row("Processor L2 Cache Size", t1.l2CacheSize, pt.l2CacheSize);
    row("Processor L2 Cache Access Latency", t1.l2LatencyNsText,
        pt.l2LatencyNsText);
    t.print(std::cout);

    std::cout << "\nDerived: Piton memory latency = "
              << fmtF(pt.memLatencyCycles(), 0)
              << " core cycles (the ~424 cycles of Table VII / Fig. 15); "
              << fmtF(pt.memoryLatencyNs / t1.memoryLatencyNs, 1)
              << "x the T2000's.\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return piton::bench::guardedMain(argc, argv, benchMain);
}
