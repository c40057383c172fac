/**
 * @file
 * Fig. 15: Piton system memory latency breakdown for a ldx from tile 0
 * — where the ~395 round-trip cycles (790 ns at 500.05 MHz) go, plus a
 * simulated end-to-end check against the Table VII average.
 */

#include <iostream>

#include "arch/chipset.hh"
#include "arch/mem_system.hh"
#include "arch/memory.hh"
#include "bench_util.hh"
#include "common/cli.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "config/piton_params.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace piton;
    CommandLine().parse(argc, argv);
    bench::banner("Fig. 15", "Memory latency breakdown (ldx from tile 0)");

    TextTable t({"Component", "Detail", "Cycles @ 500.05 MHz"});
    for (const auto &s : arch::Chipset::memoryLatencyStages())
        t.addRow({s.component, s.detail, std::to_string(s.coreCycles)});
    t.print(std::cout);

    const std::uint32_t total = arch::Chipset::nominalRoundTripCycles();
    std::cout << "\nTotal round trip: ~" << total << " cycles = ~"
              << fmtF(total / 500.05e6 * 1e9, 0) << " ns\n";

    // End-to-end check: measured average L2-miss latency through the
    // memory system (with controller jitter) vs Table VII's 424.
    config::PitonParams params;
    power::EnergyModel energy;
    power::EnergyLedger ledger;
    arch::MainMemory memory;
    arch::MemorySystem mem(params, energy, ledger, memory);
    RunningStats lat;
    Cycle now = 0;
    for (int i = 0; i < 4000; ++i) {
        RegVal data;
        // Fresh lines homed at tile 0 guarantee misses.
        const auto out = mem.load(
            0, static_cast<Addr>(i) * 409600, data, now);
        now += out.latency;
        lat.add(out.latency);
    }
    std::cout << "Simulated average L2-miss latency: "
              << fmtF(lat.mean(), 1) << " cycles (Table VII: 424)\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return piton::bench::guardedMain(argc, argv, benchMain);
}
