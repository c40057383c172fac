/**
 * @file
 * Ablation: line-to-slice mapping (Section IV-F's software-configurable
 * low/mid/high address-bit selection) versus home-tile distribution and
 * average load latency for a shared-array workload.
 */

#include <array>
#include <iostream>

#include "arch/mem_system.hh"
#include "arch/memory.hh"
#include "bench_util.hh"
#include "common/cli.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "config/piton_params.hh"
#include "power/energy_model.hh"

int
main(int argc, char **argv)
{
    using namespace piton;
    CommandLine().parse(argc, argv);
    bench::banner("Ablation", "Line->slice mapping vs locality");

    TextTable t({"Mapping", "Distinct homes (4 MB array)",
                 "Avg hops (from tile 12)", "Avg warm load latency"});
    for (const auto mapping : {config::LineToSliceMapping::LowOrder,
                               config::LineToSliceMapping::MidOrder,
                               config::LineToSliceMapping::HighOrder}) {
        config::PitonParams params;
        power::EnergyModel energy;
        power::EnergyLedger ledger;
        arch::MainMemory memory;
        arch::MemorySystem mem(params, energy, ledger, memory);
        mem.setSliceMapping(mapping);

        // A 4 MB array accessed at 64 B granularity from center tile 12.
        std::array<bool, 25> seen{};
        RunningStats hops;
        for (Addr a = 0; a < 4 * 1024 * 1024; a += 4096) {
            const TileId home = mem.homeTile(a);
            seen[home] = true;
            hops.add(config::hopDistance(params, 12, home));
        }
        int homes = 0;
        for (const bool s : seen)
            homes += s;

        // Warm latency: one pass to fill, one pass measured (strided
        // past the private caches so the L2 placement dominates).
        RunningStats lat;
        Cycle now = 0;
        for (int pass = 0; pass < 2; ++pass) {
            for (Addr a = 0; a < 64 * 1024; a += 2048) {
                RegVal d;
                const auto out = mem.load(12, a, d, now);
                now += out.latency;
                if (pass == 1)
                    lat.add(out.latency);
            }
        }

        const char *name =
            mapping == config::LineToSliceMapping::LowOrder ? "low-order"
            : mapping == config::LineToSliceMapping::MidOrder
                ? "mid-order"
                : "high-order";
        t.addRow({name, std::to_string(homes), fmtF(hops.mean(), 2),
                  fmtF(lat.mean(), 1)});
    }
    t.print(std::cout);

    std::cout << "\nLow-order mapping stripes consecutive lines across"
                 " all 25 slices (max\nbandwidth, average ~4 hops);"
                 " high-order mapping places whole regions in one\n"
                 "slice — the knob the memory-energy study (Table VII)"
                 " uses to steer local\nvs remote L2 hits.\n";
    return 0;
}
