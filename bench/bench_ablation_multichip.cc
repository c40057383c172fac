/**
 * @file
 * Extension: the multi-socket memory-energy ladder.  Piton's NoCs and
 * coherence extend off-chip for inter-chip shared memory (Section II);
 * this bench extends Table VII's ladder with the cross-socket rungs a
 * multi-socket characterization would add, and shows how the average
 * shared-memory access cost grows with socket count under line
 * interleaving.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "multichip/multichip.hh"

int
main(int argc, char **argv)
{
    using namespace piton;
    CommandLine().parse(argc, argv);
    bench::banner("Extension", "Multi-socket shared-memory ladder");

    // The extended ladder on a 2-socket system.
    {
        multichip::MultiChipSystem sys(2);
        // Warm a remote-homed line at its home socket.
        const Addr remote_line = 0x40;
        sys.localLoad(1, 0, remote_line, 1);
        const auto warm_cross = sys.crossChipLoad(0, 12, remote_line, 100);
        const auto cold_cross = sys.crossChipLoad(0, 12, 0x9000040, 200);

        TextTable t({"Scenario", "Latency (cycles)", "Latency (ns)"});
        t.addRow({"L1 hit (Table VII)", "3", fmtF(3 / 0.50005, 0)});
        t.addRow({"Local L2 hit (Table VII)", "34",
                  fmtF(34 / 0.50005, 0)});
        t.addRow({"Remote L2 hit, 8 hops (Table VII)", "52",
                  fmtF(52 / 0.50005, 0)});
        t.addRow({"Local L2 miss / DRAM (Table VII)", "~424",
                  fmtF(424 / 0.50005, 0)});
        t.addRow({"Remote-chip L2 hit (extension)",
                  std::to_string(warm_cross.latency),
                  fmtF(warm_cross.latency / 0.50005, 0)});
        t.addRow({"Remote-chip L2 miss (extension)",
                  std::to_string(cold_cross.latency),
                  fmtF(cold_cross.latency / 0.50005, 0)});
        t.print(std::cout);
    }

    // Average warm shared-access latency vs socket count.
    std::cout << "\nLine-interleaved shared array, warm, accessed from "
                 "socket 0 tile 12:\n";
    TextTable s({"Sockets", "Avg latency (cycles)", "Fabric crossings",
                 "Cross-socket fraction"});
    for (const std::uint32_t sockets : {1u, 2u, 4u, 8u}) {
        multichip::MultiChipSystem sys(sockets);
        // Warm 64 lines at their homes.
        for (Addr a = 0; a < 64 * 64; a += 64)
            sys.localLoad(sys.homeSocket(a), 0, a, 1);
        RunningStats lat;
        Cycle now = 1000;
        for (Addr a = 0; a < 64 * 64; a += 64) {
            const auto out = sys.crossChipLoad(0, 12, a, now);
            now += out.latency;
            lat.add(out.latency);
        }
        s.addRow({std::to_string(sockets), fmtF(lat.mean(), 1),
                  std::to_string(sys.fabricCrossings()),
                  fmtF(100.0 * (sockets - 1) / sockets, 0) + "%"});
    }
    s.print(std::cout);

    std::cout << "\nCross-socket rungs sit between an on-chip remote L2"
                 " hit and a DRAM miss:\nthe coherence fabric keeps"
                 " shared data on-package cheaper than memory, the\n"
                 "scaling argument behind Piton's multi-socket design"
                 " (and CDR's role in\nbounding its directory state).\n";
    return 0;
}
