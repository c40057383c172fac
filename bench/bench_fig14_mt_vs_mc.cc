/**
 * @file
 * Fig. 14: power and energy of multithreading (2 T/C) versus multicore
 * (1 T/C) at equal thread counts, split into active and active-cores-
 * idle components (Chip #3, fixed iteration counts).
 */

#include <iostream>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "core/scaling_experiments.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace piton;
    sim::SystemOptions opts;
    opts.sweepThreads = 0;
    CommandLine()
        .count("--threads", opts.sweepThreads, 0, maxWorkerThreads())
        .parse(argc, argv);
    bench::banner("Fig. 14", "Multithreading vs multicore power/energy");

    const core::MtVsMcExperiment exp(opts,
                                     /*iterations=*/12000,
                                     /*hist_elements=*/4096,
                                     /*hist_outer_iters=*/3);

    // runAll order: bench-major {Int, HP, Hist}, then T/C {1, 2}, then
    // thread counts 2..24 step 2 (12 points per config).
    const auto points = exp.runAll();
    constexpr std::size_t kThreadPoints = 12;

    std::size_t bench_idx = 0;
    for (const auto bench :
         {workloads::Microbench::Int, workloads::Microbench::HP,
          workloads::Microbench::Hist}) {
        std::cout << workloads::microbenchName(bench) << ":\n";
        TextTable t({"Threads", "Config", "Active P (W)", "Idle P (W)",
                     "Total P (W)", "Time (ms)", "Active E (mJ)",
                     "Idle E (mJ)", "Total E (mJ)"});
        for (std::uint32_t threads = 2; threads <= 24; threads += 2) {
            for (const std::uint32_t tpc : {1u, 2u}) {
                const core::MtMcPoint &p =
                    points[bench_idx * 2 * kThreadPoints
                           + (tpc - 1) * kThreadPoints + (threads / 2 - 1)];
                t.addRow({std::to_string(threads),
                          tpc == 1 ? "1 T/C (MC)" : "2 T/C (MT)",
                          fmtF(p.activePowerW, 3),
                          fmtF(p.activeCoresIdleW, 3),
                          fmtF(p.totalPowerW(), 3),
                          fmtF(p.executionSeconds * 1e3, 3),
                          fmtF(p.activeEnergyJ * 1e3, 3),
                          fmtF(p.activeCoresIdleEnergyJ * 1e3, 3),
                          fmtF(p.totalEnergyJ() * 1e3, 3)});
            }
        }
        t.print(std::cout);
        std::cout << '\n';
        ++bench_idx;
    }

    std::cout << "Shape checks (paper): for Int and HP, multithreading"
                 " consumes less power but\nmore energy than multicore"
                 " (execution-time ratio near 2, similar active power);\n"
                 "for Hist the memory/compute overlap makes"
                 " multithreading more energy efficient.\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return piton::bench::guardedMain(argc, argv, benchMain);
}
