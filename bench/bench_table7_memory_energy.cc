/**
 * @file
 * Table VII: memory system energy for different cache hit/miss
 * scenarios, measured end-to-end with the EPI methodology over
 * set-aliasing ldx loops.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "core/epi_experiment.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace piton;
    std::uint32_t samples = 128;
    sim::SystemOptions opts;
    opts.sweepThreads = 0;
    CommandLine()
        .count("--samples", samples, 1)
        .count("--threads", opts.sweepThreads, 0, maxWorkerThreads())
        .parse(argc, argv);
    bench::banner("Table VII", "Memory system energy (ldx scenarios)");

    core::MemoryEnergyExperiment exp(opts, samples);
    const auto rows = exp.runAll();

    const char *paper[] = {"0.28646±0.00089", "1.54±0.25", "1.87±0.32",
                           "1.97±0.39", "308.7±3.3"};
    TextTable t({"Cache Hit/Miss Scenario", "Latency (cycles)",
                 "Mean LDX Energy (nJ)", "Paper (nJ)"});
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto &r = rows[i];
        t.addRow({workloads::memoryScenarioName(r.scenario),
                  std::to_string(r.latency),
                  fmtPm(r.energyNj, r.errNj, 3), paper[i]});
    }
    t.print(std::cout);

    std::cout << "\nInsights reproduced:\n"
              << " - local vs remote L2 difference is small (low NoC"
                 " energy);\n"
              << " - an L2 miss costs two orders of magnitude more than"
                 " any hit\n   (recompute rather than reload).\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return piton::bench::guardedMain(argc, argv, benchMain);
}
