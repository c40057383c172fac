/**
 * @file
 * Fig. 11: energy per instruction for the sixteen instruction variants
 * with minimum, random, and maximum operand values — the full EPI
 * study run end-to-end (assembly tests on 25 cores, idle subtraction,
 * the EPI equation of Section IV-E, stx(NF) nop correction).
 */

#include <iostream>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "core/epi_experiment.hh"

int
main(int argc, char **argv)
{
    using namespace piton;
    std::uint32_t samples = 64;
    sim::SystemOptions opts;
    opts.sweepThreads = 0;
    CommandLine()
        .count("--samples", samples, 1)
        .count("--threads", opts.sweepThreads, 0, maxWorkerThreads())
        .parse(argc, argv);
    bench::banner("Fig. 11", "Energy per instruction (EPI)");

    core::EpiExperiment exp(opts, samples);
    std::cout << "Idle power (subtracted): "
              << fmtF(wToMw(exp.idlePowerW()), 1) << " mW\n\n";

    // runAll fans one (variant, pattern) task per worker thread; rows
    // come back in variant order, min/random/max for operand variants.
    const auto rows = exp.runAll();
    std::size_t r = 0;
    TextTable t({"Instruction", "Latency", "EPI min (pJ)",
                 "EPI random (pJ)", "EPI max (pJ)", "±err (pJ)"});
    for (const auto &v : workloads::epiVariants()) {
        std::string min_s = "-", max_s = "-";
        core::EpiRow rnd;
        if (v.hasOperands) {
            min_s = fmtF(rows[r++].epiPj, 0);
            rnd = rows[r++];
            max_s = fmtF(rows[r++].epiPj, 0);
        } else {
            rnd = rows[r++];
        }
        t.addRow({v.label, std::to_string(v.latency), min_s,
                  fmtF(rnd.epiPj, 0), max_s, fmtF(rnd.errPj, 1)});
    }
    t.print(std::cout);

    std::cout << "\nAnchors from the paper: add(random) ~ 1/3 of an"
                 " L1-hit ldx (286 pJ);\nsdivx and fdivd near 1 nJ;"
                 " operand values shift EPI significantly;\nstx(F)"
                 " carries rollback energy above stx(NF).\n";
    return 0;
}
