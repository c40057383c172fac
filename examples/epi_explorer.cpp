/**
 * @file
 * EPI explorer: measure the energy per instruction of any supported
 * instruction variant at any operand pattern — the paper's open-data
 * use case of building power models from the characterization.
 *
 * Usage:
 *   epi_explorer [variant] [min|random|max] [--samples N]
 *   epi_explorer --list
 *
 * Example:
 *   ./build/examples/epi_explorer sdivx max
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "core/epi_experiment.hh"

int
main(int argc, char **argv)
{
    using namespace piton;

    std::vector<std::string> labels;
    for (const auto &v : workloads::epiVariants())
        labels.push_back(v.label);
    std::string variant = "add", pattern_name = "random";
    std::uint32_t samples = 64;
    bool list = false;
    CommandLine()
        .choice("variant", variant, labels)
        .choice("pattern", pattern_name, {"min", "random", "max"})
        .count("--samples", samples, 1)
        .flag("--list", list)
        .parse(argc, argv);
    if (list) {
        std::printf("supported variants:\n");
        for (const auto &v : workloads::epiVariants())
            std::printf("  %-10s latency %2u cycles%s\n", v.label.c_str(),
                        v.latency,
                        v.hasOperands ? "" : " (no operand patterns)");
        return 0;
    }
    workloads::OperandPattern pattern = workloads::OperandPattern::Random;
    for (const auto p : {workloads::OperandPattern::Minimum,
                         workloads::OperandPattern::Maximum})
        if (pattern_name == workloads::operandPatternName(p))
            pattern = p;

    const workloads::EpiVariant &v = workloads::epiVariant(variant);
    core::EpiExperiment exp(sim::SystemOptions{}, samples);

    std::printf("measuring EPI of '%s' with %s operands "
                "(latency %u cycles, %u samples)...\n",
                v.label.c_str(), workloads::operandPatternName(pattern),
                v.latency, samples);
    const core::EpiRow row = exp.measure(v, pattern);
    std::printf("EPI = %.1f ± %.1f pJ\n", row.epiPj, row.errPj);

    // Context: the recompute-vs-load tradeoff from the paper.
    const core::EpiRow add =
        exp.measure(workloads::epiVariant("add"),
                    workloads::OperandPattern::Random);
    std::printf("for reference, add(random) = %.1f pJ -> '%s' costs "
                "%.1f adds\n",
                add.epiPj, v.label.c_str(), row.epiPj / add.epiPj);
    return 0;
}
