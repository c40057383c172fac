/**
 * @file
 * Fig. 12: NoC energy per flit vs hop count for the four bit-switching
 * patterns (NSW/HSW/FSW/FSWA), via chipset-injected invalidation
 * packets and the EPF equation (7 valid flits per 47 cycles).
 */

#include <iostream>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "core/noc_experiment.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace piton;
    std::uint32_t samples = 64;
    CommandLine().count("--samples", samples, 1).parse(argc, argv);
    bench::banner("Fig. 12", "NoC energy per flit vs hop count");

    core::NocEnergyExperiment exp(sim::SystemOptions{}, samples);
    std::vector<core::EpfRow> rows = exp.runAll();

    TextTable t({"Hops", "NSW (pJ)", "HSW (pJ)", "FSW (pJ)", "FSWA (pJ)"});
    for (std::uint32_t h = 0; h <= 8; ++h) {
        std::array<std::string, 4> cells;
        for (const auto &r : rows) {
            if (r.hops == h)
                cells[static_cast<std::size_t>(r.pattern)] =
                    fmtPm(r.epfPj, r.errPj, 1);
        }
        t.addRow({std::to_string(h), cells[0], cells[1], cells[2],
                  cells[3]});
    }
    t.print(std::cout);

    std::cout << "\nTrendlines (pJ/hop):\n";
    TextTable tr({"Pattern", "Measured (pJ/hop)", "Paper (pJ/hop)", "r^2"});
    const char *paper[] = {"3.58", "11.16", "16.68", "16.98"};
    for (const auto &trend : core::NocEnergyExperiment::trends(rows)) {
        tr.addRow({core::switchPatternName(trend.pattern),
                   fmtF(trend.pjPerHop, 2),
                   paper[static_cast<std::size_t>(trend.pattern)],
                   fmtF(trend.r2, 3)});
    }
    tr.print(std::cout);

    std::cout << "\nInsight: an 8-hop full-chip flit costs about one add"
                 " instruction —\ncomputation, not on-chip data movement,"
                 " dominates chip power.\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return piton::bench::guardedMain(argc, argv, benchMain);
}
