/**
 * @file
 * Fig. 8: detailed area breakdown of Piton at chip, tile, and core
 * levels (from the place-and-route database).
 */

#include <iostream>

#include "bench_util.hh"
#include "chip/area_model.hh"
#include "common/cli.hh"
#include "common/table.hh"

namespace
{

void
printLevel(const piton::chip::AreaLevel &level)
{
    using namespace piton;
    std::cout << level.name << " area: " << fmtF(level.totalMm2, 5)
              << " mm^2\n";
    TextTable t({"Block", "Percent", "Area (mm^2)"});
    for (const auto &b : level.blocks) {
        t.addRow({b.name, fmtF(b.percent, 2) + "%",
                  fmtF(level.totalMm2 * b.percent / 100.0, 4)});
    }
    t.addRow({"(sum)", fmtF(level.percentSum(), 2) + "%",
              fmtF(level.totalMm2 * level.percentSum() / 100.0, 4)});
    t.print(std::cout);
    std::cout << '\n';
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace piton;
    CommandLine().parse(argc, argv);
    bench::banner("Fig. 8", "Area breakdown at chip, tile, core levels");

    const chip::AreaModel m;
    printLevel(m.chip());
    printLevel(m.tile());
    printLevel(m.core());

    std::cout << "Context for the NoC-energy insight: the three NoC"
                 " routers are "
              << fmtF(100.0 * m.nocRouterTileFraction(), 2)
              << "% of the tile.\n";
    return 0;
}
