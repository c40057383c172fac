/**
 * @file
 * Ablation: how large would NoC power be under different link-energy
 * assumptions?  The paper's insight — NoC energy is a small fraction of
 * chip power, contradicting models that make it dominant — depends on
 * the tile pitch / link capacitance.  This bench scales the per-bit
 * link energy (a proxy for longer links / larger tiles) and reports
 * the NoC share of total chip power under a heavy all-to-tile traffic
 * pattern, plus the EPF slope at each scale.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "core/equations.hh"
#include "sim/system.hh"

int
main(int argc, char **argv)
{
    using namespace piton;
    CommandLine().parse(argc, argv);
    bench::banner("Ablation", "NoC link energy vs chip power share");

    TextTable t({"Link-energy scale", "FSW EPF slope (pJ/hop)",
                 "NoC power @ saturation (mW)", "Share of chip power"});
    for (const double scale : {0.5, 1.0, 2.0, 4.0, 8.0}) {
        sim::SystemOptions opts;
        opts.energyParams.nocLinkBitTogglePj *= scale;
        opts.energyParams.nocRouterFlitPj *= scale;
        sim::System sys(opts);

        // Saturate the chip-bridge injection path with full-switching
        // packets to the far corner (the worst case for link energy).
        const Cycle window = sys.options().cyclesPerSample;
        double noc_w = 0.0, total_w = 0.0;
        double before_noc = 0.0;
        for (int i = 0; i < 64; ++i) {
            for (Cycle k = 0; k < window / core::kNocPatternCycles; ++k) {
                std::vector<RegVal> payload(6);
                for (std::size_t f = 0; f < payload.size(); ++f)
                    payload[f] = (f % 2 == 0) ? ~RegVal{0} : 0;
                sys.pitonChip().memSystem().injectPacket(24, payload);
            }
            const double noc_now =
                sys.pitonChip()
                    .ledger()
                    .category(power::Category::Noc)
                    .onChipCoreAndSram();
            const auto p = sys.windowTruePowers(window);
            if (i >= 8) { // skip warmup
                noc_w += (sys.pitonChip()
                              .ledger()
                              .category(power::Category::Noc)
                              .onChipCoreAndSram()
                          - before_noc)
                         / (window / sys.coreClockHz()) / 56.0;
                total_w += (p[0] + p[1]) / 56.0;
            }
            before_noc = noc_now;
        }
        const double epf_slope =
            jToPj(sys.energyModel().nocHopEnergy(64).total());
        t.addRow({fmtF(scale, 1) + "x", fmtF(epf_slope, 1),
                  fmtF(wToMw(noc_w), 1),
                  fmtF(100.0 * noc_w / total_w, 2) + "%"});
    }
    t.print(std::cout);

    std::cout << "\nAt Piton's measured link energy (1x), even saturated"
                 " injection keeps the NoC\nat a few percent of chip"
                 " power — the paper's contradiction of NoC-dominant\n"
                 "power models.  Only with several-fold longer/heavier"
                 " links does the share\napproach the levels those"
                 " models assume.\n";
    return 0;
}
