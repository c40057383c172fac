/**
 * @file
 * Ablation: measurement-infrastructure quality versus reported error
 * bars.  The paper's 128-sample / 17 Hz monitor protocol bounds every
 * error bar it reports; this bench sweeps sample count and monitor
 * noise and shows how the reported mean and standard deviation of the
 * idle-power measurement respond — the experiment-design view of
 * Section III-A.
 */

#include <cmath>
#include <iostream>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "sim/system.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace piton;
    CommandLine().parse(argc, argv);
    bench::banner("Ablation", "Monitor samples/noise vs error bars");

    std::cout << "Sample-count sweep (paper protocol: 128):\n";
    TextTable t({"Samples", "Idle mean (mW)", "Stddev (mW)",
                 "Std error of mean (mW)"});
    for (const std::uint32_t samples : {8u, 16u, 32u, 64u, 128u, 256u}) {
        sim::System sys;
        const auto m = sys.measure(samples);
        t.addRow({std::to_string(samples), fmtF(wToMw(m.onChipMeanW()), 1),
                  fmtF(wToMw(m.onChipStddevW()), 2),
                  fmtF(wToMw(m.onChipStddevW())
                           / std::sqrt(static_cast<double>(samples)),
                       3)});
    }
    t.print(std::cout);

    std::cout << "\nMonitor current-noise sweep (default 1.4 mA):\n";
    TextTable n({"Noise (mA)", "Idle mean (mW)", "Stddev (mW)"});
    for (const double noise_ma : {0.2, 0.7, 1.4, 2.8, 5.6}) {
        sim::System sys;
        sys.testBoard().monitor().currentNoiseA = noise_ma * 1e-3;
        const auto m = sys.measure(128);
        n.addRow({fmtF(noise_ma, 1), fmtF(wToMw(m.onChipMeanW()), 1),
                  fmtF(wToMw(m.onChipStddevW()), 2)});
    }
    n.print(std::cout);

    std::cout << "\nThe mean stays unbiased as samples shrink or noise"
                 " grows, but the error\nbars widen: the NoC EPF study"
                 " (Fig. 12), whose signal is a few mW, is\nexactly the"
                 " experiment that needed the full protocol.\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return piton::bench::guardedMain(argc, argv, benchMain);
}
