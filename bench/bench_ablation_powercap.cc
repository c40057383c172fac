/**
 * @file
 * Extension: power capping on Piton — the data-center knob the paper's
 * introduction motivates (power as a first-class citizen in TCO) and
 * Section IV-J's scheduling discussion touches.  Two answers to a cap:
 * (a) static — the Fig. 13 characterization inverted into the largest
 * HP configuration under the cap; (b) closed loop — the pidcap governor
 * (DESIGN.md §13) holding the cap on a running, fully loaded chip.
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "core/power_cap.hh"
#include "governor/scenario.hh"
#include "telemetry/export.hh"
#include "telemetry/schema.hh"

namespace
{

/** Full HP demand (25 tiles x 2 T/C) under a 3.0 W budget: a settle
 *  phase while the controller converges, then a hold phase whose mean
 *  power is the held power. */
constexpr const char *kCapScenario = R"(
name             = powercap
workload         = hp
tiles            = 25
threads_per_core = 2
governor         = pidcap
epoch_windows    = 2
cap_w            = 3.0
phases           = 2
phase0.cycles    = 120000
phase1.cycles    = 240000
)";

/** Rows of the printed governor trace (every k-th epoch). */
constexpr std::size_t kTraceRows = 12;

} // namespace

int
main(int argc, char **argv)
{
    using namespace piton;
    std::uint32_t samples = 16;
    std::string out_dir;
    CommandLine()
        .count("--samples", samples, 1)
        .text("--out", out_dir, "DIR")
        .parse(argc, argv);
    bench::banner("Extension", "Power capping from the characterization");

    core::PowerCapExperiment exp(sim::SystemOptions{}, samples);

    std::cout << "Static capping (HP, 2 T/C):\n";
    TextTable t({"Cap (W)", "Max cores", "Power (W)", "Headroom (mW)"});
    for (const double cap : {2.2, 2.6, 3.0, 3.4, 3.8, 4.2}) {
        const auto r = exp.maxCoresUnderCap(cap);
        t.addRow({fmtF(cap, 1), std::to_string(r.maxCores),
                  fmtF(r.powerAtMaxW, 3), fmtF(wToMw(r.headroomW), 0)});
    }
    t.print(std::cout);

    const governor::Scenario sc = governor::Scenario::fromText(kCapScenario);
    std::cout << "\npidcap governor at a " << fmtF(sc.gov.capW, 1)
              << " W cap (full HP demand on " << sc.tiles << " tiles x "
              << sc.threadsPerCore << " T/C):\n";
    sim::SystemOptions opts;
    opts.chipId = 3; // the chip the static half characterizes
    sim::System sys(opts);
    telemetry::TelemetryRecorder rec;
    sys.attachTelemetry(&rec);
    const governor::ScenarioResult r = governor::runScenario(sys, sc);

    namespace ts = telemetry::schema;
    const auto series = [&](const char *name) {
        return rec.find(name)->snapshot();
    };
    const std::vector<telemetry::SamplePoint> freq =
        series(ts::kGovernorFreqMhz);
    const std::vector<telemetry::SamplePoint> vdd = series(ts::kGovernorVddV);
    const std::vector<telemetry::SamplePoint> power =
        series(ts::kGovernorPowerW);
    const std::vector<telemetry::SamplePoint> cap = series(ts::kGovernorCapW);
    TextTable g({"t (ms)", "Freq (MHz)", "VDD (V)", "Power (W)", "Cap (W)"});
    const std::size_t stride =
        std::max<std::size_t>(1, freq.size() / kTraceRows);
    for (std::size_t i = 0; i < freq.size(); i += stride)
        g.addRow({fmtF(freq[i].tS * 1e3, 3), fmtF(freq[i].value, 1),
                  fmtF(vdd[i].value, 3), fmtF(power[i].value, 3),
                  fmtF(cap[i].value, 1)});
    g.print(std::cout);

    const double held = r.phases.back().avgPowerW;
    std::cout << "\nheld power over the hold phase: " << fmtF(held, 3)
              << " W (cap " << fmtF(sc.gov.capW, 1) << " W, error "
              << fmtF(wToMw(held - sc.gov.capW), 0) << " mW) after a "
              << fmtF(r.phases.front().endTimeS * 1e3, 3)
              << " ms settle phase; the static answer at this cap is "
              << exp.maxCoresUnderCap(sc.gov.capW).maxCores
              << " cores.\n";
    if (!out_dir.empty()) {
        telemetry::exportTelemetry(out_dir, "powercap", rec);
        std::cout << "\ntelemetry: " << out_dir
                  << "/powercap.{csv,jsonl} (" << rec.seriesCount()
                  << " series)\n";
    }
    return 0;
}
