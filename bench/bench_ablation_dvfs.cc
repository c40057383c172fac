/**
 * @file
 * Extension: the energy-optimal operating point.  Combining Fig. 9
 * (fmax vs VDD) with Fig. 10 (power vs V/f) answers the question the
 * two figures exist to enable: for a fixed amount of work, which
 * operating point minimizes energy?  Low voltage wins on power but
 * stretches runtime over the leakage floor; high voltage races ahead
 * but pays V^2 — the classic DVFS bathtub.
 *
 * Every point runs through the governor subsystem (DESIGN.md §13): the
 * static table is simply the "none" policy pinned at that operating
 * point.  --governor then drops a closed-loop policy onto the same
 * fixed kernel from the nominal point, answering how close the policy
 * lands to the static-optimal energy without being told the table;
 * --scenario runs a scenario kv-file instead.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "core/vf_experiments.hh"
#include "governor/scenario.hh"
#include "isa/assembler.hh"
#include "sim/system.hh"

namespace
{

const char *const kKernelSrc = R"(
        set 0, %r1
    loop:
        add %r1, 1, %r1
        xor %r1, %r2, %r3
        and %r3, %r2, %r4
        or  %r4, %r1, %r5
        cmp %r1, 6000
        bl loop
        halt
    )";

/** The fixed work: the integer kernel on all 50 threads, governed. */
piton::sim::CompletionResult
runGoverned(piton::sim::SystemOptions opts, const piton::isa::Program &kernel,
            piton::governor::Governor &gov)
{
    using namespace piton;
    sim::System sys(opts);
    sys.attachGovernor(&gov);
    for (TileId tile = 0; tile < 25; ++tile) {
        sys.loadProgram(tile, 0, &kernel);
        sys.loadProgram(tile, 1, &kernel);
    }
    const sim::CompletionResult r = sys.runToCompletion(4'000'000'000ULL);
    sys.attachGovernor(nullptr);
    return r;
}

} // namespace

static int
benchMain(int argc, char **argv)
{
    using namespace piton;
    std::string policy, scenario;
    CommandLine()
        .choice("--governor", policy, governor::governorPolicyNames())
        .text("--scenario", scenario, "FILE")
        .parse(argc, argv);
    bench::banner("Extension", "Energy-optimal DVFS operating point");

    if (!scenario.empty()) {
        const governor::Scenario sc = governor::Scenario::fromFile(scenario);
        sim::System sys;
        const governor::ScenarioResult r = governor::runScenario(sys, sc);
        TextTable t({"Phase", "Cycles", "Time (ms)", "Energy (mJ)",
                     "Avg power (W)", "Die (C)"});
        for (std::size_t i = 0; i < r.phases.size(); ++i) {
            const governor::PhaseResult &ph = r.phases[i];
            t.addRow({std::to_string(i), std::to_string(ph.run.cycles),
                      fmtF(ph.run.seconds * 1e3, 3),
                      fmtF(ph.run.onChipEnergyJ * 1e3, 3),
                      fmtF(ph.avgPowerW, 3), fmtF(ph.dieTempC, 2)});
        }
        t.print(std::cout);
        std::cout << "\nscenario '" << r.name << "' under " << r.policy
                  << ": " << fmtF(r.energyJ * 1e3, 3) << " mJ over "
                  << fmtF(r.seconds * 1e3, 3) << " ms\n";
        return 0;
    }

    const isa::Program kernel = isa::assemble(kKernelSrc);
    const core::VfScalingExperiment vf;
    TextTable t({"VDD (V)", "f (MHz)", "Avg power (W)", "Time (ms)",
                 "Energy (mJ)"});
    double best_e = 1e9, best_v = 0.0;
    for (const double v : core::VfScalingExperiment::voltageGrid()) {
        // Run at Chip #2's maximum frequency for this voltage: one row
        // of the static V-f table, expressed as the "none" governor.
        const core::VfPoint p = vf.measure(2, v);
        sim::SystemOptions opts;
        opts.vddV = v;
        opts.vcsV = v + 0.05;
        opts.coreClockMhz = p.fmaxMhz;
        governor::GovernorParams gp;
        gp.policy = "none";
        const auto gov = governor::makeGovernor(gp);
        const sim::CompletionResult r = runGoverned(opts, kernel, *gov);
        if (!r.completed)
            continue;
        const double energy_mj = r.onChipEnergyJ * 1e3;
        t.addRow({fmtF(v, 2), fmtF(p.fmaxMhz, 1),
                  fmtF(r.onChipEnergyJ / r.seconds, 3),
                  fmtF(r.seconds * 1e3, 3), fmtF(energy_mj, 4)});
        if (energy_mj < best_e) {
            best_e = energy_mj;
            best_v = v;
        }
    }
    t.print(std::cout);

    std::cout << "\nenergy-optimal point: VDD = " << fmtF(best_v, 2)
              << " V (" << fmtF(best_e, 3)
              << " mJ for the fixed kernel)\n"
                 "For this fully-parallel kernel the V^2 dynamic term"
                 " dominates across the\nwhole operating range, so"
                 " energy falls monotonically toward the low-voltage\n"
                 "end — near-threshold operation wins until the"
                 " leakage-over-runtime floor\ntakes over below the"
                 " modelled range.  Quantifying that tradeoff is why\n"
                 "DVFS policies need exactly the Fig. 9 + Fig. 10"
                 " characterization.\n";

    if (!policy.empty() && policy != "none") {
        governor::GovernorParams gp;
        gp.policy = policy;
        if (gp.policy == "pidcap")
            gp.capW = 1.5; // mid-bathtub budget for the comparison
        const auto gov = governor::makeGovernor(gp);
        const sim::CompletionResult r =
            runGoverned(sim::SystemOptions{}, kernel, *gov);
        std::cout << "\nclosed-loop '" << gov->name()
                  << "' from the nominal point: "
                  << fmtF(r.onChipEnergyJ * 1e3, 3) << " mJ in "
                  << fmtF(r.seconds * 1e3, 3)
                  << " ms (static-optimal: " << fmtF(best_e, 3)
                  << " mJ at " << fmtF(best_v, 2) << " V)\n";
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return piton::bench::guardedMain(argc, argv, benchMain);
}
