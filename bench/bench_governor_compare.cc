/**
 * @file
 * Extension: closed-loop governor comparison (DESIGN.md §13).
 *
 * Runs the same phased power-management scenario under each DVFS
 * policy and compares the energy/EPI/thermal trajectories — the
 * Fig. 16/17-style experiments with the control loop closed.  The
 * built-in scenario is a Fig. 16-flavoured cap schedule over the HP
 * microbenchmark (the paper's highest-power application) with a phase
 * change to Int; --scenario FILE substitutes any scenario kv-file
 * (its governor key is overridden per compared policy), --governor
 * NAME restricts the comparison to one policy, and --out DIR exports
 * the full telemetry (window schema + governor.* epoch series) per
 * policy.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "governor/scenario.hh"
#include "sim/system.hh"
#include "telemetry/export.hh"

namespace
{

/** Fig. 16-flavoured built-in: HP under a stepped watt budget, then a
 *  phase change to the Int kernel under a tighter cap. */
const char *const kBuiltinScenario = R"(
name             = cap_schedule
workload         = hp
tiles            = 25
threads_per_core = 2
iterations       = 0
epoch_windows    = 2
cap_w            = 3.0
phases           = 3
phase0.cycles    = 120000
phase1.cycles    = 120000
phase1.cap_w     = 1.5
phase2.cycles    = 120000
phase2.cap_w     = 2.2
phase2.workload  = int
)";

} // namespace

static int
benchMain(int argc, char **argv)
{
    using namespace piton;
    std::string policy, scenario, out_dir;
    CommandLine()
        .choice("--governor", policy, governor::governorPolicyNames())
        .text("--scenario", scenario, "FILE")
        .text("--out", out_dir, "DIR")
        .parse(argc, argv);
    bench::banner("Extension", "Closed-loop DVFS governor comparison");

    const governor::Scenario base =
        scenario.empty()
            ? governor::Scenario::fromText(kBuiltinScenario, "<builtin>")
            : governor::Scenario::fromFile(scenario);

    const std::vector<std::string> policies =
        policy.empty() ? governor::governorPolicyNames()
                       : std::vector<std::string>{policy};

    std::cout << "scenario '" << base.name << "': " << base.workload
              << " on " << base.tiles << " tiles x "
              << base.threadsPerCore << " T/C, "
              << base.phases.size() << " phases\n\n";

    TextTable t({"Governor", "Cycles", "Time (ms)", "Energy (mJ)",
                 "EPI (nJ)", "Avg power (W)", "Die (C)"});
    for (const std::string &policy : policies) {
        governor::Scenario sc = base;
        sc.gov.policy = policy;
        if (policy == "pidcap" && sc.gov.capW <= 0.0)
            sc.gov.capW = 2.5;

        sim::System sys;
        telemetry::TelemetryRecorder rec;
        sys.attachTelemetry(&rec);
        const governor::ScenarioResult r = governor::runScenario(sys, sc);

        t.addRow({r.policy, std::to_string(r.cycles),
                  fmtF(r.seconds * 1e3, 3), fmtF(r.energyJ * 1e3, 3),
                  fmtF(r.epi * 1e9, 3), fmtF(r.avgPowerW, 3),
                  fmtF(r.finalDieTempC, 2)});

        if (!out_dir.empty()) {
            const std::string name = "governor_compare_" + r.policy;
            telemetry::exportTelemetry(out_dir, name, rec);
            std::cout << "telemetry: " << out_dir << "/" << name
                      << ".{csv,jsonl} (" << rec.seriesCount()
                      << " series)\n";
        }
    }
    if (!out_dir.empty())
        std::cout << "\n";
    t.print(std::cout);

    std::cout
        << "\nEach policy sees the identical scenario; differences are"
           " pure control-loop\nbehaviour.  pidcap tracks the phase cap"
           " schedule, ondemand rides utilization,\ntheas throttles"
           " memory-bound tiles and gates idle ones, none is the"
           " static\nbaseline table.  Deterministic: bit-identical under"
           " either engine.\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return piton::bench::guardedMain(argc, argv, benchMain);
}
