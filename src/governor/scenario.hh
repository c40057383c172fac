/**
 * @file
 * Power-management scenario engine (DESIGN.md §13).
 *
 * A scenario is a small kv-file (src/config/kv_file.hh) describing a
 * governed experiment: which policy with which tuning, which workload
 * mix on how many tiles, and a sequence of phases — each a fixed span
 * of chip cycles that may retune the watt budget (cap schedules) and/or
 * swap the workload (phase changes).  The runner drives a sim::System
 * through the phases and reports per-phase energy/EPI/thermal numbers,
 * so the same file reproduces the Fig. 16/17-style studies under any
 * governor.
 *
 * Schema (keys are lowercased; '#'/';' start comments):
 *
 *   name            = fig16_cap     # optional label
 *   workload        = hp            # int | hp | hist
 *   tiles           = 25            # active tiles, placed by the policy
 *   threads_per_core = 2            # 1 | 2
 *   iterations      = 0             # 0 = infinite (phase-bounded)
 *   hist_elements   = 4096          # Hist total work
 *   cycles          = 250000        # default phase length (chip cycles)
 *
 *   governor        = pidcap        # none|ondemand|pidcap|theas
 *   epoch_windows   = 4             # + the governor.* tuning keys
 *   cap_w           = 2.5           # (see governorParamsFromKv)
 *
 *   phases          = 2
 *   phase0.cycles   = 250000        # overrides `cycles`
 *   phase0.cap_w    = 3.0           # optional cap-schedule point
 *   phase1.workload = int           # optional workload swap
 *
 * Unknown keys are an error (config::KvError), so typos never silently
 * change an experiment.
 */

#ifndef PITON_GOVERNOR_SCENARIO_HH
#define PITON_GOVERNOR_SCENARIO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "governor/governor.hh"
#include "sim/system.hh"
#include "workloads/microbenchmarks.hh"

namespace piton::governor
{

/** One phase of a scenario (a fixed span of chip cycles). */
struct ScenarioPhase
{
    /** Phase length in chip cycles (> 0). */
    std::uint64_t cycles = 0;
    /** New watt budget at phase entry; <= 0 keeps the current cap. */
    double capW = 0.0;
    /** Workload swap at phase entry; empty keeps the running one. */
    std::string workload;
};

/** A parsed scenario file (see the schema above). */
struct Scenario
{
    std::string name = "scenario";
    GovernorParams gov;
    std::string workload = "int";
    std::uint32_t tiles = 25;
    std::uint32_t threadsPerCore = 1;
    std::uint64_t iterations = 0;
    std::uint64_t histElements = 4096;
    std::vector<ScenarioPhase> phases;

    /** Parse + validate; throws config::KvError on any problem
     *  (including unknown keys). */
    static Scenario fromKv(const config::KvFile &kv);
    static Scenario fromFile(const std::string &path);
    static Scenario fromText(const std::string &text,
                             const std::string &source = "<string>");
};

/** "int" | "hp" | "hist" -> Microbench; throws config::KvError. */
workloads::Microbench microbenchFromName(const std::string &name);

/** Per-phase slice of a scenario run. */
struct PhaseResult
{
    sim::CompletionResult run;
    /** Instructions retired within the phase (run.insts is a running
     *  total over the whole system lifetime). */
    std::uint64_t insts = 0;
    double avgPowerW = 0.0;
    /** On-chip energy per instruction (J; 0 when no insts retired). */
    double epi = 0.0;
    /** Die temperature at phase end (C). */
    double dieTempC = 0.0;
    /** Sample clock at phase end (s). */
    double endTimeS = 0.0;
};

struct ScenarioResult
{
    std::string name;
    std::string policy;
    std::vector<PhaseResult> phases;
    // Whole-run aggregates (sums / energy-weighted means of phases).
    std::uint64_t cycles = 0;
    std::uint64_t insts = 0;
    double seconds = 0.0;
    double energyJ = 0.0;
    double avgPowerW = 0.0;
    double epi = 0.0;
    double finalDieTempC = 0.0;
};

/**
 * Drive `system` through the scenario: build the governor, attach it,
 * place + load the workload (Governor::placeTiles), run every phase,
 * then detach.  The system must be freshly constructed (nothing loaded)
 * and may have a telemetry recorder attached — the run then emits the
 * full window schema plus the governor.* epoch series.  Deterministic:
 * same system options + scenario => bit-identical results under either
 * engine.
 */
ScenarioResult runScenario(sim::System &system, const Scenario &sc);

} // namespace piton::governor

#endif // PITON_GOVERNOR_SCENARIO_HH
