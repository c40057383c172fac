/**
 * @file
 * Closed-loop DVFS governor suite (DESIGN.md §13): policy unit tests on
 * synthetic observations, V-f helper invariants, scenario parsing and
 * validation, and governed end-to-end runs — the PID cap hold, distinct
 * per-policy trajectories, run-to-run determinism, and the governor.*
 * telemetry series.
 */

#include <cmath>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "config/kv_file.hh"
#include "config/piton_params.hh"
#include "governor/governor.hh"
#include "governor/scenario.hh"
#include "sim/system.hh"
#include "telemetry/export.hh"
#include "telemetry/recorder.hh"
#include "telemetry/schema.hh"
#include "workloads/microbenchmarks.hh"

namespace
{

using namespace piton;

governor::Platform
testPlatform(const config::PitonParams &params)
{
    governor::Platform plat;
    plat.piton = &params;
    plat.speedFactor = 1.0;
    plat.nominalVddV = 1.0;
    plat.nominalFreqMhz = 500.05;
    return plat;
}

governor::EpochObs
uniformObs(const governor::Governor &gov, std::uint32_t tiles,
           std::uint64_t insts_per_tile, std::uint64_t stall_per_tile)
{
    governor::EpochObs obs;
    obs.epochCycles = 10'000;
    obs.epochS = 1e-3;
    obs.onChipPowerW = 3.0;
    obs.railPowerW = {2.5, 0.4, 0.1};
    obs.vddV = gov.platform().nominalVddV;
    obs.freqMhz = gov.platform().nominalFreqMhz;
    obs.tiles.resize(tiles);
    for (auto &t : obs.tiles) {
        t.insts = insts_per_tile;
        t.stallCycles = stall_per_tile;
        t.freqMhz = obs.freqMhz;
    }
    return obs;
}

TEST(GovernorFactory, PolicyNamesRoundTrip)
{
    for (const char *policy : {"none", "ondemand", "pidcap", "theas"}) {
        governor::GovernorParams p;
        p.policy = policy;
        if (p.policy == "pidcap")
            p.capW = 2.0;
        const auto gov = governor::makeGovernor(p);
        EXPECT_STREQ(gov->name(), policy);
    }
    governor::GovernorParams bogus;
    bogus.policy = "turbo";
    EXPECT_THROW(governor::makeGovernor(bogus), std::runtime_error);
    EXPECT_NE(std::strstr(governor::governorPolicyNames(), "pidcap"),
              nullptr);
}

TEST(GovernorFactory, NoneIsConstructible)
{
    governor::GovernorParams p;
    p.policy = "none";
    EXPECT_NO_THROW(governor::makeGovernor(p));
}

TEST(GovernorFactory, PidcapValidatesItsBudget)
{
    governor::GovernorParams p;
    p.policy = "pidcap";
    EXPECT_THROW(governor::makeGovernor(p), std::runtime_error); // capW=0
    p.capW = 2.0;
    p.capRail = "vddq";
    EXPECT_THROW(governor::makeGovernor(p), std::runtime_error);
    p.capRail = "vdd";
    EXPECT_NO_THROW(governor::makeGovernor(p));
}

TEST(GovernorVf, HelpersAreConsistent)
{
    const config::PitonParams params;
    governor::GovernorParams p;
    p.policy = "none";
    const auto gov = governor::makeGovernor(p);
    gov->init(testPlatform(params));

    const power::VfModel &vf = gov->vfModel();
    const double fmax10 = gov->fmaxMhz(1.0);
    EXPECT_NEAR(fmax10, 514.33, 2.0); // the paper's 1.0 V anchor
    EXPECT_LT(gov->fmaxMhz(0.8), fmax10);

    // vddForFreq must return a supply whose fmax sustains the request.
    for (const double f : {120.0, 285.0, 400.0, 500.0}) {
        const double v = gov->vddForFreq(f);
        EXPECT_GE(v, vf.params().minVddV);
        EXPECT_LE(v, p.maxVddV);
        EXPECT_GE(vf.rawFmaxMhz(v, 1.0), f * (1.0 - 1e-9));
    }
    // Deterministic: bit-identical on repeated evaluation.
    EXPECT_EQ(gov->vddForFreq(333.3), gov->vddForFreq(333.3));

    // clampFreqMhz lands on the PLL grid inside the legal band.
    const double f = gov->clampFreqMhz(12345.0);
    EXPECT_LE(f, gov->fmaxMhz(p.maxVddV));
    EXPECT_EQ(f, vf.quantizeMhz(f));
    EXPECT_GE(gov->clampFreqMhz(-5.0), vf.params().freqStepMhz);
}

TEST(GovernorPlacement, DefaultIsLinearTheasClustersCenter)
{
    const config::PitonParams params;
    governor::GovernorParams p;
    p.policy = "ondemand";
    const auto linear = governor::makeGovernor(p);
    linear->init(testPlatform(params));
    const auto lin = linear->placeTiles(5);
    EXPECT_EQ(lin, (std::vector<TileId>{0, 1, 2, 3, 4}));

    p.policy = "theas";
    const auto theas = governor::makeGovernor(p);
    theas->init(testPlatform(params));
    const auto placed = theas->placeTiles(9);
    ASSERT_EQ(placed.size(), 9u);
    // Distinct tiles, first is the mesh center, hop distances ascend.
    const TileId center = config::tileIdAt(params, params.meshWidth / 2,
                                           params.meshHeight / 2);
    EXPECT_EQ(placed[0], center);
    std::set<TileId> uniq(placed.begin(), placed.end());
    EXPECT_EQ(uniq.size(), placed.size());
    std::uint32_t prev = 0;
    for (const TileId t : placed) {
        const std::uint32_t d = config::hopDistance(params, center, t);
        EXPECT_GE(d, prev);
        prev = d;
    }
    // The 9 closest tiles to the center are all within 2 hops (the
    // cache-aware cluster; a linear placement would span 4+).
    EXPECT_LE(prev, 2u);
}

TEST(GovernorOndemand, LadderBoostsAndDecays)
{
    const config::PitonParams params;
    governor::GovernorParams p;
    p.policy = "ondemand";
    p.epochWindows = 1;
    const auto gov = governor::makeGovernor(p);
    gov->init(testPlatform(params));

    // Saturated tiles: jump straight to fmax.
    const std::uint64_t slots =
        static_cast<std::uint64_t>(params.threadsPerCore) * 10'000;
    auto hot = uniformObs(*gov, params.tileCount, slots, 0);
    const auto boost = gov->controlEpoch(hot);
    EXPECT_TRUE(boost.changed);
    EXPECT_GT(boost.freqMhz, hot.freqMhz);
    EXPECT_EQ(boost.freqMhz, gov->fmaxMhz(p.maxVddV));
    EXPECT_GE(gov->vfModel().rawFmaxMhz(boost.vddV, 1.0), boost.freqMhz);

    // Near-idle tiles: step down the grid, epoch over epoch.
    auto idle = uniformObs(*gov, params.tileCount, 10, 0);
    double prev_f = boost.freqMhz;
    for (int epoch = 0; epoch < 3; ++epoch) {
        idle.freqMhz = prev_f;
        for (auto &t : idle.tiles)
            t.freqMhz = prev_f;
        const auto act = gov->controlEpoch(idle);
        EXPECT_TRUE(act.changed);
        EXPECT_LT(act.freqMhz, prev_f);
        prev_f = act.freqMhz;
    }
}

TEST(GovernorTheas, GatesIdleThrottlesStalled)
{
    const config::PitonParams params;
    governor::GovernorParams p;
    p.policy = "theas";
    const auto gov = governor::makeGovernor(p);
    gov->init(testPlatform(params));

    auto obs = uniformObs(*gov, params.tileCount, 1000, 0);
    // Tile 0 truly idle; tile 1 memory-bound (10% stall); the rest busy
    // with negligible stalls.
    obs.tiles[0].insts = 0;
    obs.tiles[0].stallCycles = 0;
    obs.tiles[1].stallCycles =
        params.threadsPerCore * obs.epochCycles / 10;
    const auto act = gov->controlEpoch(obs);
    ASSERT_TRUE(act.changed);
    ASSERT_EQ(act.tileFreqMhz.size(), obs.tiles.size());
    EXPECT_EQ(act.tileFreqMhz[0], 0.0); // hard-gated
    EXPECT_LT(act.tileFreqMhz[1], obs.freqMhz); // throttled
    EXPECT_GT(act.tileFreqMhz[2], obs.freqMhz); // compute-bound boosts
    EXPECT_LE(act.tileFreqMhz[1], act.freqMhz);
}

TEST(GovernorPidcap, ConvergesOnSyntheticPlant)
{
    const config::PitonParams params;
    governor::GovernorParams p;
    p.policy = "pidcap";
    p.capW = 2.0;
    p.epochWindows = 1;
    const auto gov = governor::makeGovernor(p);
    gov->init(testPlatform(params));

    // Plant: power proportional to frequency through the nominal point
    // (3 W at 500 MHz) — the first-order model the gains were tuned on.
    double f = 500.05;
    double measured = 3.0;
    for (int epoch = 0; epoch < 80; ++epoch) {
        governor::EpochObs obs = uniformObs(*gov, params.tileCount, 0, 0);
        obs.freqMhz = f;
        obs.onChipPowerW = measured;
        const auto act = gov->controlEpoch(obs);
        if (act.changed)
            f = act.freqMhz;
        measured = 3.0 * f / 500.05;
    }
    EXPECT_NEAR(measured, p.capW, 0.08 * p.capW);
}

TEST(GovernorKv, ParamsFromKvOverridesDefaults)
{
    const auto kv = config::KvFile::parseText(R"(
governor      = pidcap
epoch_windows = 8
cap_w         = 1.25
cap_rail      = vdd
kp_mhz_per_w  = 10.5
min_freq_mhz  = 150
)");
    const auto p = governor::governorParamsFromKv(kv);
    EXPECT_EQ(p.policy, "pidcap");
    EXPECT_EQ(p.epochWindows, 8u);
    EXPECT_DOUBLE_EQ(p.capW, 1.25);
    EXPECT_EQ(p.capRail, "vdd");
    EXPECT_DOUBLE_EQ(p.kpMhzPerW, 10.5);
    EXPECT_DOUBLE_EQ(p.minFreqMhz, 150.0);
    // Untouched knobs keep their defaults.
    EXPECT_DOUBLE_EQ(p.kiMhzPerW, 12.0);
    EXPECT_NO_THROW(kv.checkUnknownKeys("test"));

    EXPECT_THROW(governor::governorParamsFromKv(config::KvFile::parseText(
                     "epoch_windows = 0")),
                 config::KvError);
}

TEST(GovernorScenario, ParsesPhasesAndRejectsUnknownKeys)
{
    const auto sc = governor::Scenario::fromText(R"(
name             = t
workload         = hist
tiles            = 9
threads_per_core = 2
governor         = theas
cycles           = 5000
phases           = 2
phase1.cap_w     = 1.5
phase1.workload  = int
)");
    EXPECT_EQ(sc.name, "t");
    EXPECT_EQ(sc.workload, "hist");
    EXPECT_EQ(sc.tiles, 9u);
    ASSERT_EQ(sc.phases.size(), 2u);
    EXPECT_EQ(sc.phases[0].cycles, 5000u);
    EXPECT_EQ(sc.phases[0].workload, "");
    EXPECT_DOUBLE_EQ(sc.phases[1].capW, 1.5);
    EXPECT_EQ(sc.phases[1].workload, "int");

    EXPECT_THROW(governor::Scenario::fromText("workloda = int"),
                 config::KvError); // typo = unknown key
    EXPECT_THROW(governor::Scenario::fromText("workload = spec"),
                 config::KvError);
    EXPECT_THROW(governor::Scenario::fromText("tiles = 26"),
                 config::KvError);
    // Out-of-range counts throw before narrowing (2^32 + 1 is not 1
    // tile, 2^32 + 2 is not 2 threads), and non-finite reals throw.
    for (const char *bad :
         {"tiles = 4294967297", "threads_per_core = 4294967298",
          "epoch_windows = 4294967297", "phase0.cap_w = nan",
          "cap_w = nan", "min_freq_mhz = inf", "min_freq_mhz = nan"}) {
        EXPECT_THROW(governor::Scenario::fromText(bad), config::KvError)
            << bad;
    }
    EXPECT_THROW(governor::Scenario::fromText("phases = 1\n"
                                              "phase0.cycles = 0"),
                 config::KvError);
    EXPECT_THROW(governor::Scenario::fromFile("/nonexistent/x.kv"),
                 config::KvError);
}

/** Shared mini-scenario: HP on all tiles, two short phases. */
governor::Scenario
miniScenario(const std::string &policy)
{
    governor::Scenario sc = governor::Scenario::fromText(R"(
name             = mini
workload         = hp
tiles            = 25
threads_per_core = 2
epoch_windows    = 2
cycles           = 40000
phases           = 2
phase1.cap_w     = 1.8
)");
    sc.gov.policy = policy;
    if (policy == "pidcap")
        sc.gov.capW = 2.5;
    return sc;
}

governor::ScenarioResult
runMini(const std::string &policy,
        telemetry::TelemetryRecorder *rec = nullptr)
{
    sim::System sys;
    if (rec != nullptr)
        sys.attachTelemetry(rec);
    return governor::runScenario(sys, miniScenario(policy));
}

std::uint64_t
bitsOf(double d)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

TEST(GovernorEndToEnd, PoliciesProduceDistinctReproducibleTrajectories)
{
    std::set<std::uint64_t> energies;
    for (const char *policy : {"none", "ondemand", "pidcap", "theas"}) {
        const auto a = runMini(policy);
        const auto b = runMini(policy);
        // Reproducible: bit-identical run to run ...
        EXPECT_EQ(bitsOf(a.energyJ), bitsOf(b.energyJ)) << policy;
        EXPECT_EQ(bitsOf(a.seconds), bitsOf(b.seconds)) << policy;
        EXPECT_EQ(a.cycles, b.cycles) << policy;
        EXPECT_EQ(a.insts, b.insts) << policy;
        EXPECT_GT(a.energyJ, 0.0);
        EXPECT_GT(a.insts, 0u);
        energies.insert(bitsOf(a.energyJ));
    }
    // ... and distinct across policies.
    EXPECT_EQ(energies.size(), 4u);
}

TEST(GovernorEndToEnd, PidHoldsTheCapAfterSettling)
{
    // One settling phase, then a long measured phase under the same
    // budget; the paper-tolerance acceptance bound is max(0.15 W, 8%).
    // 3.0 W is bench_ablation_powercap's cap, well below full HP
    // demand.
    governor::Scenario sc = governor::Scenario::fromText(R"(
name             = cap_hold
workload         = hp
tiles            = 25
threads_per_core = 2
governor         = pidcap
epoch_windows    = 2
phases           = 2
phase0.cycles    = 120000
phase1.cycles    = 240000
)");
    for (const double cap : {2.0, 3.0}) {
        sc.gov.capW = cap;
        sim::System sys{sim::SystemOptions{}};
        const auto r = governor::runScenario(sys, sc);
        ASSERT_EQ(r.phases.size(), 2u);
        const double held = r.phases[1].avgPowerW;
        EXPECT_NEAR(held, cap, std::max(0.15, 0.08 * cap)) << cap << " W";
    }
}

TEST(GovernorEndToEnd, GovernorTelemetrySeriesAreEmitted)
{
    telemetry::TelemetryRecorder rec;
    const auto r = runMini("pidcap", &rec);
    (void)r;
    namespace ts = telemetry::schema;
    for (const char *name :
         {ts::kGovernorFreqMhz, ts::kGovernorVddV, ts::kGovernorPowerW,
          ts::kGovernorCapW, ts::kGovernorGatedTiles, ts::kGovernorEpochs})
        EXPECT_NE(rec.find(name), nullptr) << name;
    EXPECT_GT(rec.sum(ts::kGovernorEpochs), 0.0);
    // The per-rail gauges ride along on every governed window.
    for (const char *name :
         {"power.rail.vdd_w", "power.rail.vdd_v", "power.rail.vdd_a",
          "power.rail.vcs_w", "power.rail.vio_a"})
        EXPECT_NE(rec.find(name), nullptr) << name;
    // Current = power / setpoint, recorded consistently.
    const auto w = rec.aggregate("power.rail.vio_w");
    const auto a = rec.aggregate("power.rail.vio_a");
    EXPECT_GT(w.count, 0u);
    EXPECT_EQ(w.count, a.count);

    // Exports of bit-identical runs are byte-identical (CSV + JSONL).
    telemetry::TelemetryRecorder rec2;
    runMini("pidcap", &rec2);
    std::ostringstream c1, c2, j1, j2;
    telemetry::writeCsv(c1, rec);
    telemetry::writeCsv(c2, rec2);
    telemetry::writeJsonl(j1, rec);
    telemetry::writeJsonl(j2, rec2);
    ASSERT_FALSE(c1.str().empty());
    EXPECT_EQ(c1.str(), c2.str());
    EXPECT_EQ(j1.str(), j2.str());
}

TEST(GovernorEndToEnd, DetachRestoresUngovernedBehaviour)
{
    // A governed segment followed by detach leaves the system running
    // ungoverned (no gates); runScenario detaches internally.
    sim::SystemOptions opts;
    sim::System sys(opts);
    const auto r = governor::runScenario(sys, miniScenario("theas"));
    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(sys.dvfsGovernor(), nullptr);
    EXPECT_EQ(sys.gatedTileCount(), 0u);
    for (TileId t = 0; t < 25; ++t)
        EXPECT_FALSE(sys.pitonChip().tileGated(t));
}

TEST(GovernorEndToEnd, ProgressGuardFinishesGatedWork)
{
    // A counted kernel on a single tile under theas: the tile idles
    // long enough to be hard-gated mid-run (other tiles are empty), yet
    // the run must still complete — the progress guard force-runs one
    // unfinished tile per window.
    governor::Scenario sc = governor::Scenario::fromText(R"(
name             = tiny
workload         = int
tiles            = 2
threads_per_core = 1
governor         = theas
epoch_windows    = 1
iterations       = 4000
cycles           = 4000000
)");
    sim::System sys{sim::SystemOptions{}};
    const auto r = governor::runScenario(sys, sc);
    ASSERT_EQ(r.phases.size(), 1u);
    EXPECT_TRUE(r.phases[0].run.completed);
    EXPECT_FALSE(r.phases[0].run.stalled);
    EXPECT_GT(r.insts, 0u);
}

} // namespace
