/**
 * @file
 * Reference-path equivalence suite for the fast path (DESIGN.md §9).
 *
 * The event-driven chip scheduler (run-ahead rounds + burst issue)
 * promises results *bit-identical* to the legacy per-cycle stepping:
 * same cycle counts, same per-class retirement counts, and — because
 * floating-point addition is not associative — the exact same ledger
 * sums, down to the last mantissa bit.  These tests run every
 * microbenchmark (and targeted stress programs) under both
 * SystemOptions::fastPath settings and compare everything observable,
 * including a byte-for-byte telemetry CSV diff.
 */

#include <array>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "governor/scenario.hh"
#include "isa/assembler.hh"
#include "power/energy_model.hh"
#include "sim/system.hh"
#include "telemetry/export.hh"
#include "telemetry/recorder.hh"
#include "workloads/microbenchmarks.hh"

namespace
{

using namespace piton;

std::uint64_t
bitsOf(double d)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

/** Everything observable about a finished run, FP values as raw bits
 *  so EXPECT_EQ is exact (no tolerance, by design). */
struct RunFingerprint
{
    Cycle cycles = 0;
    bool allHalted = false;
    Cycle now = 0;
    std::uint64_t totalInsts = 0;
    std::uint64_t draftedInsts = 0;
    std::array<std::uint64_t,
               static_cast<std::size_t>(isa::InstClass::NumClasses)>
        classCounts{};
    /** Per-category, per-rail ledger sums + grand total, as bits. */
    std::vector<std::uint64_t> ledgerBits;
    /** Per-tile core energies, as bits. */
    std::vector<std::uint64_t> tileBits;

    bool
    operator==(const RunFingerprint &o) const
    {
        return cycles == o.cycles && allHalted == o.allHalted
               && now == o.now && totalInsts == o.totalInsts
               && draftedInsts == o.draftedInsts
               && classCounts == o.classCounts
               && ledgerBits == o.ledgerBits && tileBits == o.tileBits;
    }
};

RunFingerprint
fingerprint(const arch::PitonChip &chip, const arch::PitonChip::RunResult &r)
{
    RunFingerprint f;
    f.cycles = r.cyclesElapsed;
    f.allHalted = r.allHalted;
    f.now = chip.now();
    f.totalInsts = chip.totalInsts();
    f.draftedInsts = chip.draftedInsts();
    f.classCounts = chip.classCounts();
    const auto &ledger = chip.ledger();
    for (std::size_t c = 0; c < power::kNumCategories; ++c)
        for (std::size_t rail = 0; rail < power::kNumRails; ++rail)
            f.ledgerBits.push_back(bitsOf(
                ledger.category(static_cast<power::Category>(c))
                    .get(static_cast<power::Rail>(rail))));
    for (std::size_t rail = 0; rail < power::kNumRails; ++rail)
        f.ledgerBits.push_back(
            bitsOf(ledger.total().get(static_cast<power::Rail>(rail))));
    for (const double e : chip.tileCoreEnergyJ())
        f.tileBits.push_back(bitsOf(e));
    return f;
}

void
expectEqualFingerprints(const RunFingerprint &fast,
                        const RunFingerprint &legacy)
{
    EXPECT_EQ(fast.cycles, legacy.cycles);
    EXPECT_EQ(fast.allHalted, legacy.allHalted);
    EXPECT_EQ(fast.now, legacy.now);
    EXPECT_EQ(fast.totalInsts, legacy.totalInsts);
    EXPECT_EQ(fast.draftedInsts, legacy.draftedInsts);
    EXPECT_EQ(fast.classCounts, legacy.classCounts);
    EXPECT_EQ(fast.ledgerBits, legacy.ledgerBits);
    EXPECT_EQ(fast.tileBits, legacy.tileBits);
    EXPECT_TRUE(fast == legacy);
}

/** Run one microbenchmark on a full 25-core system; `rounds` gets the
 *  run-ahead rounds the run took. */
RunFingerprint
runMicrobench(workloads::Microbench m, bool fast_path, bool drafting,
              Cycle cycles, std::uint64_t &rounds)
{
    sim::SystemOptions opts;
    opts.fastPath = fast_path;
    sim::System sys(opts);
    if (drafting)
        sys.pitonChip().setExecDrafting(true);
    const auto programs = workloads::loadMicrobench(sys, m, 25, 2, 0);
    const auto r = sys.pitonChip().run(cycles);
    rounds = sys.pitonChip().runAheadRounds();
    return fingerprint(sys.pitonChip(), r);
}

/** (microbench, drafting): every workload/drafting combination runs
 *  the fast engine against the legacy baseline. */
using EquivParam = std::tuple<workloads::Microbench, bool>;

class FastPathEquivalence : public ::testing::TestWithParam<EquivParam>
{
};

TEST_P(FastPathEquivalence, MicrobenchIsBitIdentical)
{
    const auto [bench, drafting] = GetParam();
    std::uint64_t fast_rounds = 0;
    std::uint64_t legacy_rounds = 0;
    const auto fast = runMicrobench(bench, true, drafting, 30000, fast_rounds);
    const auto legacy =
        runMicrobench(bench, false, drafting, 30000, legacy_rounds);
    expectEqualFingerprints(fast, legacy);
    EXPECT_EQ(legacy_rounds, 0u);
    // Execution Drafting keeps a fast-path chip stepping in order.
    if (drafting) {
        EXPECT_EQ(fast_rounds, 0u);
    } else {
        EXPECT_GT(fast_rounds, 0u);
    }
}

std::string
equivParamName(const ::testing::TestParamInfo<EquivParam> &info)
{
    return std::string(workloads::microbenchName(std::get<0>(info.param)))
           + (std::get<1>(info.param) ? "ExecD" : "");
}

INSTANTIATE_TEST_SUITE_P(
    AllMicrobenches, FastPathEquivalence,
    ::testing::Combine(::testing::Values(workloads::Microbench::Int,
                                         workloads::Microbench::HP,
                                         workloads::Microbench::Hist),
                       ::testing::Bool()),
    equivParamName);

/** What expectBitIdenticalEngines hands back for extra checks. */
struct EngineRuns
{
    RunFingerprint legacy;
    /** Run-ahead rounds the fast engine took. */
    std::uint64_t fastRounds = 0;
};

/**
 * Load a chip with `load(sys)` (its return value keeps the programs
 * alive), run it for `cycles` on the legacy engine and on the fast
 * engine, and expect the fingerprints to match; the legacy fingerprint
 * and the fast engine's round count are returned for extra checks.
 */
template <typename Load>
EngineRuns
expectBitIdenticalEngines(sim::SystemOptions opts, Cycle cycles, Load &&load)
{
    EngineRuns out;
    const auto run = [&](bool fast_path) {
        opts.fastPath = fast_path;
        sim::System sys(opts);
        [[maybe_unused]] const auto programs = load(sys);
        const auto r = sys.pitonChip().run(cycles);
        if (fast_path)
            out.fastRounds = sys.pitonChip().runAheadRounds();
        return fingerprint(sys.pitonChip(), r);
    };
    out.legacy = run(false);
    expectEqualFingerprints(run(true), out.legacy);
    return out;
}

/** (cores, threads per core) of a partly loaded chip. */
using ChipShape = std::pair<std::uint32_t, std::uint32_t>;

/** (microbench, shape): the partly loaded chips of Fig. 13/14 and the
 *  service's requests.  One-thread cores, cores with an idle sibling
 *  slot and chips where few cores share a cycle all take the burst
 *  loop; each shape runs the fast engine against the legacy baseline
 *  (25 x 2 is FastPathEquivalence's shape). */
using ShapeParam = std::tuple<workloads::Microbench, ChipShape>;

class PartialChipEquivalence : public ::testing::TestWithParam<ShapeParam>
{
};

TEST_P(PartialChipEquivalence, ShapeIsBitIdentical)
{
    const auto [bench, shape] = GetParam();
    const auto [cores, tpc] = shape;
    const auto runs =
        expectBitIdenticalEngines({}, 30000, [&](sim::System &sys) {
            return workloads::loadMicrobench(sys, bench, cores, tpc, 0);
        });
    EXPECT_GT(runs.legacy.totalInsts, 0u);
    // Every fast-path event window is a run-ahead round, a lone core's
    // included.
    EXPECT_GT(runs.fastRounds, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PartialChips, PartialChipEquivalence,
    ::testing::Combine(::testing::Values(workloads::Microbench::Int,
                                         workloads::Microbench::HP,
                                         workloads::Microbench::Hist),
                       ::testing::Values(ChipShape{1, 1}, ChipShape{3, 1},
                                         ChipShape{9, 1}, ChipShape{25, 1},
                                         ChipShape{1, 2}, ChipShape{3, 2},
                                         ChipShape{9, 2})),
    [](const ::testing::TestParamInfo<ShapeParam> &info) {
        const ChipShape shape = std::get<1>(info.param);
        return std::string(
                   workloads::microbenchName(std::get<0>(info.param)))
               + "C" + std::to_string(shape.first) + "TC"
               + std::to_string(shape.second);
    });

/** Cores built with a single thread slot (not just an idle second
 *  slot) run the burst with no sibling at all. */
TEST(FastPathEquivalenceStress, SingleSlotCoresAreBitIdentical)
{
    sim::SystemOptions opts;
    opts.cfg.piton.threadsPerCore = 1;
    const auto runs =
        expectBitIdenticalEngines(opts, 30000, [](sim::System &sys) {
            return workloads::loadMicrobench(
                sys, workloads::Microbench::HP, 4, 1, 0);
        });
    EXPECT_GT(runs.legacy.totalInsts, 0u);
}

/** One sibling halts early while the other keeps storing: the
 *  survivor runs beside a Halted slot with stores still in flight, so
 *  the burst sees a non-Ready sibling and a non-empty store buffer.
 *  Which slot halts alternates by tile. */
TEST(FastPathEquivalenceStress, HaltedSiblingWithStoresInFlight)
{
    const isa::Program early = isa::assemble(R"(
        set 0, %r1
    loop:
        add %r1, 1, %r1
        xor %r1, %r3, %r2
        cmp %r1, 40
        bl loop
        halt
    )");
    const isa::Program storer = isa::assemble(R"(
        set 0x50000, %r1
        set 0, %r3
    loop:
        stx %r3, [%r1 + 0]
        add %r3, 1, %r3
        add %r2, %r3, %r2
        xor %r2, %r3, %r4
        sub %r4, %r3, %r5
        stx %r4, [%r1 + 8]
        and %r5, %r2, %r6
        add %r1, 16, %r1
        cmp %r3, 1500
        bl loop
        halt
    )");

    const auto runs = expectBitIdenticalEngines(
        {}, 400000, [&](sim::System &sys) {
            for (TileId tile = 0; tile < 9; ++tile) {
                const ThreadId halts = tile % 2;
                sys.loadProgram(tile, halts, &early);
                sys.loadProgram(tile, halts ^ 1u, &storer);
            }
            return 0; // the programs are this test's locals
        });
    EXPECT_TRUE(runs.legacy.allHalted);
}

/**
 * Edges of the round's pause queue.  A first pass leaves the program in
 * every tile's L1I; reloading it restarts all 25 cores on one cycle S,
 * so the round starts at S, every core runs 63 single-cycle ALU ops
 * and all 25 pause before the load at S + 63: one cycle's word holds
 * every core, at the round's last offset.  The legacy run is traced
 * to check that the loads really issue there (a hook does not change
 * what legacy stepping computes).
 */
TEST(FastPathEquivalenceStress, AllCoresPauseOnTheRoundsLastCycle)
{
    constexpr TileId kTiles = 25;
    constexpr Cycle kLastOffset = 63;
    std::string src = "set 0x40000, %r1\n";
    for (Cycle i = 1; i < kLastOffset; ++i)
        src += "add %r2, 1, %r2\n";
    src += "ldx [%r1 + 0], %r3\n"
           "add %r3, %r2, %r4\n"
           "ldx [%r1 + 8], %r5\n"
           "halt\n";
    const isa::Program prog = isa::assemble(src);
    const std::uint32_t load_pc = static_cast<std::uint32_t>(kLastOffset);
    ASSERT_EQ(prog.decoded(load_pc).kind, isa::IssueKind::Load);

    const auto run = [&](bool fast_path, std::vector<Cycle> *load_cycles) {
        sim::SystemOptions opts;
        opts.fastPath = fast_path;
        sim::System sys(opts);
        arch::PitonChip &chip = sys.pitonChip();
        for (TileId tile = 0; tile < kTiles; ++tile)
            sys.loadProgram(tile, 0, &prog);
        EXPECT_TRUE(chip.run(100000).allHalted); // warm every L1I
        for (TileId tile = 0; tile < kTiles; ++tile)
            sys.loadProgram(tile, 0, &prog);
        const Cycle start = chip.now();
        if (load_cycles) {
            chip.setTraceHook([&](TileId, ThreadId, Cycle c, Addr pc,
                                  const isa::Instruction &) {
                if (pc == prog.pcOf(load_pc))
                    load_cycles->push_back(c - start);
            });
        }
        const std::uint64_t rounds = chip.runAheadRounds();
        const auto r = chip.run(100000);
        EXPECT_TRUE(r.allHalted);
        if (fast_path) {
            EXPECT_GT(chip.runAheadRounds(), rounds);
        }
        return fingerprint(chip, r);
    };

    std::vector<Cycle> load_cycles;
    const RunFingerprint legacy = run(false, &load_cycles);
    EXPECT_EQ(load_cycles, std::vector<Cycle>(kTiles, kLastOffset));
    expectEqualFingerprints(run(true, nullptr), legacy);
}

/** Store-buffer pressure: back-to-back stores overflow the 8-entry
 *  buffer, exercising rollbacks, replayed stores, and the drain
 *  interleaving with the second thread's loads. */
TEST(FastPathEquivalenceStress, StoreBufferPressureIsBitIdentical)
{
    const isa::Program pressure = isa::assemble(R"(
        set 0x20000, %r1
        set 0, %r3
    loop:
        stx %r2, [%r1 + 0]
        stx %r2, [%r1 + 8]
        stx %r2, [%r1 + 64]
        stx %r2, [%r1 + 72]
        add %r2, 1, %r2
        ldx [%r1 + 0], %r4
        add %r3, 1, %r3
        cmp %r3, 400
        bl loop
        halt
    )");
    const isa::Program spin = isa::assemble(R"(
        set 0, %r1
        set 0x30000, %r3
    loop:
        add %r1, 1, %r1
        add %r3, 8, %r3
        ldx [%r3 + 0], %r2
        cmp %r1, 2000
        bl loop
        halt
    )");

    auto run = [&](bool fast_path) {
        sim::SystemOptions opts;
        opts.fastPath = fast_path;
        sim::System sys(opts);
        for (TileId tile = 0; tile < 25; ++tile) {
            sys.loadProgram(tile, 0, &pressure);
            sys.loadProgram(tile, 1, tile % 2 ? &spin : &pressure);
        }
        const auto r = sys.pitonChip().run(200000);
        return fingerprint(sys.pitonChip(), r);
    };
    const auto legacy = run(false);
    const auto fast = run(true);
    EXPECT_TRUE(fast.allHalted);
    expectEqualFingerprints(fast, legacy);
}

/** The telemetry pipeline samples ledger deltas per window; feeding it
 *  from both paths must produce byte-identical CSV exports. */
TEST(FastPathEquivalenceStress, TelemetryCsvIsByteIdentical)
{
    auto csv = [](bool fast_path) {
        sim::SystemOptions opts;
        opts.fastPath = fast_path;
        sim::System sys(opts);
        telemetry::TelemetryRecorder rec;
        sys.attachTelemetry(&rec);
        const auto programs = workloads::loadMicrobench(
            sys, workloads::Microbench::HP, 25, 2, 0);
        for (int window = 0; window < 16; ++window)
            sys.windowTruePowers(2000);
        std::ostringstream os;
        telemetry::writeCsv(os, rec);
        return os.str();
    };
    const std::string fast = csv(true);
    const std::string legacy = csv(false);
    ASSERT_FALSE(fast.empty());
    EXPECT_EQ(fast, legacy);
}

/**
 * Closed-loop governed runs (DESIGN.md §13) carry extra serial state —
 * epoch accumulators, duty-gate tables, controller internals — all of
 * which must stay bit-identical across the legacy and fast engines.
 * Each policy runs the same phased scenario (cap retune + workload swap
 * mid-run, so actuation and gating actually fire) and the whole
 * observable surface is compared: chip fingerprint, scenario aggregates
 * as raw bits, and a byte-for-byte telemetry CSV including the
 * governor.* epoch series.
 */
class GovernedEquivalence
    : public ::testing::TestWithParam<const char *>
{
  protected:
    struct GovernedRun
    {
        RunFingerprint fp;
        std::vector<std::uint64_t> resultBits;
        std::string csv;
    };

    GovernedRun
    run(bool fast_path) const
    {
        governor::Scenario sc = governor::Scenario::fromText(R"(
name             = equiv
workload         = hp
tiles            = 25
threads_per_core = 2
epoch_windows    = 2
cycles           = 30000
phases           = 2
phase1.cap_w     = 1.6
phase1.workload  = int
)");
        sc.gov.policy = GetParam();
        if (sc.gov.policy == "pidcap")
            sc.gov.capW = 2.2;

        sim::SystemOptions opts;
        opts.fastPath = fast_path;
        sim::System sys(opts);
        telemetry::TelemetryRecorder rec;
        sys.attachTelemetry(&rec);
        const governor::ScenarioResult r = governor::runScenario(sys, sc);

        GovernedRun g;
        arch::PitonChip::RunResult rr;
        rr.cyclesElapsed = r.cycles;
        rr.allHalted = false;
        g.fp = fingerprint(sys.pitonChip(), rr);
        g.resultBits = {r.cycles,
                        r.insts,
                        bitsOf(r.seconds),
                        bitsOf(r.energyJ),
                        bitsOf(r.avgPowerW),
                        bitsOf(r.epi),
                        bitsOf(r.finalDieTempC)};
        for (const auto &ph : r.phases) {
            g.resultBits.push_back(bitsOf(ph.avgPowerW));
            g.resultBits.push_back(bitsOf(ph.epi));
            g.resultBits.push_back(bitsOf(ph.endTimeS));
            g.resultBits.push_back(ph.insts);
        }
        std::ostringstream os;
        telemetry::writeCsv(os, rec);
        g.csv = os.str();
        return g;
    }
};

TEST_P(GovernedEquivalence, BitIdenticalAcrossEngines)
{
    const GovernedRun legacy = run(false);
    ASSERT_FALSE(legacy.csv.empty());
    EXPECT_GT(legacy.fp.totalInsts, 0u);
    const GovernedRun fast = run(true);
    expectEqualFingerprints(fast.fp, legacy.fp);
    EXPECT_EQ(fast.resultBits, legacy.resultBits);
    EXPECT_EQ(fast.csv, legacy.csv);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, GovernedEquivalence,
                         ::testing::Values("none", "ondemand", "pidcap",
                                           "theas"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

} // namespace
