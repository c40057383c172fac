/**
 * @file
 * Property-based tests (parameterized sweeps) over the library's
 * invariants: cache-array behaviour across all four geometries,
 * coherence single-writer invariants under random traffic, NoC
 * routing/energy properties over all tile pairs, EPI monotonicity in
 * operand activity over all variants, and assembler robustness.
 */

#include <bit>
#include <map>

#include <gtest/gtest.h>

#include "arch/mem_system.hh"
#include "arch/memory.hh"
#include "arch/noc.hh"
#include "common/rng.hh"
#include "config/piton_params.hh"
#include "isa/assembler.hh"
#include "power/energy_model.hh"
#include "workloads/epi_tests.hh"

namespace piton
{
namespace
{

// ---------------------------------------------------------------------
// Cache-array properties across all four cache geometries.

class CacheGeometry : public testing::TestWithParam<config::CacheParams>
{
};

TEST_P(CacheGeometry, CapacityNeverExceeded)
{
    arch::CacheArray c(GetParam());
    Rng rng(1);
    const std::size_t capacity =
        static_cast<std::size_t>(c.numSets()) * c.ways();
    for (int i = 0; i < 5000; ++i)
        c.fill(rng.next() & 0xFFFFF8, arch::Mesi::Shared,
               static_cast<Cycle>(i));
    EXPECT_LE(c.validCount(), capacity);
}

TEST_P(CacheGeometry, FillThenProbeAlwaysHits)
{
    arch::CacheArray c(GetParam());
    Rng rng(2);
    for (int i = 0; i < 2000; ++i) {
        const Addr a = rng.next() & 0xFFFFF8;
        c.fill(a, arch::Mesi::Exclusive, static_cast<Cycle>(i));
        EXPECT_NE(c.probe(a), arch::Mesi::Invalid);
        // Every byte of the same line hits too.
        EXPECT_NE(c.probe(c.lineAlign(a) + c.lineBytes() - 1),
                  arch::Mesi::Invalid);
    }
}

TEST_P(CacheGeometry, EvictionOnlyReportsFormerResidents)
{
    arch::CacheArray c(GetParam());
    Rng rng(3);
    std::map<Addr, bool> resident;
    for (int i = 0; i < 3000; ++i) {
        const Addr a = c.lineAlign(rng.next() & 0x3FFF8);
        const arch::Eviction ev =
            c.fill(a, arch::Mesi::Shared, static_cast<Cycle>(i));
        if (ev.happened) {
            EXPECT_TRUE(resident.count(ev.lineAddr))
                << "evicted a line that was never filled";
            resident.erase(ev.lineAddr);
        }
        resident[a] = true;
    }
    EXPECT_EQ(resident.size(), c.validCount());
}

TEST_P(CacheGeometry, MostRecentlyUsedSurvivesConflictStream)
{
    arch::CacheArray c(GetParam());
    const Addr stride =
        static_cast<Addr>(c.numSets()) * c.lineBytes(); // same-set alias
    // Fill the set, touch line 0 continually while streaming others.
    c.fill(0, arch::Mesi::Shared, 1);
    for (std::uint32_t i = 1; i < c.ways() * 4; ++i) {
        c.access(0, 1000 + i);
        c.fill(stride * i, arch::Mesi::Shared, 1000 + i);
        EXPECT_NE(c.probe(0), arch::Mesi::Invalid)
            << "MRU line evicted at step " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPitonCaches, CacheGeometry,
    testing::Values(config::PitonParams{}.l1i, config::PitonParams{}.l1d,
                    config::PitonParams{}.l15,
                    config::PitonParams{}.l2Slice),
    [](const testing::TestParamInfo<config::CacheParams> &info) {
        // L1D and L1.5 share a geometry: include the index for
        // uniqueness.
        std::string name = "c";
        name += std::to_string(info.index) + "_size"
                + std::to_string(info.param.sizeBytes / 1024) + "k_line"
                + std::to_string(info.param.lineBytes);
        return name;
    });

// ---------------------------------------------------------------------
// Coherence invariants under random multi-tile traffic.

class CoherenceFuzz : public testing::TestWithParam<std::uint64_t>
{
  protected:
    CoherenceFuzz() : mem_(params_, energy_, ledger_, memory_, 5) {}

    config::PitonParams params_;
    power::EnergyModel energy_;
    power::EnergyLedger ledger_;
    arch::MainMemory memory_;
    arch::MemorySystem mem_;
};

TEST_P(CoherenceFuzz, SingleWriterAndValueCorrectness)
{
    Rng rng(GetParam());
    std::map<Addr, RegVal> shadow;
    Cycle now = 0;
    // A small contended region: 16 lines of 64 B across 4 pages.
    auto rand_addr = [&] {
        return 0x40000 + (rng.below(128) * 8);
    };
    for (int op = 0; op < 4000; ++op) {
        const auto tile = static_cast<TileId>(rng.below(25));
        const Addr a = rand_addr();
        switch (rng.below(3)) {
          case 0: {
            RegVal data;
            const auto out = mem_.load(tile, a, data, now);
            now += out.latency;
            EXPECT_EQ(data, shadow.count(a) ? shadow[a] : 0)
                << "stale load at op " << op;
            break;
          }
          case 1: {
            const RegVal v = rng.next();
            now += mem_.store(tile, a, v, now).latency;
            shadow[a] = v;
            break;
          }
          default: {
            RegVal old;
            const RegVal expected = shadow.count(a) ? shadow[a] : 0;
            const RegVal swap = rng.next();
            now += mem_.atomicCas(tile, a, expected, swap, old, now)
                       .latency;
            EXPECT_EQ(old, expected);
            shadow[a] = swap;
            break;
          }
        }

        // Invariant: at most one tile holds any line Modified, and if
        // one does, no other tile holds it at all.
        if (op % 97 == 0) {
            const Addr line = a & ~Addr{15};
            int holders = 0, modified = 0;
            for (TileId t = 0; t < 25; ++t) {
                const arch::Mesi s = mem_.probeL15(t, line);
                holders += (s != arch::Mesi::Invalid);
                modified += (s == arch::Mesi::Modified);
            }
            EXPECT_LE(modified, 1);
            if (modified == 1) {
                EXPECT_EQ(holders, 1);
            }
        }
    }
}

TEST_P(CoherenceFuzz, L1dNeverHoldsWhatL15Lost)
{
    // L1D inclusion in the L1.5: a valid L1D line implies a valid L1.5
    // line (the write-through L1D is encapsulated by the L1.5).
    Rng rng(GetParam() ^ 0xABC);
    Cycle now = 0;
    for (int op = 0; op < 3000; ++op) {
        const auto tile = static_cast<TileId>(rng.below(25));
        const Addr a = 0x80000 + rng.below(512) * 16;
        RegVal data;
        if (rng.chance(0.6))
            now += mem_.load(tile, a, data, now).latency;
        else
            now += mem_.store(tile, a, rng.next(), now).latency;
        if (op % 31 == 0) {
            for (TileId t = 0; t < 25; ++t) {
                if (mem_.probeL1d(t, a) != arch::Mesi::Invalid) {
                    EXPECT_NE(mem_.probeL15(t, a), arch::Mesi::Invalid)
                        << "L1D/L1.5 inclusion violated at tile " << t;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoherenceFuzz,
                         testing::Values(11u, 222u, 3333u, 44444u));

// ---------------------------------------------------------------------
// NoC properties over all tile pairs.

TEST(NocProperties, AllPairsRouteWithinMeshBounds)
{
    config::PitonParams params;
    power::EnergyModel energy;
    power::EnergyLedger ledger;
    arch::NocNetwork noc(params, energy, ledger);
    for (TileId s = 0; s < 25; ++s) {
        for (TileId d = 0; d < 25; ++d) {
            arch::Packet p;
            p.src = s;
            p.dst = d;
            p.flits = {arch::makeHeaderFlit(d, s, 0, 1)};
            const auto r = noc.send(p);
            EXPECT_LE(r.hops, 8u);
            EXPECT_LE(r.turns, 1u); // XY routing turns at most once
            EXPECT_EQ(r.hops, noc.hopsBetween(d, s)); // symmetric
            EXPECT_EQ(r.headLatency, r.hops + r.turns);
        }
    }
}

TEST(NocProperties, EnergyMonotonicInToggledBits)
{
    power::EnergyModel energy;
    double prev = -1.0;
    for (std::uint32_t bits = 0; bits <= 64; ++bits) {
        const double e = energy.nocHopEnergy(bits).total();
        EXPECT_GT(e, prev);
        prev = e;
    }
}

TEST(NocProperties, RepeatedIdenticalFlitsCostRouterOnly)
{
    config::PitonParams params;
    power::EnergyModel energy;
    power::EnergyLedger ledger;
    arch::NocNetwork noc(params, energy, ledger);
    arch::Packet p;
    p.src = 0;
    p.dst = 4;
    p.flits.assign(7, 0x1234567812345678ULL);
    noc.send(p); // prime the links
    const auto r = noc.send(p); // identical flits: zero toggles
    const double per_flit_hop =
        jToPj(r.energyJ) / (7.0 * 4.0 + 7.0 /*ejection*/);
    EXPECT_NEAR(per_flit_hop, energy.params().nocRouterFlitPj, 0.01);
}

// ---------------------------------------------------------------------
// EPI monotonicity in operand activity, across all variant classes.

class EpiActivity : public testing::TestWithParam<isa::InstClass>
{
};

TEST_P(EpiActivity, EnergyIsAffineAndMonotonicInActivity)
{
    power::EnergyModel m;
    double prev = -1.0;
    for (std::uint32_t act = 0; act <= 128; act += 8) {
        const double e =
            m.instructionEnergy(GetParam(), act).onChipCoreAndSram();
        EXPECT_GE(e, prev);
        prev = e;
    }
    // Affine: midpoint equals average of endpoints.
    const double lo = m.instructionEnergy(GetParam(), 0).total();
    const double hi = m.instructionEnergy(GetParam(), 128).total();
    const double mid = m.instructionEnergy(GetParam(), 64).total();
    EXPECT_NEAR(mid, 0.5 * (lo + hi), 1e-18);
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, EpiActivity,
    testing::Values(isa::InstClass::IntSimple, isa::InstClass::IntMul,
                    isa::InstClass::IntDiv, isa::InstClass::FpAddD,
                    isa::InstClass::FpMulD, isa::InstClass::FpDivD,
                    isa::InstClass::FpAddS, isa::InstClass::FpMulS,
                    isa::InstClass::FpDivS, isa::InstClass::Load,
                    isa::InstClass::Store, isa::InstClass::Atomic),
    [](const testing::TestParamInfo<isa::InstClass> &info) {
        std::string name = isa::className(info.param);
        for (auto &ch : name)
            if (ch == '-')
                ch = '_';
        return name;
    });

// ---------------------------------------------------------------------
// All EPI variant programs assemble, loop, and stay within the L1I.

class EpiVariantProgram
    : public testing::TestWithParam<workloads::EpiVariant>
{
};

TEST_P(EpiVariantProgram, GeneratesValidInfiniteLoopOnEveryTile)
{
    for (const TileId tile : {0u, 12u, 24u}) {
        for (const auto pattern :
             {workloads::OperandPattern::Minimum,
              workloads::OperandPattern::Random,
              workloads::OperandPattern::Maximum}) {
            const isa::Program p =
                workloads::makeEpiProgram(GetParam(), pattern, tile);
            EXPECT_LE(p.footprintBytes(), 16u * 1024);
            // An infinite loop: some backward branch exists.
            bool has_backward = false;
            for (std::uint32_t i = 0; i < p.size(); ++i) {
                const auto &inst = p.at(i);
                if (isa::isBranch(inst.op) && inst.target <= i)
                    has_backward = true;
            }
            EXPECT_TRUE(has_backward) << GetParam().label;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, EpiVariantProgram,
    testing::ValuesIn(workloads::epiVariants()),
    [](const testing::TestParamInfo<workloads::EpiVariant> &info) {
        std::string name = info.param.label;
        for (auto &ch : name)
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return name + std::to_string(info.index);
    });

// ---------------------------------------------------------------------
// Assembler robustness: garbage never crashes, only throws AsmError.

TEST(AssemblerFuzz, RandomGarbageThrowsCleanErrors)
{
    Rng rng(99);
    const char charset[] =
        "abcdefghijklmnopqrstuvwxyz%r0123456789[]+-, \t\n!";
    for (int trial = 0; trial < 500; ++trial) {
        std::string src;
        const auto len = 1 + rng.below(120);
        for (std::uint64_t i = 0; i < len; ++i)
            src += charset[rng.below(sizeof(charset) - 1)];
        try {
            const isa::Program p = isa::assemble(src);
            (void)p; // valid programs are fine too
        } catch (const isa::AsmError &) {
            // expected for most garbage
        }
    }
    SUCCEED();
}

TEST(AssemblerFuzz, MutatedValidProgramNeverCrashes)
{
    Rng rng(7);
    const std::string base = "loop:\n    add %r1, %r2, %r3\n"
                             "    ldx [%r1 + 8], %r4\n    cmp %r3, %r4\n"
                             "    bne loop\n    halt\n";
    for (int trial = 0; trial < 300; ++trial) {
        std::string src = base;
        // Flip a few characters.
        for (int k = 0; k < 3; ++k)
            src[rng.below(src.size())] =
                static_cast<char>(32 + rng.below(90));
        try {
            isa::assemble(src);
        } catch (const isa::AsmError &) {
        }
    }
    SUCCEED();
}

} // namespace
} // namespace piton
