/**
 * @file
 * Unit tests for the architecture substrates: functional memory,
 * cache arrays, NoC routing/energy, chipset latency chain, MITTS.
 */

#include <gtest/gtest.h>

#include "arch/cache.hh"
#include "arch/chipset.hh"
#include "arch/memory.hh"
#include "arch/noc.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "config/piton_params.hh"
#include "power/energy_model.hh"

namespace piton::arch
{
namespace
{

TEST(MainMemory, ZeroFillAndRoundTrip)
{
    MainMemory m;
    EXPECT_EQ(m.read64(0x1000), 0u);
    EXPECT_EQ(m.pageCount(), 0u);
    m.write64(0x1000, 0xDEADBEEF12345678ULL);
    EXPECT_EQ(m.read64(0x1000), 0xDEADBEEF12345678ULL);
    EXPECT_EQ(m.read64(0x1008), 0u);
    EXPECT_EQ(m.pageCount(), 1u);
}

TEST(MainMemory, PagesAreIndependent)
{
    MainMemory m;
    m.write64(0x0, 1);
    m.write64(0x10000, 2);
    m.write64(0xFFFFFFF000ULL, 3);
    EXPECT_EQ(m.read64(0x0), 1u);
    EXPECT_EQ(m.read64(0x10000), 2u);
    EXPECT_EQ(m.read64(0xFFFFFFF000ULL), 3u);
    EXPECT_EQ(m.pageCount(), 3u);
}

TEST(MainMemory, UnalignedAccessPanics)
{
    MainMemory m;
    EXPECT_THROW(m.read64(0x1001), std::logic_error);
    EXPECT_THROW(m.write64(0x1004, 1), std::logic_error);
}

TEST(MainMemory, BlockRead)
{
    MainMemory m;
    for (Addr a = 0; a < 64; a += 8)
        m.write64(0x2000 + a, a);
    std::vector<RegVal> block;
    m.readBlock(0x2000, 64, block);
    ASSERT_EQ(block.size(), 8u);
    EXPECT_EQ(block[0], 0u);
    EXPECT_EQ(block[7], 56u);
}

class CacheArrayTest : public testing::Test
{
  protected:
    config::CacheParams params_{8 * 1024, 4, 16}; // the L1D geometry
};

TEST_F(CacheArrayTest, GeometryFromParams)
{
    CacheArray c(params_);
    EXPECT_EQ(c.numSets(), 128u);
    EXPECT_EQ(c.ways(), 4u);
    EXPECT_EQ(c.lineBytes(), 16u);
    EXPECT_EQ(c.validCount(), 0u);
}

TEST_F(CacheArrayTest, MissThenHit)
{
    CacheArray c(params_);
    EXPECT_FALSE(c.access(0x1000, 1));
    c.fill(0x1000, Mesi::Shared, 1);
    EXPECT_TRUE(c.access(0x1000, 2));
    EXPECT_TRUE(c.access(0x100F, 3)); // same 16 B line
    EXPECT_FALSE(c.access(0x1010, 4)); // next line
}

TEST_F(CacheArrayTest, LruEvictionWithinSet)
{
    CacheArray c(params_);
    // Five lines aliasing to set 0 (stride = sets * lineBytes = 2048).
    const Addr stride = 128 * 16;
    for (int i = 0; i < 4; ++i)
        c.fill(stride * static_cast<Addr>(i), Mesi::Shared,
               static_cast<Cycle>(i + 1));
    // Touch line 0 so line 1 becomes LRU.
    EXPECT_TRUE(c.access(0, 10));
    const Eviction ev = c.fill(stride * 4, Mesi::Shared, 11);
    EXPECT_TRUE(ev.happened);
    EXPECT_EQ(ev.lineAddr, stride);
    EXPECT_TRUE(c.access(0, 12));
    EXPECT_FALSE(c.access(stride, 13));
}

TEST_F(CacheArrayTest, InvalidateAndStates)
{
    CacheArray c(params_);
    c.fill(0x40, Mesi::Modified, 1);
    EXPECT_EQ(c.probe(0x40), Mesi::Modified);
    EXPECT_TRUE(c.setState(0x40, Mesi::Shared));
    EXPECT_EQ(c.probe(0x40), Mesi::Shared);
    EXPECT_EQ(c.invalidate(0x40), Mesi::Shared);
    EXPECT_EQ(c.probe(0x40), Mesi::Invalid);
    EXPECT_EQ(c.invalidate(0x40), Mesi::Invalid); // idempotent
    EXPECT_FALSE(c.setState(0x40, Mesi::Modified));
}

TEST_F(CacheArrayTest, FillOfResidentLineUpdatesStateWithoutEviction)
{
    CacheArray c(params_);
    c.fill(0x80, Mesi::Shared, 1);
    const Eviction ev = c.fill(0x80, Mesi::Modified, 2);
    EXPECT_FALSE(ev.happened);
    EXPECT_EQ(c.probe(0x80), Mesi::Modified);
    EXPECT_EQ(c.validCount(), 1u);
}

TEST_F(CacheArrayTest, FlushAllEmptiesCache)
{
    CacheArray c(params_);
    c.fill(0x100, Mesi::Shared, 1);
    c.fill(0x200, Mesi::Modified, 2);
    c.flushAll();
    EXPECT_EQ(c.validCount(), 0u);
}

class NocTest : public testing::Test
{
  protected:
    config::PitonParams params_;
    power::EnergyModel energy_;
    power::EnergyLedger ledger_;
    NocNetwork noc_{params_, energy_, ledger_};
};

TEST_F(NocTest, HopAndTurnCounts)
{
    EXPECT_EQ(noc_.hopsBetween(0, 4), 4u);
    EXPECT_EQ(noc_.turnsBetween(0, 4), 0u);  // straight east
    EXPECT_EQ(noc_.hopsBetween(0, 20), 4u);
    EXPECT_EQ(noc_.turnsBetween(0, 20), 0u); // straight south
    EXPECT_EQ(noc_.hopsBetween(0, 24), 8u);
    EXPECT_EQ(noc_.turnsBetween(0, 24), 1u); // one XY turn
}

TEST_F(NocTest, LatencyIsHopsPlusTurnsPlusSerialization)
{
    Packet p;
    p.src = 0;
    p.dst = 9; // (4,1): 5 hops, 1 turn
    p.flits = {makeHeaderFlit(9, 0, 2, 1), 0, 0};
    const NocSendResult r = noc_.send(p);
    EXPECT_EQ(r.hops, 5u);
    EXPECT_EQ(r.turns, 1u);
    EXPECT_EQ(r.headLatency, 6u);
    EXPECT_EQ(r.packetLatency, 8u); // + 2 payload flits
}

TEST_F(NocTest, ZeroHopPacketChargesOnlyEjection)
{
    Packet p;
    p.src = 3;
    p.dst = 3;
    p.flits = {makeHeaderFlit(3, 3, 0, 1)};
    const NocSendResult r = noc_.send(p);
    EXPECT_EQ(r.hops, 0u);
    const double eject = jToPj(r.energyJ);
    EXPECT_NEAR(eject, energy_.params().nocRouterFlitPj, 0.01);
}

TEST_F(NocTest, FullSwitchingCostsMoreThanNoSwitching)
{
    // Prime the links, then send alternating all-ones/all-zeros (FSW)
    // vs all-zeros (NSW) payloads over the same 4-hop route.
    auto send_pattern = [&](RegVal a, RegVal b, int reps) {
        double total = 0.0;
        for (int i = 0; i < reps; ++i) {
            Packet p;
            p.src = 0;
            p.dst = 4;
            p.flits = {a, b, a, b, a, b, a};
            total += noc_.send(p).energyJ;
        }
        return total / reps;
    };
    const double nsw = send_pattern(0, 0, 10);
    const double fsw = send_pattern(0, ~0ULL, 10);
    EXPECT_GT(fsw, nsw * 2.5);
}

TEST_F(NocTest, EnergyScalesLinearlyWithHops)
{
    auto energy_for_dst = [&](TileId dst) {
        // Straight-line destinations: tiles 1..4.
        double total = 0.0;
        for (int i = 0; i < 8; ++i) {
            Packet p;
            p.src = 0;
            p.dst = dst;
            p.flits = {0ULL, ~0ULL, 0ULL, ~0ULL, 0ULL, ~0ULL, 0ULL};
            total += noc_.send(p).energyJ;
        }
        return total / 8;
    };
    const double e1 = energy_for_dst(1);
    const double e2 = energy_for_dst(2);
    const double e4 = energy_for_dst(4);
    EXPECT_NEAR((e2 - e1), (e4 - e2) / 2.0, 1e-12 + 0.05 * (e2 - e1));
    EXPECT_GT(e4, e1);
}

TEST_F(NocTest, StatsAccumulate)
{
    Packet p;
    p.src = 0;
    p.dst = 2;
    p.flits = {makeHeaderFlit(2, 0, 1, 1), 0xFF};
    noc_.send(p);
    EXPECT_EQ(noc_.stats().packets, 1u);
    EXPECT_EQ(noc_.stats().flits, 2u);
    // 2 flits x (2 hops + 1 ejection): every ledger-charged traversal
    // counts.
    EXPECT_EQ(noc_.stats().flitHops, 6u);
    noc_.resetStats();
    EXPECT_EQ(noc_.stats().packets, 0u);
}

TEST_F(NocTest, FlitHopsMatchLedgerChargedEvents)
{
    // With all-zero flits no link bit ever toggles, so every charged
    // event — link hop or ejection — costs exactly nocHopEnergy(0).
    // The ledger total must then equal flitHops x that cost: the EPF
    // denominator counts the same events the ledger charged.
    const double per_event = energy_.nocHopEnergy(0).total();

    // 0-hop (same-tile) packet: 3 flits, ejection only.
    Packet zero;
    zero.src = 7;
    zero.dst = 7;
    zero.flits = {0, 0, 0};
    noc_.send(zero);
    EXPECT_EQ(noc_.stats().flitHops, 3u);
    EXPECT_NEAR(ledger_.category(power::Category::Noc).total(),
                3.0 * per_event, 1e-18);

    // Multi-hop packet: 2 flits over 4 hops + ejection = 10 more.
    noc_.resetStats();
    power::EnergyLedger fresh;
    NocNetwork noc2(params_, energy_, fresh);
    Packet multi;
    multi.src = 0;
    multi.dst = 4;
    multi.flits = {0, 0};
    noc2.send(multi);
    EXPECT_EQ(noc2.stats().flitHops, 2u * (4u + 1u));
    EXPECT_NEAR(fresh.total().total(),
                static_cast<double>(noc2.stats().flitHops) * per_event,
                1e-18);
}

TEST_F(NocTest, ResetStatsClearsLinkState)
{
    // Latch all-ones onto the route's links, then reset.  The next
    // all-zero packet must cost the same as on a fresh network — no
    // toggle energy carried over from the pre-reset traffic.
    Packet prime;
    prime.src = 0;
    prime.dst = 4;
    prime.flits = {~0ULL, ~0ULL};
    noc_.send(prime);
    noc_.resetStats();

    Packet probe;
    probe.src = 0;
    probe.dst = 4;
    probe.flits = {0, 0};
    const double after_reset = noc_.send(probe).energyJ;

    power::EnergyLedger fresh_ledger;
    NocNetwork fresh(params_, energy_, fresh_ledger);
    EXPECT_DOUBLE_EQ(after_reset, fresh.send(probe).energyJ);
}

TEST_F(NocTest, ResetStatsCanPreserveLinkState)
{
    Packet prime;
    prime.src = 0;
    prime.dst = 4;
    prime.flits = {~0ULL, ~0ULL};
    noc_.send(prime);
    noc_.resetStats(/*preserve_link_state=*/true);
    EXPECT_EQ(noc_.stats().packets, 0u);

    // The first all-zero flit now toggles against the latched ones, so
    // it must cost strictly more than on a cleared network.
    Packet probe;
    probe.src = 0;
    probe.dst = 4;
    probe.flits = {0, 0};
    const double preserved = noc_.send(probe).energyJ;

    power::EnergyLedger fresh_ledger;
    NocNetwork fresh(params_, energy_, fresh_ledger);
    EXPECT_GT(preserved, fresh.send(probe).energyJ);
}

TEST_F(NocTest, ResetStatsCoversEveryCounter)
{
    // Guard test for the NocStats member list (see the static_assert
    // in noc.hh): exercise every counter, then verify delta() and
    // resetStats() cover each one.  A counter this test does not
    // exercise cannot be certified, so adding a member means
    // extending this test.
    Packet p;
    p.src = 0;
    p.dst = 6; // 2 hops + a turn
    p.flits = {~0ULL, 0ULL, ~0ULL};
    noc_.send(p);
    const NocStats before = noc_.stats();
    EXPECT_GT(before.packets, 0u);
    EXPECT_GT(before.flits, 0u);
    EXPECT_GT(before.flitHops, 0u);
    EXPECT_GT(before.toggledBits, 0u);

    // delta() against a snapshot isolates exactly the new traffic.
    noc_.send(p);
    const NocStats d = noc_.stats().delta(before);
    EXPECT_EQ(d.packets, 1u);
    EXPECT_EQ(d.flits, 3u);
    EXPECT_EQ(d.flitHops, 3u * (2u + 1u));
    EXPECT_GT(d.toggledBits, 0u);
    // Self-delta is all zeros on every member.
    const NocStats z = before.delta(before);
    EXPECT_EQ(z.packets, 0u);
    EXPECT_EQ(z.flits, 0u);
    EXPECT_EQ(z.flitHops, 0u);
    EXPECT_EQ(z.toggledBits, 0u);

    // resetStats() zeroes every member.
    noc_.resetStats();
    const NocStats after = noc_.stats();
    EXPECT_EQ(after.packets, 0u);
    EXPECT_EQ(after.flits, 0u);
    EXPECT_EQ(after.flitHops, 0u);
    EXPECT_EQ(after.toggledBits, 0u);
}

TEST(HeaderFlit, EncodesFields)
{
    const RegVal h = makeHeaderFlit(24, 3, 6, 9);
    EXPECT_EQ((h >> 48) & 0xFF, 24u);
    EXPECT_EQ((h >> 40) & 0xFF, 3u);
    EXPECT_EQ((h >> 32) & 0xFF, 6u);
    EXPECT_EQ(h & 0xFF, 9u);
}

class ChipsetTest : public testing::Test
{
  protected:
    power::EnergyModel energy_;
    power::EnergyLedger ledger_;
    Chipset chipset_{energy_, ledger_, 42};
};

TEST_F(ChipsetTest, Fig15StagesSumToNominalRoundTrip)
{
    // Fig. 15: ~395 total round-trip cycles = ~790 ns at 500.05 MHz.
    EXPECT_EQ(Chipset::nominalRoundTripCycles(), 395u);
    const double ns = 395.0 / 500.05e6 * 1e9;
    EXPECT_NEAR(ns, 790.0, 1.0);
    EXPECT_EQ(Chipset::memoryLatencyStages().size(), 13u);
    EXPECT_EQ(Chipset::memoryLatencyStages().front().component,
              "Tile Array");
}

TEST_F(ChipsetTest, OffChipPortionExcludesTileArray)
{
    EXPECT_EQ(Chipset::offChipPortionCycles(), 395u - 28u - 17u);
}

TEST_F(ChipsetTest, JitterAveragesToTableVII)
{
    RunningStats s;
    for (int i = 0; i < 20000; ++i)
        s.add(chipset_.memoryRoundTrip(0));
    // 395 nominal + mean 29 jitter = 424 average (Table VII).
    EXPECT_NEAR(s.mean(), 424.0, 1.0);
    EXPECT_GE(s.min(), 395.0);
    EXPECT_LE(s.max(), 453.0);
}

TEST_F(ChipsetTest, CrossingChargesVioAndBridge)
{
    chipset_.memoryRoundTrip(0);
    EXPECT_EQ(chipset_.stats().requests, 1u);
    EXPECT_EQ(chipset_.stats().dramAccesses, 2u); // 32-bit interface
    EXPECT_EQ(chipset_.stats().bridgeFlits, 12u); // 3 out + 9 back
    EXPECT_EQ(chipset_.stats().vioBeats, 24u);
    EXPECT_GT(ledger_.category(power::Category::ChipBridge)
                  .get(power::Rail::Vio),
              0.0);
}

} // namespace
} // namespace piton::arch
