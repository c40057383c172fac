/**
 * @file
 * Unit tests for the power models: energy tables, scaling laws, V-f.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/types.hh"
#include "power/energy_model.hh"
#include "power/vf_model.hh"

namespace piton::power
{
namespace
{

using isa::InstClass;

TEST(EnergyModel, OperandActivityIsHammingWeight)
{
    EXPECT_EQ(EnergyModel::operandActivity(0, 0), 0u);
    EXPECT_EQ(EnergyModel::operandActivity(~0ULL, ~0ULL), 128u);
    EXPECT_EQ(EnergyModel::operandActivity(0xFFULL, 0), 8u);
    EXPECT_EQ(EnergyModel::operandActivity(0xAAAAAAAAAAAAAAAAULL,
                                           0x5555555555555555ULL),
              64u);
}

TEST(EnergyModel, MemoizedInstructionEnergyIsByteIdentical)
{
    // The per-(class, activity-bucket) memo must return the exact bits
    // the uncached computation produces — the ledger sums these values
    // millions of times, so even a 1-ulp drift would be observable.
    const EnergyModel m;
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(InstClass::NumClasses); ++c) {
        const auto cls = static_cast<InstClass>(c);
        for (std::uint32_t act = 0; act < EnergyModel::kActivityBuckets;
             ++act) {
            const RailEnergy cached = m.instructionEnergy(cls, act);
            const RailEnergy ref = m.instructionEnergyUncached(cls, act);
            for (const Rail r : {Rail::Vdd, Rail::Vcs, Rail::Vio}) {
                std::uint64_t a = 0, b = 0;
                const double da = cached.get(r), db = ref.get(r);
                std::memcpy(&a, &da, sizeof(a));
                std::memcpy(&b, &db, sizeof(b));
                ASSERT_EQ(a, b) << "class " << c << " activity " << act;
            }
        }
    }
}

TEST(EnergyModel, OperandValuesChangeEpi)
{
    const EnergyModel m;
    const double e_min =
        m.instructionEnergy(InstClass::IntSimple, 0).onChipCoreAndSram();
    const double e_mid =
        m.instructionEnergy(InstClass::IntSimple, 64).onChipCoreAndSram();
    const double e_max =
        m.instructionEnergy(InstClass::IntSimple, 128).onChipCoreAndSram();
    EXPECT_LT(e_min, e_mid);
    EXPECT_LT(e_mid, e_max);
    EXPECT_NEAR(e_mid, 0.5 * (e_min + e_max), 1e-18);
}

TEST(EnergyModel, ClassOrderingMatchesFig11)
{
    const EnergyModel m;
    auto epi = [&](InstClass c) {
        return jToPj(m.instructionEnergy(c, 64).onChipCoreAndSram());
    };
    // Longest-latency instructions consume the most energy.
    EXPECT_LT(epi(InstClass::Nop), epi(InstClass::IntSimple));
    EXPECT_LT(epi(InstClass::IntSimple), epi(InstClass::IntMul));
    EXPECT_LT(epi(InstClass::IntMul), epi(InstClass::IntDiv));
    EXPECT_LT(epi(InstClass::FpAddD), epi(InstClass::FpMulD));
    EXPECT_LT(epi(InstClass::FpMulD), epi(InstClass::FpDivD));
    EXPECT_LT(epi(InstClass::FpAddS), epi(InstClass::FpAddD));
    EXPECT_LT(epi(InstClass::FpDivS), epi(InstClass::FpDivD));
    // The "recompute vs load" insight: ~3 adds = 1 L1-hit load.  The
    // raw table ratio sits slightly below 3 because the *measured* EPI
    // (validated in EpiIntegration.RecomputeVsLoadInsight) also carries
    // the leakage of the warmer die during the test.
    const double load_epi =
        jToPj(m.instructionEnergy(InstClass::Load, 38).onChipCoreAndSram());
    EXPECT_NEAR(load_epi / epi(InstClass::IntSimple), 2.8, 0.5);
}

TEST(EnergyModel, DynamicEnergyScalesWithVSquared)
{
    EnergyModel m;
    const double e_nom =
        m.instructionEnergy(InstClass::IntSimple, 64).total();
    m.setOperatingPoint(1.2, 1.25);
    const double e_high =
        m.instructionEnergy(InstClass::IntSimple, 64).total();
    // VDD fraction scales by 1.44, VCS fraction by (1.25/1.05)^2.
    EXPECT_GT(e_high, e_nom * 1.3);
    EXPECT_LT(e_high, e_nom * 1.5);

    m.setOperatingPoint(0.8, 0.85);
    const double e_low =
        m.instructionEnergy(InstClass::IntSimple, 64).total();
    EXPECT_LT(e_low, e_nom * 0.7);
}

TEST(EnergyModel, NocEpfMatchesFig12Slopes)
{
    const EnergyModel m;
    // NSW: no payload toggles.
    EXPECT_NEAR(jToPj(m.nocHopEnergy(0).total()), 3.58, 0.1);
    // FSW: all 64 bits toggle (the table sits above the measured
    // 16.68 pJ/hop because low-weight header flits dilute the
    // observed per-flit average).
    EXPECT_NEAR(jToPj(m.nocHopEnergy(64).total()), 18.3, 0.6);
    // HSW: half the bits toggle; roughly linear in activity factor.
    const double hsw = jToPj(m.nocHopEnergy(32).total());
    EXPECT_GT(hsw, 9.5);
    EXPECT_LT(hsw, 12.5);
    // Coupling: opposing adjacent transitions cost slightly more.
    const auto opposing = EnergyModel::opposingPairs(
        0xAAAAAAAAAAAAAAAAULL, 0x5555555555555555ULL);
    EXPECT_GT(opposing, 32u);
    EXPECT_GT(m.nocHopEnergy(64, opposing).total(),
              m.nocHopEnergy(64, 0).total());
    // Same-direction full switching has no opposing pairs.
    EXPECT_EQ(EnergyModel::opposingPairs(0, ~RegVal{0}), 0u);
}

TEST(EnergyModel, LeakageExponentialInVoltageAndTemperature)
{
    EnergyModel m;
    const double base =
        m.leakagePowerW(m.params().refTempC).onChipCoreAndSram();
    EXPECT_NEAR(base, 0.389, 0.01); // Table V static power (Chip #2)

    const double hot =
        m.leakagePowerW(m.params().refTempC + 20.0).onChipCoreAndSram();
    EXPECT_NEAR(hot / base, std::exp(0.020 * 20.0), 1e-6);

    m.setOperatingPoint(1.1, 1.15);
    const double high_v =
        m.leakagePowerW(m.params().refTempC).onChipCoreAndSram();
    EXPECT_NEAR(high_v / base, std::exp(4.5 * 0.1), 1e-6);

    // Chip leakage factor scales linearly.
    const double leaky =
        m.leakagePowerW(m.params().refTempC, 1.45).onChipCoreAndSram();
    EXPECT_NEAR(leaky / high_v, 1.45, 1e-9);
}

TEST(EnergyModel, IdlePowerMatchesTableV)
{
    const EnergyModel m;
    // At the die's idle-equilibrium temperature (~41 C) the chip burns
    // ~2015 mW (Table V).
    const double idle = m.idlePowerW(mhzToHz(500.05), 25, 41.2);
    EXPECT_NEAR(idle, 2.0153, 0.03);
}

TEST(EnergyModel, LedgerAccumulatesByCategory)
{
    const EnergyModel m;
    EnergyLedger ledger;
    ledger.add(Category::Exec, m.instructionEnergy(InstClass::IntSimple, 64));
    ledger.add(Category::Exec, m.instructionEnergy(InstClass::IntSimple, 64));
    ledger.add(Category::Noc, m.nocHopEnergy(32));
    EXPECT_GT(ledger.category(Category::Exec).total(), 0.0);
    EXPECT_GT(ledger.category(Category::Noc).total(), 0.0);
    EXPECT_DOUBLE_EQ(ledger.total().total(),
                     ledger.category(Category::Exec).total()
                         + ledger.category(Category::Noc).total());
    ledger.reset();
    EXPECT_DOUBLE_EQ(ledger.total().total(), 0.0);
}

/** Rail-by-rail bit equality (EXPECT_DOUBLE_EQ would forgive ulps). */
bool
sameBits(const RailEnergy &a, const RailEnergy &b)
{
    for (const Rail r : {Rail::Vdd, Rail::Vcs, Rail::Vio}) {
        const double x = a.get(r), y = b.get(r);
        if (std::memcmp(&x, &y, sizeof x) != 0)
            return false;
    }
    return true;
}

bool
sameLedgerBits(const EnergyLedger &a, const EnergyLedger &b)
{
    if (!sameBits(a.total(), b.total()))
        return false;
    for (std::size_t c = 0; c < kNumCategories; ++c)
        if (!sameBits(a.category(static_cast<Category>(c)),
                      b.category(static_cast<Category>(c))))
            return false;
    return true;
}

/** A charge whose magnitude spans nine decades, so that sums of a few
 *  of them round differently in different orders. */
RailEnergy
randomCharge(Rng &rng)
{
    RailEnergy e;
    for (const Rail r : {Rail::Vdd, Rail::Vcs, Rail::Vio})
        e.add(r, rng.uniform(1.0, 2.0)
                     * std::pow(10.0, -12.0 + static_cast<double>(
                                                  rng.below(10))));
    return e;
}

TEST(EnergyLedger, ReplayMatchesAddInCycleActorSequenceOrder)
{
    // replayCaptures must perform exactly the adds in-order stepping
    // would: cycle-major, actor-minor, and within one (cycle, actor) in
    // log order.  Logs with random sorted deltas (ties across actors
    // and within an actor), a mix of Exec and other categories, and
    // order-sensitive energies; two rounds so the second starts from
    // non-zero sums.  Adding the same charges actor-major must give
    // different bits in some trial, or the test could not tell a
    // misordered replay from a correct one.
    Rng rng(0x5EED'0FF5);
    int order_sensitive = 0;
    for (int trial = 0; trial < 50; ++trial) {
        EnergyLedger replayed;
        EnergyLedger reference;
        for (int k = 0; k < 3; ++k) { // non-zero starting sums
            const RailEnergy e = randomCharge(rng);
            replayed.add(Category::Exec, e);
            reference.add(Category::Exec, e);
        }
        std::vector<ReplayCursor> cursors;
        for (int round = 0; round < 2; ++round) {
            const std::size_t actors = 1 + rng.below(8);
            std::vector<std::vector<CapturedCharge>> logs(actors);
            // Every charge in (actor, sequence) order; a stable sort by
            // delta then gives the reference (delta, actor, sequence).
            std::vector<CapturedCharge> flat;
            for (std::size_t a = 0; a < actors; ++a) {
                const std::size_t len = rng.below(40); // may stay empty
                std::uint32_t delta = static_cast<std::uint32_t>(
                    rng.below(4));
                for (std::size_t q = 0; q < len; ++q) {
                    delta += static_cast<std::uint32_t>(rng.below(3));
                    const auto cat = static_cast<std::uint8_t>(
                        rng.below(3) != 0 ? 0 : rng.below(kNumCategories));
                    const CapturedCharge ch{randomCharge(rng), delta, cat};
                    logs[a].push_back(ch);
                    flat.push_back(ch);
                }
            }
            std::stable_sort(flat.begin(), flat.end(),
                             [](const CapturedCharge &x,
                                const CapturedCharge &y) {
                                 return x.cycleDelta < y.cycleDelta;
                             });
            EnergyLedger actor_major = reference;
            for (const auto &log : logs)
                for (const CapturedCharge &ch : log)
                    actor_major.add(static_cast<Category>(ch.cat), ch.e);
            replayed.replayCaptures(logs, cursors);
            for (const CapturedCharge &ch : flat)
                reference.add(static_cast<Category>(ch.cat), ch.e);
            ASSERT_TRUE(sameLedgerBits(replayed, reference))
                << "trial " << trial << " round " << round;
            order_sensitive += !sameLedgerBits(actor_major, reference);
        }
    }
    EXPECT_GT(order_sensitive, 0);
}

TEST(EnergyModel, VioEventsHitOnlyVioRail)
{
    const EnergyModel m;
    const RailEnergy e = m.vioBeatEnergy();
    EXPECT_GT(e.get(Rail::Vio), 0.0);
    EXPECT_DOUBLE_EQ(e.get(Rail::Vdd), 0.0);
    EXPECT_DOUBLE_EQ(e.onChipCoreAndSram(), 0.0);
}

TEST(VfModel, CalibrationAnchors)
{
    const VfModel vf;
    // Fig. 10's voltage/frequency pairs: 514.33 MHz @ 1.0 V and
    // 285.74 MHz @ 0.8 V.
    EXPECT_NEAR(vf.rawFmaxMhz(1.0), 514.33, 1.0);
    EXPECT_NEAR(vf.rawFmaxMhz(0.8), 285.74, 1.0);
    // Monotonic over the study's voltage range.
    double prev = 0.0;
    for (double v = 0.8; v <= 1.2001; v += 0.05) {
        const double f = vf.rawFmaxMhz(v);
        EXPECT_GT(f, prev);
        prev = f;
    }
}

TEST(VfModel, SpeedFactorScalesLinearly)
{
    const VfModel vf;
    EXPECT_NEAR(vf.rawFmaxMhz(1.0, 1.045), 514.33 * 1.045, 1.5);
}

TEST(VfModel, QuantizationGrid)
{
    const VfModel vf;
    const double f = vf.quantizeMhz(514.33);
    EXPECT_LE(f, 514.33);
    EXPECT_GT(f, 514.33 - vf.params().freqStepMhz);
    EXPECT_NEAR(vf.nextStepMhz(514.33) - f, vf.params().freqStepMhz, 1e-9);
    // Grid points are self-consistent under re-quantization.
    EXPECT_NEAR(vf.quantizeMhz(f + 1e-9), f, 1e-6);
}

TEST(VfModel, BelowThresholdIsZero)
{
    const VfModel vf;
    EXPECT_DOUBLE_EQ(vf.rawFmaxMhz(0.60 + 1e-9) > 100.0 ? 1.0 : 0.0, 0.0);
}

} // namespace
} // namespace piton::power
