/**
 * @file
 * The custom Piton test PCB (Section III-A).
 *
 * The board was designed specifically for power characterization:
 *  - each of the three supplies (VDD, VCS, VIO) can come from a bench
 *    power supply with remote voltage sense (compensating cable/board
 *    IR drop up to the socket pins);
 *  - sense resistors bridge split power planes so that only current
 *    delivered to the chip is measured;
 *  - I2C voltage monitors read the socket-pin voltage and the drop
 *    across each sense resistor, polled at ~17 Hz.
 *
 * The model reproduces the measurement error sources the paper
 * reports: monitor quantization, sampling noise, and the fact that the
 * recorded voltages exclude socket/wirebond/die IR drop (so the die
 * sees slightly less than the reported voltage).
 */

#ifndef PITON_BOARD_TEST_BOARD_HH
#define PITON_BOARD_TEST_BOARD_HH

#include <array>

#include "common/rng.hh"
#include "power/rails.hh"

namespace piton::board
{

struct SupplyChannel
{
    double setpointV = 1.0;
    bool benchSupply = true;   ///< bench supplies are used for all studies
    bool remoteSense = true;   ///< compensates drop up to the socket pins
    double cableResistanceOhm = 0.020; ///< matters only without remote sense
    double senseResistorOhm = 0.005;
    /** Socket + wirebond resistance between pins and die (not
     *  compensated; Section IV-C discusses the resulting IR drop). */
    double socketResistanceOhm = 0.030;
};

struct MonitorParams
{
    double pollHz = 17.0;       ///< monitor device limitation
    double voltageLsbV = 0.001; ///< 12-bit-class monitor quantization
    double currentLsbA = 0.001;
    double voltageNoiseV = 0.0001;
    double currentNoiseA = 0.0014;
};

/** One monitor sample of a rail. */
struct RailSample
{
    double voltageV = 0.0; ///< at the socket pins
    double currentA = 0.0;
    double powerW() const { return voltageV * currentA; }
};

class TestBoard
{
  public:
    explicit TestBoard(std::uint64_t noise_seed = 0x50C0);

    SupplyChannel &channel(power::Rail r);
    const SupplyChannel &channel(power::Rail r) const;
    MonitorParams &monitor() { return monitor_; }
    const MonitorParams &monitor() const { return monitor_; }

    /** Program a supply setpoint (panics outside supplyInRange). */
    void setSupply(power::Rail r, double volts);

    /** Whether a rail can be set to `volts`. */
    static bool supplyInRange(double volts)
    {
        return volts > 0.0 && volts < 2.5;
    }

    /** True voltage at the socket pins while drawing `current_a`. */
    double socketVoltage(power::Rail r, double current_a) const;

    /** Voltage actually reaching the die (socket/wirebond IR drop). */
    double dieVoltage(power::Rail r, double current_a) const;

    /**
     * One I2C monitor sample of a rail drawing true power `true_w`.
     * Applies quantization and measurement noise.
     */
    RailSample sampleRail(power::Rail r, double true_w);

    /** Checkpoint hook: supply configuration, monitor parameters, and
     *  the measurement-noise RNG stream position (so a resumed run's
     *  monitor samples continue the identical noise sequence). */
    template <typename Ar>
    void
    serialize(Ar &ar)
    {
        for (auto &ch : channels_) {
            ar.io(ch.setpointV);
            ar.io(ch.benchSupply);
            ar.io(ch.remoteSense);
            ar.io(ch.cableResistanceOhm);
            ar.io(ch.senseResistorOhm);
            ar.io(ch.socketResistanceOhm);
        }
        ar.io(monitor_.pollHz);
        ar.io(monitor_.voltageLsbV);
        ar.io(monitor_.currentLsbA);
        ar.io(monitor_.voltageNoiseV);
        ar.io(monitor_.currentNoiseA);
        Rng::Snapshot snap = rng_.snapshot();
        for (auto &w : snap.s)
            ar.io(w);
        ar.io(snap.haveCached);
        ar.io(snap.cached);
        if (ar.loading())
            rng_.restore(snap);
    }

  private:
    std::array<SupplyChannel, power::kNumRails> channels_;
    MonitorParams monitor_;
    Rng rng_;
};

} // namespace piton::board

#endif // PITON_BOARD_TEST_BOARD_HH
