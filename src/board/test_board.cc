#include "board/test_board.hh"

#include <cmath>

#include "common/logging.hh"

namespace piton::board
{

TestBoard::TestBoard(std::uint64_t noise_seed) : rng_(noise_seed)
{
    channels_[static_cast<std::size_t>(power::Rail::Vdd)].setpointV = 1.00;
    channels_[static_cast<std::size_t>(power::Rail::Vcs)].setpointV = 1.05;
    auto &vio = channels_[static_cast<std::size_t>(power::Rail::Vio)];
    vio.setpointV = 1.80;
    vio.socketResistanceOhm = 0.050;
}

SupplyChannel &
TestBoard::channel(power::Rail r)
{
    return channels_[static_cast<std::size_t>(r)];
}

const SupplyChannel &
TestBoard::channel(power::Rail r) const
{
    return channels_[static_cast<std::size_t>(r)];
}

void
TestBoard::setSupply(power::Rail r, double volts)
{
    piton_assert(supplyInRange(volts), "supply setpoint %.2f V out of"
                 " the board's range", volts);
    channel(r).setpointV = volts;
}

double
TestBoard::socketVoltage(power::Rail r, double current_a) const
{
    const SupplyChannel &ch = channel(r);
    if (ch.remoteSense)
        return ch.setpointV; // the supply regulates at the sense point
    return ch.setpointV
           - current_a * (ch.cableResistanceOhm + ch.senseResistorOhm);
}

double
TestBoard::dieVoltage(power::Rail r, double current_a) const
{
    return socketVoltage(r, current_a)
           - current_a * channel(r).socketResistanceOhm;
}

RailSample
TestBoard::sampleRail(power::Rail r, double true_w)
{
    piton_assert(true_w >= 0.0, "negative rail power");
    // Solve for the true current at the socket voltage.
    const SupplyChannel &ch = channel(r);
    double v = ch.setpointV;
    double i = true_w / v;
    if (!ch.remoteSense) {
        v = socketVoltage(r, i); // one fixed-point step is plenty
        i = true_w / v;
    }

    auto quantize = [](double value, double lsb) {
        return std::round(value / lsb) * lsb;
    };
    RailSample s;
    s.voltageV = quantize(v + rng_.gaussian(0.0, monitor_.voltageNoiseV),
                          monitor_.voltageLsbV);
    s.currentA = quantize(i + rng_.gaussian(0.0, monitor_.currentNoiseA),
                          monitor_.currentLsbA);
    if (s.currentA < 0.0)
        s.currentA = 0.0;
    return s;
}

} // namespace piton::board
