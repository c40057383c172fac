#include "thermal/thermal_model.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace piton::thermal
{

ThermalModel::ThermalModel(ThermalParams params) : params_(params)
{
    piton_assert(params_.dieCap > 0.0 && params_.packageCap > 0.0
                     && params_.sinkCap > 0.0,
                 "thermal capacitances must be positive");
    reset();
}

void
ThermalModel::setFanEffectiveness(double eff)
{
    piton_assert(eff >= 0.0 && eff <= 1.0,
                 "fan effectiveness %.2f outside [0,1]", eff);
    params_.fanEffectiveness = eff;
}

void
ThermalModel::reset()
{
    state_.dieC = params_.ambientC;
    state_.packageC = params_.ambientC;
    state_.sinkC = params_.ambientC;
}

double
ThermalModel::convectionR() const
{
    const double base = params_.hasHeatSink ? params_.sinkToAmbientR
                                            : params_.packageToAmbientNoSinkR;
    // Linear interpolation between full-fan and fan-off resistance.
    const double factor = params_.fanOffFactor
                          - (params_.fanOffFactor - 1.0)
                                * params_.fanEffectiveness;
    return base * factor;
}

void
ThermalModel::step(double power_w, double dt_s)
{
    piton_assert(dt_s > 0.0, "dt must be positive");
    // Sub-step at a fraction of the fastest time constant (the die).
    const double tau_die = params_.dieCap * params_.dieToPackageR;
    const double max_h = std::max(1e-4, tau_die * 0.2);
    int n = std::max(1, static_cast<int>(std::ceil(dt_s / max_h)));
    const double h = dt_s / n;

    for (int i = 0; i < n; ++i) {
        if (params_.hasHeatSink) {
            const double q_dp =
                (state_.dieC - state_.packageC) / params_.dieToPackageR;
            const double q_ps =
                (state_.packageC - state_.sinkC) / params_.packageToSinkR;
            const double q_sa =
                (state_.sinkC - params_.ambientC) / convectionR();
            state_.dieC += h * (power_w - q_dp) / params_.dieCap;
            state_.packageC += h * (q_dp - q_ps) / params_.packageCap;
            state_.sinkC += h * (q_ps - q_sa) / params_.sinkCap;
        } else {
            const double q_dp =
                (state_.dieC - state_.packageC) / params_.dieToPackageR;
            const double q_pa =
                (state_.packageC - params_.ambientC) / convectionR();
            state_.dieC += h * (power_w - q_dp) / params_.dieCap;
            state_.packageC += h * (q_dp - q_pa) / params_.packageCap;
            state_.sinkC = state_.packageC;
        }
    }
}

ThermalState
ThermalModel::steadyState(double power_w) const
{
    ThermalState s;
    if (params_.hasHeatSink) {
        s.sinkC = params_.ambientC + power_w * convectionR();
        s.packageC = s.sinkC + power_w * params_.packageToSinkR;
        s.dieC = s.packageC + power_w * params_.dieToPackageR;
    } else {
        s.packageC = params_.ambientC + power_w * convectionR();
        s.sinkC = s.packageC;
        s.dieC = s.packageC + power_w * params_.dieToPackageR;
    }
    return s;
}

} // namespace piton::thermal
