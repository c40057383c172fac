/**
 * @file
 * Power-capping study (a research direction the paper motivates:
 * power is a first-class citizen in data centers [14][15], and
 * Section IV-J discusses TDP/power-capping scheduling [52][53]).
 *
 * Static capping: the largest HP thread count whose steady-state
 * power fits a cap (the Fig. 13 curves, inverted) — the core-count
 * answer to a cap.  The closed-loop answer, a controller that tracks a
 * cap on a running chip, is the pidcap governor (governor/, DESIGN.md
 * §13).
 */

#ifndef PITON_CORE_POWER_CAP_HH
#define PITON_CORE_POWER_CAP_HH

#include <map>

#include "sim/system.hh"

namespace piton::core
{

struct StaticCapResult
{
    double capW = 0.0;
    std::uint32_t maxCores = 0;     ///< at 2 T/C (HP workload)
    double powerAtMaxW = 0.0;
    double headroomW = 0.0;         ///< cap - power
};

class PowerCapExperiment
{
  public:
    explicit PowerCapExperiment(sim::SystemOptions opts = {},
                                std::uint32_t samples = 24);

    /** Steady-state HP power at `cores` active cores (2 T/C), cached.
     *  Measured through the telemetry path: the monitor samples land
     *  in a per-measurement recorder and the reported power is the
     *  aggregate mean of the measured.onchip_w series (bit-identical
     *  to the PowerMeasurement mean — both are the same Welford pass
     *  over the same samples). */
    double hpPowerW(std::uint32_t cores);

    /** Largest HP configuration that fits under the cap. */
    StaticCapResult maxCoresUnderCap(double cap_w);

  private:
    sim::SystemOptions opts_;
    std::uint32_t samples_;
    std::map<std::uint32_t, double> powerCache_;
};

} // namespace piton::core

#endif // PITON_CORE_POWER_CAP_HH
