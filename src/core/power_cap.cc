#include "core/power_cap.hh"

#include "common/logging.hh"
#include "telemetry/recorder.hh"
#include "telemetry/schema.hh"
#include "workloads/microbenchmarks.hh"

namespace piton::core
{

PowerCapExperiment::PowerCapExperiment(sim::SystemOptions opts,
                                       std::uint32_t samples)
    : opts_(opts), samples_(samples)
{
    opts_.chipId = 3; // consistent with the microbenchmark studies
}

double
PowerCapExperiment::hpPowerW(std::uint32_t cores)
{
    piton_assert(cores <= 25, "core count out of range");
    const auto it = powerCache_.find(cores);
    if (it != powerCache_.end())
        return it->second;

    sim::System sys(opts_);
    double p = 0.0;
    if (cores == 0) {
        p = sys.idlePowerW();
    } else {
        const auto programs = workloads::loadMicrobench(
            sys, workloads::Microbench::HP, cores, 2, /*iterations=*/0);
        // Measure through the telemetry path: the monitor chain lands
        // its samples in the recorder and the steady-state power is
        // the aggregate mean of the measured on-chip series.
        telemetry::TelemetryRecorder rec;
        sys.attachTelemetry(&rec);
        sys.measure(samples_);
        p = rec.aggregate(telemetry::schema::kMeasuredOnChipW).mean;
    }
    powerCache_.emplace(cores, p);
    return p;
}

StaticCapResult
PowerCapExperiment::maxCoresUnderCap(double cap_w)
{
    StaticCapResult res;
    res.capW = cap_w;
    for (std::uint32_t c = 0; c <= 25; ++c) {
        const double p = hpPowerW(c);
        if (p <= cap_w) {
            res.maxCores = c;
            res.powerAtMaxW = p;
        } else {
            break;
        }
    }
    res.headroomW = cap_w - res.powerAtMaxW;
    return res;
}

} // namespace piton::core
