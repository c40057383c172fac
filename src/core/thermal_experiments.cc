#include "core/thermal_experiments.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/stats.hh"
#include "telemetry/schema.hh"

namespace piton::core
{

sim::SystemOptions
thermalStudyOptions()
{
    sim::SystemOptions o;
    o.chipId = 4; // "a different chip which has not been presented"
    o.vddV = 0.90;
    o.vcsV = 0.95;
    o.coreClockMhz = 100.01;
    o.thermalParams.hasHeatSink = false;
    return o;
}

ThermalSweepExperiment::ThermalSweepExperiment(sim::SystemOptions opts,
                                               std::uint32_t samples)
    : opts_(opts), samples_(samples)
{
}

double
ThermalSweepExperiment::dynamicPowerImplW(
    const sim::SystemOptions &opts, std::uint32_t threads,
    telemetry::TelemetryRecorder *rec) const
{
    sim::System sys(opts);
    std::vector<isa::Program> programs;
    if (threads > 0) {
        const std::uint32_t cores = (threads + 1) / 2;
        const std::uint32_t tpc = threads >= 2 ? 2 : 1;
        programs = workloads::loadMicrobench(
            sys, workloads::Microbench::HP, cores, tpc, /*iterations=*/0);
    }
    // Measure through the telemetry path: a throwaway recorder stands
    // in when the caller does not want the series.
    telemetry::TelemetryRecorder local;
    telemetry::TelemetryRecorder *sink = rec ? rec : &local;
    sys.attachTelemetry(sink);
    sys.measure(samples_);
    const double mean_w =
        sink->aggregate(telemetry::schema::kMeasuredOnChipW).mean;
    // Subtract leakage at the measurement's die temperature to isolate
    // the temperature-independent dynamic component.
    const double leak =
        sys.energyModel()
            .leakagePowerW(sys.dieTempC(), sys.chipInstance().leakFactor)
            .onChipCoreAndSram();
    return std::max(0.0, mean_w - leak);
}

std::vector<ThermalPoint>
ThermalSweepExperiment::sweep(std::uint32_t threads,
                              std::uint32_t fan_steps,
                              telemetry::TelemetryRecorder *rec) const
{
    return sweepImpl(opts_, threads, fan_steps, rec);
}

std::vector<ThermalPoint>
ThermalSweepExperiment::sweepImpl(const sim::SystemOptions &opts,
                                  std::uint32_t threads,
                                  std::uint32_t fan_steps,
                                  telemetry::TelemetryRecorder *rec) const
{
    const double dyn_w = dynamicPowerImplW(opts, threads, rec);
    power::EnergyModel energy(opts.energyParams);
    energy.setOperatingPoint(opts.vddV, opts.vcsV);
    const chip::ChipInstance inst = chip::makeChip(opts.chipId);

    namespace ts = telemetry::schema;
    std::size_t id_p = 0, id_t = 0, id_f = 0;
    if (rec) {
        using telemetry::Downsample;
        using telemetry::Unit;
        id_p = rec->defineSeries(ts::kSweepPowerW, Unit::Watts,
                                 Downsample::Mean);
        id_t = rec->defineSeries(ts::kSweepPackageC, Unit::Celsius,
                                 Downsample::Mean);
        id_f = rec->defineSeries(ts::kSweepFan, Unit::Count,
                                 Downsample::Mean);
    }

    std::vector<ThermalPoint> out;
    for (std::uint32_t s = 0; s < fan_steps; ++s) {
        thermal::ThermalParams tp = opts.thermalParams;
        tp.fanEffectiveness =
            1.0 - static_cast<double>(s) / (fan_steps - 1);
        const thermal::ThermalModel tm(tp);
        // Fixed point: P = dyn + leak(T_die), T = steadyState(P).
        double temp = tp.ambientC;
        double p = dyn_w;
        for (int i = 0; i < 200; ++i) {
            const double leak =
                energy.leakagePowerW(temp, inst.leakFactor)
                    .onChipCoreAndSram();
            p = dyn_w + leak;
            const double t_new = tm.steadyState(p).dieC;
            if (std::abs(t_new - temp) < 1e-5)
                break;
            temp = 0.5 * (temp + t_new);
        }
        ThermalPoint pt;
        pt.activeThreads = threads;
        pt.fanEffectiveness = tp.fanEffectiveness;
        pt.packageTempC = tm.steadyState(p).packageC;
        pt.powerW = p;
        out.push_back(pt);
        if (rec) {
            const double step = static_cast<double>(s);
            rec->record(id_p, step, 1.0, pt.powerW);
            rec->record(id_t, step, 1.0, pt.packageTempC);
            rec->record(id_f, step, 1.0, pt.fanEffectiveness);
        }
    }
    return out;
}

std::vector<ThermalPoint>
ThermalSweepExperiment::runAll(telemetry::TelemetryRecorder *merged) const
{
    const std::vector<std::uint32_t> families = {0u, 10u, 20u,
                                                 30u, 40u, 50u};
    std::vector<std::vector<ThermalPoint>> per_family(families.size());
    // One recorder per task; merged in task-index order after the
    // join, so the store is bit-identical at any sweepThreads value.
    std::vector<telemetry::TelemetryRecorder> recs(
        merged ? families.size() : 0);
    parallelFor(families.size(), opts_.sweepThreads, [&](std::size_t i) {
        sim::SystemOptions o = opts_;
        o.seed = deriveTaskSeed(opts_.seed, i);
        per_family[i] = sweepImpl(o, families[i], /*fan_steps=*/12,
                                  merged ? &recs[i] : nullptr);
    });

    std::vector<ThermalPoint> out;
    for (const auto &pts : per_family)
        out.insert(out.end(), pts.begin(), pts.end());
    if (merged) {
        for (std::size_t i = 0; i < recs.size(); ++i) {
            merged->setCyclesPerSample(recs[i].cyclesPerSample());
            std::string prefix = "threads=";
            prefix += static_cast<char>('0' + families[i] / 10);
            prefix += static_cast<char>('0' + families[i] % 10);
            prefix += '/';
            merged->merge(recs[i], prefix);
        }
    }
    return out;
}

const char *
scheduleName(Schedule s)
{
    switch (s) {
      case Schedule::Synchronized: return "synchronized";
      case Schedule::Interleaved: return "interleaved";
      default:
        piton_panic("bad Schedule");
    }
}

SchedulingExperiment::SchedulingExperiment(sim::SystemOptions opts,
                                           std::uint32_t samples)
    : opts_(opts), samples_(samples)
{
}

double
SchedulingExperiment::computePhasePowerW() const
{
    sim::System sys(opts_);
    const auto programs = workloads::loadMicrobench(
        sys, workloads::Microbench::Int, 25, 2, /*iterations=*/0);
    const auto m = sys.measure(samples_);
    const double leak =
        sys.energyModel()
            .leakagePowerW(sys.dieTempC(), sys.chipInstance().leakFactor)
            .onChipCoreAndSram();
    return std::max(0.0, m.onChipMeanW() - leak);
}

double
SchedulingExperiment::idlePhasePowerW() const
{
    sim::System sys(opts_);
    // All 50 threads in the nop loop.
    static const isa::Program nop_loop = [] {
        isa::ProgramBuilder b;
        b.label("loop").nop().nop().nop().nop().ba("loop");
        return b.build();
    }();
    for (TileId t = 0; t < 25; ++t) {
        sys.loadProgram(t, 0, &nop_loop);
        sys.loadProgram(t, 1, &nop_loop);
    }
    const auto m = sys.measure(samples_);
    const double leak =
        sys.energyModel()
            .leakagePowerW(sys.dieTempC(), sys.chipInstance().leakFactor)
            .onChipCoreAndSram();
    return std::max(0.0, m.onChipMeanW() - leak);
}

ScheduleResult
SchedulingExperiment::run(Schedule schedule, double phase_seconds,
                          double duration_seconds,
                          double step_seconds) const
{
    const double p_compute = computePhasePowerW();
    const double p_idle = idlePhasePowerW();

    power::EnergyModel energy(opts_.energyParams);
    energy.setOperatingPoint(opts_.vddV, opts_.vcsV);
    const chip::ChipInstance inst = chip::makeChip(opts_.chipId);
    thermal::ThermalModel tm(opts_.thermalParams);
    board::TestBoard tb(0xF162 ^ static_cast<std::uint64_t>(schedule));

    // Warm to the mean-power steady state before recording.
    const double p_mean_dyn = 0.5 * (p_compute + p_idle);
    for (int i = 0; i < 4000; ++i) {
        const double leak =
            energy.leakagePowerW(tm.dieTempC(), inst.leakFactor)
                .onChipCoreAndSram();
        tm.step(p_mean_dyn + leak, 1.0);
    }

    ScheduleResult res;
    res.schedule = schedule;
    RunningStats p_stats, t_stats;
    double t_min = 1e9, t_max = -1e9;
    for (double t = 0.0; t < duration_seconds; t += step_seconds) {
        const bool phase_a =
            static_cast<std::uint64_t>(t / phase_seconds) % 2 == 0;
        double dyn = 0.0;
        if (schedule == Schedule::Synchronized) {
            dyn = phase_a ? p_compute : p_idle;
        } else {
            // 26 threads in one phase, 24 in the opposite phase.
            const double hi = phase_a ? 26.0 : 24.0;
            dyn = (hi * p_compute + (50.0 - hi) * p_idle) / 50.0;
        }
        // Leakage follows the die *hotspot*: synchronized scheduling
        // concentrates the compute phase in time, so its high phase
        // runs a hotter hotspot than the interleaved schedule's
        // spatially-averaged load, and the exponential leakage turns
        // that asymmetry into extra average power and temperature —
        // the mechanism behind the paper's 0.22 C observation.
        constexpr double kHotspotRperW = 14.0;
        const double hotspot =
            tm.dieTempC() + kHotspotRperW * (dyn - p_mean_dyn);
        const double leak =
            energy.leakagePowerW(hotspot, inst.leakFactor)
                .onChipCoreAndSram();
        const double p_true = dyn + leak;
        tm.step(p_true, step_seconds);

        SchedulePoint pt;
        pt.timeS = t;
        const auto vdd = tb.sampleRail(power::Rail::Vdd, p_true * 0.86);
        const auto vcs = tb.sampleRail(power::Rail::Vcs, p_true * 0.14);
        pt.powerW = vdd.powerW() + vcs.powerW();
        pt.packageTempC = tm.packageTempC();
        res.trace.push_back(pt);
        p_stats.add(p_true);
        t_stats.add(pt.packageTempC);
        t_min = std::min(t_min, pt.packageTempC);
        t_max = std::max(t_max, pt.packageTempC);
    }
    res.avgPowerW = p_stats.mean();
    res.avgPackageTempC = t_stats.mean();
    res.tempSwingC = t_max - t_min;
    return res;
}

} // namespace piton::core
