/**
 * @file
 * Thermal analysis experiments (Section IV-J).
 *
 * Both run with the heat sink removed, at reduced operating conditions
 * (100.01 MHz, VDD 0.9 V, VCS 0.95 V) on a fourth chip, with the FLIR
 * camera replaced by the package node of the RC thermal model:
 *
 *  - Fig. 17: chip power as a function of package temperature for
 *    0..50 active threads of HP, sweeping temperature by tilting the
 *    fan (exponential power/temperature relationship from leakage);
 *  - Fig. 18: the two-phase test application under synchronized vs
 *    interleaved scheduling — power/temperature time series and the
 *    hysteresis loop, with interleaved averaging cooler.
 */

#ifndef PITON_CORE_THERMAL_EXPERIMENTS_HH
#define PITON_CORE_THERMAL_EXPERIMENTS_HH

#include <vector>

#include "sim/system.hh"
#include "telemetry/recorder.hh"
#include "workloads/microbenchmarks.hh"

namespace piton::core
{

/** Operating conditions of the thermal study. */
sim::SystemOptions thermalStudyOptions();

struct ThermalPoint
{
    std::uint32_t activeThreads = 0;
    double fanEffectiveness = 1.0;
    double packageTempC = 0.0;
    double powerW = 0.0;
};

class ThermalSweepExperiment
{
  public:
    explicit ThermalSweepExperiment(
        sim::SystemOptions opts = thermalStudyOptions(),
        std::uint32_t samples = 32);

    /**
     * Sweep fan effectiveness for one thread count.  When `rec` is
     * non-null the underlying measurement's full telemetry (true +
     * measured series) lands there, plus the sweep's own result
     * series (sweep.power_w / sweep.package_c / sweep.fan, indexed by
     * fan step on the time axis).
     */
    std::vector<ThermalPoint>
    sweep(std::uint32_t threads, std::uint32_t fan_steps = 12,
          telemetry::TelemetryRecorder *rec = nullptr) const;

    /**
     * The full Fig. 17 family: threads 0,10,20,30,40,50, one fan
     * sweep per task over opts_.sweepThreads workers.  When `merged`
     * is non-null, each task records into its own recorder and the
     * per-task recorders merge into `merged` in task-index order
     * under "threads=NN/" prefixes — bit-identical at any worker
     * count (the PR 1 sweep-engine contract).
     */
    std::vector<ThermalPoint>
    runAll(telemetry::TelemetryRecorder *merged = nullptr) const;

  private:
    /** Dynamic (temperature-independent) chip power with `threads`
     *  active threads of the HP workload.  Measured through the
     *  telemetry path (mean of the measured.onchip_w series minus
     *  leakage at the measurement temperature). */
    double dynamicPowerImplW(const sim::SystemOptions &opts,
                             std::uint32_t threads,
                             telemetry::TelemetryRecorder *rec) const;
    std::vector<ThermalPoint>
    sweepImpl(const sim::SystemOptions &opts, std::uint32_t threads,
              std::uint32_t fan_steps,
              telemetry::TelemetryRecorder *rec) const;

    sim::SystemOptions opts_;
    std::uint32_t samples_;
};

enum class Schedule
{
    Synchronized, ///< all 50 threads change phase together
    Interleaved,  ///< 26 threads in one phase, 24 in the other
};

const char *scheduleName(Schedule s);

struct SchedulePoint
{
    double timeS = 0.0;
    double powerW = 0.0;        ///< with monitor noise
    double packageTempC = 0.0;
};

struct ScheduleResult
{
    Schedule schedule;
    std::vector<SchedulePoint> trace;
    double avgPowerW = 0.0;
    double avgPackageTempC = 0.0;
    double tempSwingC = 0.0; ///< max - min package temperature
};

class SchedulingExperiment
{
  public:
    explicit SchedulingExperiment(
        sim::SystemOptions opts = thermalStudyOptions(),
        std::uint32_t samples = 32);

    /** Phase powers measured from the two-phase application. */
    double computePhasePowerW() const;
    double idlePhasePowerW() const;

    ScheduleResult run(Schedule schedule, double phase_seconds = 10.0,
                       double duration_seconds = 400.0,
                       double step_seconds = 0.5) const;

  private:
    sim::SystemOptions opts_;
    std::uint32_t samples_;
};

} // namespace piton::core

#endif // PITON_CORE_THERMAL_EXPERIMENTS_HH
