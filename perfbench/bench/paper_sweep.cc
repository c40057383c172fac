/**
 * @file
 * paper_sweep: the five heaviest figure/table experiments, each fanned out
 * over the sweep pool.  Many small independent chips; no service,
 * checkpoint or sampling work.
 */

#include <cmath>
#include <string>
#include <vector>

#include "bench/digest.hh"
#include "bench/workload.hh"
#include "common/parallel.hh"
#include "core/epi_experiment.hh"
#include "core/scaling_experiments.hh"
#include "core/thermal_experiments.hh"
#include "sim/system.hh"
#include "telemetry/export.hh"
#include "telemetry/recorder.hh"
#include "workloads/microbenchmarks.hh"

namespace perfbench
{
namespace
{

using namespace piton;

// Monitor samples per measurement, and Fig. 13's core grid, are smaller
// than the figure benches' defaults so a pass takes seconds and a run
// holds several passes.  Every experiment still runs its whole sweep shape
// (benchmarks, T/C configurations, variants, thread counts).
constexpr std::uint32_t kFig13Samples = 8;
constexpr std::uint32_t kFig14Iterations = 4000;
constexpr std::uint32_t kFig11Samples = 24;
constexpr std::uint32_t kTable7Samples = 48;
constexpr std::uint32_t kFig17Samples = 12;

const std::vector<std::uint32_t> kFig13Grid = {1, 9, 17, 25};

bool
finite(double v)
{
    return std::isfinite(v);
}

class PaperSweep : public Workload
{
  public:
    explicit PaperSweep(const Options &opts) : opts_(opts)
    {
        base_.sweepThreads = opts.threads;
        base_.seed = deriveTaskSeed(opts.seed, 0x5EED);
        thermal_ = core::thermalStudyOptions();
        thermal_.sweepThreads = opts.threads;
        thermal_.seed = deriveTaskSeed(opts.seed, 0x7E4A);
    }

    /** What every sweep point pays before it simulates: a System and a
     *  loaded workload (the Fig. 13 full-chip point). */
    void
    setup() override
    {
        sim::System sys(base_);
        const auto progs = workloads::loadMicrobench(
            sys, workloads::Microbench::Int, 25, 2, 0);
        (void)progs;
    }

    std::string
    pass(Tracer *tr, Checks &checks) override
    {
        Digest d;
        const double cpu0 = processCpuS();
        const auto t0 = Tracer::Clock::now();

        std::vector<core::PowerScalingPoint> fig13;
        {
            Span s(tr, "core.fig13");
            fig13 = core::PowerScalingExperiment(base_, kFig13Samples)
                        .runAll(kFig13Grid);
        }
        bool ok = fig13.size() == kFig13Grid.size() * 3 * 2;
        for (const auto &p : fig13) {
            ok = ok && finite(p.fullChipPowerW) && p.fullChipPowerW > 0.0;
            d.add(static_cast<std::uint64_t>(p.cores));
            d.add(static_cast<std::uint64_t>(p.threadsPerCore));
            d.add(p.fullChipPowerW);
            d.add(p.errW);
        }
        checks.op(ok, "fig13 rows");

        std::vector<core::MtMcPoint> fig14;
        {
            Span s(tr, "core.fig14");
            fig14 = core::MtVsMcExperiment(base_, kFig14Iterations, 4096, 3)
                        .runAll();
        }
        ok = fig14.size() == 3 * 2 * 12;
        for (const auto &p : fig14) {
            ok = ok && finite(p.activePowerW) && p.executionSeconds > 0.0;
            d.add(p.activePowerW);
            d.add(p.activeCoresIdleW);
            d.add(p.activeEnergyJ);
            d.add(p.activeCoresIdleEnergyJ);
            d.add(p.executionSeconds);
        }
        checks.op(ok, "fig14 rows");

        std::vector<core::EpiRow> fig11;
        {
            Span s(tr, "core.fig11");
            core::EpiExperiment exp(base_, kFig11Samples);
            fig11 = exp.runAll();
        }
        ok = !fig11.empty();
        for (const auto &r : fig11) {
            ok = ok && finite(r.epiPj);
            d.add(r.variant);
            d.add(r.epiPj);
            d.add(r.errPj);
        }
        checks.op(ok, "fig11 rows");

        std::vector<core::MemoryEnergyRow> table7;
        {
            Span s(tr, "core.table7");
            table7 =
                core::MemoryEnergyExperiment(base_, kTable7Samples).runAll();
        }
        ok = table7.size() == 5;
        for (const auto &r : table7) {
            ok = ok && finite(r.energyNj) && r.energyNj > 0.0;
            d.add(static_cast<std::uint64_t>(r.latency));
            d.add(r.energyNj);
            d.add(r.errNj);
        }
        checks.op(ok, "table7 rows");

        telemetry::TelemetryRecorder rec;
        std::vector<core::ThermalPoint> fig17;
        {
            Span s(tr, "core.fig17");
            fig17 = core::ThermalSweepExperiment(thermal_, kFig17Samples)
                        .runAll(&rec);
        }
        ok = fig17.size() == 6 * 12 && rec.seriesCount() > 0;
        for (const auto &p : fig17) {
            ok = ok && finite(p.powerW) && p.powerW > 0.0;
            d.add(static_cast<std::uint64_t>(p.activeThreads));
            d.add(p.fanEffectiveness);
            d.add(p.packageTempC);
            d.add(p.powerW);
        }
        checks.op(ok, "fig17 rows");

        {
            Span s(tr, "telemetry.export");
            telemetry::exportTelemetry(opts_.outDir, "paper_sweep_fig17",
                                       rec);
        }
        checks.op(true, "fig17 telemetry export");

        const double wall =
            std::chrono::duration<double>(Tracer::Clock::now() - t0).count();
        cpuUtil_.push_back((processCpuS() - cpu0)
                           / (wall * static_cast<double>(opts_.threads)));
        return d.hex();
    }

    std::vector<Metric>
    metrics(const SpanTimes &spans) const override
    {
        return {
            {"core.fig13_s", spanMedian(spans, "core.fig13", 1.0), "s"},
            {"core.fig14_s", spanMedian(spans, "core.fig14", 1.0), "s"},
            {"core.fig11_s", spanMedian(spans, "core.fig11", 1.0), "s"},
            {"core.table7_s", spanMedian(spans, "core.table7", 1.0), "s"},
            {"core.fig17_s", spanMedian(spans, "core.fig17", 1.0), "s"},
            {"parallel.cpu_util", median(cpuUtil_), "ratio"},
            {"telemetry.export_ms",
             spanMedian(spans, "telemetry.export", 1e3), "ms"},
        };
    }

  private:
    Options opts_;
    sim::SystemOptions base_;
    sim::SystemOptions thermal_;
    std::vector<double> cpuUtil_;
};

} // namespace

std::unique_ptr<Workload>
makePaperSweep(const Options &opts)
{
    return std::make_unique<PaperSweep>(opts);
}

} // namespace perfbench
