/**
 * @file
 * Ablation: warm-started sweep fan-out from a shared checkpoint.
 *
 * The fan-effectiveness sweep (Fig. 17's knob) shares a long thermal
 * warmup prefix across every point: the chip runs the HP microbench to
 * a steady state, and only then does the fan setting diverge.  This
 * bench runs that sweep two ways —
 *
 *   warm (default): simulate the prefix once, checkpoint it
 *                   (sim::SweepWarmStart), fork each point from the
 *                   image;
 *   --cold:         re-simulate the prefix per point (the old way);
 *   --verify:       run both and compare bit-for-bit (power-sample
 *                   bit patterns, final die temperature, telemetry
 *                   CSV bytes), then report the wall-clock ratio.
 *
 * Checkpoint-file plumbing (this bench's own flags):
 *   --checkpoint-out FILE    write the post-prefix image to FILE;
 *   --checkpoint-every N     while running the prefix, also save a
 *                            rolling checkpoint every N windows
 *                            (requires --checkpoint-out);
 *   --resume-from FILE       skip the prefix entirely and fork the
 *                            sweep from FILE (a prior --checkpoint-out).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "checkpoint/archive.hh"
#include "common/cli.hh"
#include "common/parallel.hh"
#include "common/table.hh"
#include "sim/system.hh"
#include "sim/warm_start.hh"
#include "telemetry/export.hh"
#include "telemetry/recorder.hh"
#include "workloads/microbenchmarks.hh"

namespace
{

using namespace piton;

constexpr double kFanPoints[] = {1.0, 0.75, 0.5, 0.25, 0.0};
constexpr std::size_t kNumPoints = sizeof(kFanPoints) / sizeof(double);
constexpr std::uint32_t kPrefixWindows = 64;
constexpr std::uint32_t kCores = 8;
constexpr std::uint32_t kThreadsPerCore = 2;

sim::SystemOptions
sweepOptions()
{
    sim::SystemOptions opts; // defaults: 25 tiles, fastPath on
    return opts;
}

/** Donor/cold prefix: load HP and run the shared warmup windows.  The
 *  returned programs must stay alive while `sys` keeps running (forks
 *  restored from a checkpoint carry their own images instead). */
std::vector<isa::Program>
runPrefix(sim::System &sys, std::uint32_t checkpoint_every = 0,
          const std::string &checkpoint_out = {})
{
    std::vector<isa::Program> programs = workloads::loadMicrobench(
        sys, workloads::Microbench::HP, kCores, kThreadsPerCore,
        /*iterations=*/0);
    for (std::uint32_t w = 0; w < kPrefixWindows; ++w) {
        sys.windowTruePowers(sys.options().cyclesPerSample);
        if (checkpoint_every > 0 && (w + 1) % checkpoint_every == 0)
            sys.save(checkpoint_out);
    }
    return programs;
}

/** One sweep point's divergent suffix: set the fan, record `windows`
 *  sample windows.  Everything compared by --verify comes from here. */
struct PointResult
{
    double fan = 1.0;
    std::vector<std::uint64_t> onChipBits; ///< per-window P, raw bits
    double meanOnChipW = 0.0;
    double finalDieC = 0.0;
    std::string csv; ///< full telemetry export, byte-comparable
};

PointResult
runPoint(sim::System &sys, telemetry::TelemetryRecorder &rec, double fan,
         std::uint32_t windows)
{
    PointResult r;
    r.fan = fan;
    sys.thermalModel().setFanEffectiveness(fan);
    // Settle at the fan point's equilibrium the way System::measure
    // does: the microsecond-scale sample windows sit far below the
    // thermal time constants, so the die is pinned at the steady state
    // for the observed power (leakage then differs per fan point).
    // These settle windows are recorded too — identically in the warm
    // and cold flows, so the CSV byte-compare covers them.
    for (int i = 0; i < 4; ++i) {
        const auto p =
            sys.windowTruePowers(sys.options().cyclesPerSample);
        sys.thermalModel().setState(
            sys.thermalModel().steadyState(p[0] + p[1]));
    }
    double sum = 0.0;
    for (std::uint32_t w = 0; w < windows; ++w) {
        const auto p =
            sys.windowTruePowers(sys.options().cyclesPerSample);
        const double on_chip = p[0] + p[1];
        sum += on_chip;
        std::uint64_t bits = 0;
        std::memcpy(&bits, &on_chip, sizeof(bits));
        r.onChipBits.push_back(bits);
    }
    r.meanOnChipW = sum / windows;
    r.finalDieC = sys.dieTempC();
    std::ostringstream os;
    telemetry::writeCsv(os, rec);
    r.csv = os.str();
    return r;
}

std::vector<PointResult>
runWarm(const sim::SweepWarmStart &ws, std::uint32_t windows,
        unsigned threads)
{
    std::vector<PointResult> results(kNumPoints);
    parallelFor(kNumPoints, threads, [&](std::size_t i) {
        telemetry::TelemetryRecorder rec;
        const std::unique_ptr<sim::System> sys = ws.fork(rec);
        results[i] = runPoint(*sys, rec, kFanPoints[i], windows);
    });
    return results;
}

std::vector<PointResult>
runCold(std::uint32_t windows, unsigned threads)
{
    std::vector<PointResult> results(kNumPoints);
    parallelFor(kNumPoints, threads, [&](std::size_t i) {
        sim::System sys(sweepOptions());
        const auto programs = runPrefix(sys);
        telemetry::TelemetryRecorder rec;
        sys.attachTelemetry(&rec);
        results[i] = runPoint(sys, rec, kFanPoints[i], windows);
    });
    return results;
}

void
printResults(const char *mode, const std::vector<PointResult> &results,
             double wall_s)
{
    std::cout << mode << " sweep (" << kPrefixWindows
              << "-window shared prefix, " << results[0].onChipBits.size()
              << " recorded windows per point):\n";
    TextTable t({"Fan eff", "Mean on-chip P (W)", "Final die (C)"});
    for (const auto &r : results)
        t.addRow({fmtF(r.fan, 2), fmtF(r.meanOnChipW, 4),
                  fmtF(r.finalDieC, 3)});
    t.print(std::cout);
    std::printf("wall clock: %.3f s\n\n", wall_s);
}

} // namespace

int
main(int argc, char **argv)
{
    using Clock = std::chrono::steady_clock;
    std::uint32_t windows = 16;
    unsigned threads = 0;
    std::string out_dir, resume_from, checkpoint_out;
    std::uint32_t checkpoint_every = 0;
    bool cold_only = false, verify = false;
    CommandLine cli;
    cli.count("--samples", windows, 1)
        .count("--threads", threads, 0, maxWorkerThreads())
        .text("--out", out_dir, "DIR")
        .flag("--cold", cold_only)
        .flag("--verify", verify)
        .count("--checkpoint-every", checkpoint_every)
        .text("--checkpoint-out", checkpoint_out, "FILE")
        .text("--resume-from", resume_from, "FILE")
        .parse(argc, argv);
    if (checkpoint_every > 0 && checkpoint_out.empty())
        cli.fail("--checkpoint-every requires --checkpoint-out");
    bench::banner("Ablation", "Warm-started sweep from a checkpoint");

    std::vector<PointResult> warm, cold;
    double warm_s = 0.0, cold_s = 0.0;

    if (!cold_only || verify) {
        const auto t0 = Clock::now();
        sim::SweepWarmStart ws = [&] {
            if (!resume_from.empty()) {
                std::cout << "prefix: resumed from '" << resume_from
                          << "' (shared warmup skipped)\n";
                return sim::SweepWarmStart::fromImage(
                    sweepOptions(), ckpt::readFile(resume_from));
            }
            sim::System donor(sweepOptions());
            const auto programs =
                runPrefix(donor, checkpoint_every, checkpoint_out);
            return sim::SweepWarmStart::capture(donor);
        }();
        if (!checkpoint_out.empty() && resume_from.empty()) {
            ckpt::writeFile(checkpoint_out, ws.bytes());
            std::cout << "prefix checkpoint (" << ws.bytes().size()
                      << " bytes) -> " << checkpoint_out << '\n';
        }
        warm = runWarm(ws, windows, threads);
        warm_s = std::chrono::duration<double>(Clock::now() - t0).count();
        printResults("Warm-start", warm, warm_s);
    }

    if (cold_only || verify) {
        const auto t0 = Clock::now();
        cold = runCold(windows, threads);
        cold_s = std::chrono::duration<double>(Clock::now() - t0).count();
        printResults("Cold (prefix per point)", cold, cold_s);
    }

    if (!out_dir.empty()) {
        // Re-run point 0 serially to export a representative telemetry
        // file (recorders live inside the parallel region above).
        telemetry::TelemetryRecorder rec;
        sim::System sys(sweepOptions());
        const auto programs = runPrefix(sys);
        sys.attachTelemetry(&rec);
        runPoint(sys, rec, kFanPoints[0], windows);
        telemetry::exportTelemetry(out_dir, "ablation_warmstart", rec);
    }

    if (verify) {
        bool ok = true;
        for (std::size_t i = 0; i < kNumPoints; ++i) {
            const bool same = warm[i].onChipBits == cold[i].onChipBits
                              && warm[i].csv == cold[i].csv
                              && std::memcmp(&warm[i].finalDieC,
                                             &cold[i].finalDieC,
                                             sizeof(double))
                                     == 0;
            if (!same) {
                std::printf("MISMATCH at fan=%.2f\n", kFanPoints[i]);
                ok = false;
            }
        }
        std::printf("verify: warm-start vs cold %s; warm %.3f s vs cold"
                    " %.3f s (%.2fx)\n",
                    ok ? "BIT-IDENTICAL" : "FAILED", warm_s, cold_s,
                    warm_s > 0 ? cold_s / warm_s : 0.0);
        if (!ok)
            return 1;
    } else {
        std::cout << "The warm path pays the " << kPrefixWindows
                  << "-window prefix once instead of once per point;\n"
                     "--verify re-runs the sweep cold and checks the"
                     " outputs are bit-identical.\n";
    }
    return 0;
}
