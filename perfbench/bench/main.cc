/**
 * @file
 * perfbench: run one benchmark workload for a fixed time and report.
 *
 *   perfbench --workload paper_sweep|long_chip|service_mix --seed N
 *             --seconds S --trace 0|1 [--repo DIR] [--out-dir DIR]
 *             [--digests FILE] [--trace-out FILE]
 *
 * Passes repeat until S seconds have passed (at least three), each
 * after a few timed set-up steps.  With --trace 1 untraced and traced
 * passes alternate: end-to-end figures come from the untraced ones,
 * per-layer self times from the traced ones' spans, and the difference
 * between the two pass medians is the tracing overhead.  One traced
 * pass of each other workload follows, so a traced run covers every
 * layer.
 * The last stdout line is a JSON object with every measured metric;
 * perfbench/run.py narrows it to the set BENCHMARK.json names.
 *
 * Exit status: 0 when every checked operation succeeded, 1 when any
 * failed, 2 on a usage or build error.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/digest.hh"
#include "bench/report.hh"
#include "bench/trace.hh"
#include "bench/workload.hh"
#include "common/logging.hh"

namespace
{

using namespace perfbench;

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string repo = ".";
    std::string outDir = ".";
    std::string digests;
    std::string traceOut = "perfbench-trace.json";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "paper_sweep|long_chip|service_mix --seed N --seconds S "
                 "--trace 0|1 [--repo DIR] [--out-dir DIR] [--digests FILE] "
                 "[--trace-out FILE]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (flag == "--trace")
            a.trace = v == "1";
        else if (flag == "--repo")
            a.repo = v;
        else if (flag == "--out-dir")
            a.outDir = v;
        else if (flag == "--digests")
            a.digests = v;
        else if (flag == "--trace-out")
            a.traceOut = v;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (a.seconds <= 0.0)
        usage("--seconds must be positive");
    return a;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Options &opts)
{
    if (name == "paper_sweep")
        return makePaperSweep(opts);
    if (name == "long_chip")
        return makeLongChip(opts);
    if (name == "service_mix")
        return makeServiceMix(opts);
    usage(("unknown workload '" + name + "'").c_str());
}

double
secondsSince(Tracer::Clock::time_point t0)
{
    return std::chrono::duration<double>(Tracer::Clock::now() - t0).count();
}

constexpr int kMinPasses = 3;
constexpr int kSetupReps = 25;
constexpr int kSetupRepsPerPass = 25;

constexpr const char *kWorkloadNames[] = {"paper_sweep", "long_chip",
                                          "service_mix"};

int
run(const Args &args)
{
    Options opts;
    opts.seed = args.seed;
    opts.threads = benchThreads();
    opts.repoRoot = args.repo;
    opts.outDir = args.outDir;

    std::printf("perfbench %s: seed %llu, %.0f s, trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::printf("host: nproc %u, worker threads %u\n",
                std::thread::hardware_concurrency(), opts.threads);
    std::printf("build: %s, %s, flags \"%s\"\n", PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
    std::fflush(stdout);

    const std::unique_ptr<Workload> w = makeWorkload(args.workload, opts);
    Tracer tracer;
    Checks checks;
    const auto committed = readDigests(args.digests);
    const auto checkDigest = [&](const std::string &name,
                                 const std::string &digest) {
        std::printf("digest %s: %s\n", name.c_str(), digest.c_str());
        if (args.seed != kDefaultSeed)
            return;
        const auto it = committed.find(name);
        checks.op(it != committed.end() && it->second == digest,
                  name + " result digest matches the committed one");
    };

    std::vector<double> setupS, wallS, tracedWallS;
    std::string firstDigest;
    const int min_passes = args.trace ? kMinPasses + 1 : kMinPasses;
    // Set-up steps take well under a millisecond, so their median is
    // taken over many, spread through the run; the last one before a
    // pass prepares it.
    const auto setUp = [&](int reps) {
        for (int i = 0; i < reps; ++i) {
            const auto t0 = Tracer::Clock::now();
            w->setup();
            setupS.push_back(secondsSince(t0));
        }
    };
    setUp(kSetupReps);
    const auto start = Tracer::Clock::now();
    for (int pass = 0;
         pass < min_passes || secondsSince(start) < args.seconds; ++pass) {
        const bool traced = args.trace && pass % 2 == 1;
        setUp(kSetupRepsPerPass);
        const auto t0 = Tracer::Clock::now();
        const std::string digest = w->pass(traced ? &tracer : nullptr, checks);
        (traced ? tracedWallS : wallS).push_back(secondsSince(t0));

        if (pass == 0) {
            firstDigest = digest;
            checkDigest(args.workload, digest);
        } else {
            checks.op(digest == firstDigest,
                      "pass " + std::to_string(pass + 1)
                          + " reproduces the first pass's results");
        }
    }

    // The traced run reports every layer: layers the named workload
    // does not reach come from one traced pass of the workload that
    // does, run after the measured passes.
    std::vector<std::unique_ptr<Workload>> others;
    if (args.trace)
        for (const char *name : kWorkloadNames) {
            if (name == args.workload)
                continue;
            others.push_back(makeWorkload(name, opts));
            others.back()->setup();
            checkDigest(name, others.back()->pass(&tracer, checks));
        }

    std::vector<Metric> metrics = {
        {"setup_s", median(setupS), "s"},
        {"wall_s", median(wallS), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    const SpanTimes spans = args.trace ? tracer.selfTimes() : SpanTimes{};
    for (Metric &m : w->metrics(spans))
        metrics.push_back(std::move(m));
    for (const auto &o : others)
        for (Metric &m : o->metrics(spans))
            metrics.push_back(std::move(m));
    if (args.trace) {
        const double untraced = median(wallS);
        metrics.push_back({"trace.overhead_pct",
                           (median(tracedWallS) - untraced) / untraced * 100.0,
                           "%"});
        tracer.writeChromeTrace(args.traceOut);
    }

    std::printf("\npasses: %zu untraced, %zu traced; %llu operations, "
                "%llu failed\n",
                wallS.size(), tracedWallS.size(),
                static_cast<unsigned long long>(checks.attempted()),
                static_cast<unsigned long long>(checks.failed()));
    std::printf("  untraced pass wall (s):");
    for (const double s : wallS)
        std::printf(" %.3f", s);
    std::printf("\n");
    for (const Metric &m : metrics)
        if (args.trace || m.value != 0.0)
            std::printf("  %-26s %14.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    for (const std::string &n : w->notes())
        std::printf("  %s\n", n.c_str());
    if (args.trace)
        std::printf("trace: %zu spans written to %s\n", tracer.size(),
                    args.traceOut.c_str());
    std::size_t shown = 0;
    for (const std::string &msg : checks.messages())
        if (shown++ < 20)
            std::fprintf(stderr, "FAILED: %s\n", msg.c_str());

    std::printf("%s\n", resultLine(checks.failed() == 0, checks.attempted(),
                                   checks.failed(), metrics)
                            .c_str());
    return checks.failed() == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef NDEBUG
    std::fprintf(stderr, "perfbench: refusing to measure a build without "
                         "NDEBUG (assertions on)\n");
    return 2;
#endif
    const Args args = parseArgs(argc, argv);
    // The server logs each start; keep the report readable.
    piton::setLogLevel(piton::LogLevel::Warn);
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
