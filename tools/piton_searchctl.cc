/**
 * @file
 * piton-searchctl: optimization queries over the experiment service
 * (DESIGN.md §16).
 *
 *   piton-searchctl <goal> [options]
 *
 * Goals: minimize-epi | min-energy-capped | max-throughput.
 *
 * Backend selection (the service behind the evaluation oracle):
 *   (default)      an in-process ExperimentScheduler with --threads N
 *                  workers (default 1; at most 8 per hardware thread)
 *   --port N       one piton-served worker (pipelined TCP)
 *
 * Search options:
 *   --engine sa|ga|random   metaheuristic (default sa)
 *   --seed N                search RNG seed (default 1)
 *   --budget N              explore-evaluation budget (default 64)
 *   --batch N               evaluations per oracle batch (default 8)
 *   --cores N               worker threads to place (default 4)
 *   --chip N                chip id (default 2)
 *   --bench NAME            microbenchmark (default phased)
 *   --iterations N          full-fidelity workload iterations
 *   --explore-iterations N  reduced explore fidelity (0 = full)
 *   --explore-slices N      explore through sampled runs (0 = exact)
 *   --power-cap W           constraint for min-energy-capped
 *   --deadline-s S          constraint for max-throughput
 *   --out FILE              write the best-so-far trajectory as CSV
 *
 * Exit status 0 when the search found a feasible candidate and the
 * full-fidelity re-evaluation confirmed it (finalScore feasible).
 */

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "search/searcher.hh"
#include "common/numeric_flag.hh"
#include "service/client.hh"
#include "workloads/microbenchmarks.hh"

namespace
{

using namespace piton;

[[noreturn]] void
usage(const char *prog)
{
    std::fprintf(
        stderr,
        "usage: %s <goal> [options]\n"
        "goals: minimize-epi | min-energy-capped | max-throughput\n"
        "backend: (in-process) | --port N\n"
        "options: --engine sa|ga|random --seed N --budget N --batch N\n"
        "         --cores N --chip N --bench NAME --iterations N\n"
        "         --explore-iterations N --explore-slices N\n"
        "         --power-cap W --deadline-s S --threads N --out FILE\n",
        prog);
    std::exit(2);
}

double
doubleValue(const char *prog, const char *value)
{
    if (value == nullptr)
        usage(prog);
    char *end = nullptr;
    const double v = std::strtod(value, &end);
    if (end == value || *end != '\0')
        usage(prog);
    return v;
}

std::uint16_t
benchFromName(const char *prog, const std::string &name)
{
    using workloads::Microbench;
    for (std::uint16_t b = 0;
         b <= static_cast<std::uint16_t>(Microbench::Phased); ++b) {
        std::string n = workloads::microbenchName(
            static_cast<Microbench>(b));
        for (char &ch : n)
            ch = static_cast<char>(std::tolower(
                static_cast<unsigned char>(ch)));
        if (n == name)
            return b;
    }
    std::fprintf(stderr, "unknown bench '%s'\n", name.c_str());
    usage(prog);
}

void
printCandidate(const search::SearchSpace &space, const search::Candidate &c)
{
    const search::VfRung &rung = space.rungs[c.rung];
    std::printf("  operating point: %.2f V, %.2f MHz (rung %u)\n",
                rung.vddV, rung.freqMhz, static_cast<unsigned>(c.rung));
    std::printf("  placement:");
    for (const std::uint8_t t : c.placement)
        std::printf(" %u", static_cast<unsigned>(t));
    std::printf("\n  freq steps:");
    for (std::size_t i = 0; i < c.freqStep.size(); ++i)
        std::printf(" %u/%u", static_cast<unsigned>(c.freqStep[i]),
                    rung.dutySteps);
    std::printf("\n");
}

void
printEvaluation(const char *label, const search::Evaluation &ev,
                double score)
{
    std::printf("%s: %s, %" PRIu64 " insts, %.6f s, %.6f J"
                " (%.3f W avg, EPI %.3e J/inst), score %.6e\n",
                label, ev.completed ? "completed" : "incomplete",
                ev.insts, ev.seconds, ev.energyJ, ev.avgPowerW, ev.epi,
                score);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage(argv[0]);
    std::string goal_arg = argv[1];
    if (goal_arg == "minimize-epi") // CLI alias for the §16 example
        goal_arg = "min-epi";

    std::string engine = "sa";
    std::string out_path;
    std::uint16_t port = 0;
    unsigned threads = 1;
    search::SearcherOptions opts;
    search::SearchTask task;
    task.objective.goal = search::Goal::MinEpi;
    std::uint32_t cores = 4;
    int chip_id = 2;
    task.base.workload.bench =
        static_cast<std::uint16_t>(workloads::Microbench::Phased);
    task.base.workload.iterations = 2;
    task.base.workload.threadsPerCore = 2;
    task.base.maxCycles = 50'000'000;

    try {
        task.objective.goal = search::goalFromName(goal_arg);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        usage(argv[0]);
    }

    for (int i = 2; i < argc; ++i) {
        const char *a = argv[i];
        const char *next = i + 1 < argc ? argv[i + 1] : nullptr;
        if (std::strcmp(a, "--engine") == 0 && next != nullptr) {
            engine = next;
            ++i;
        } else if (std::strcmp(a, "--seed") == 0) {
            parseFlag(opts.seed, argv[0], a, next);
            ++i;
        } else if (std::strcmp(a, "--budget") == 0) {
            parseFlag(opts.budget, argv[0], a, next);
            ++i;
        } else if (std::strcmp(a, "--batch") == 0) {
            parseFlag(opts.batch, argv[0], a, next);
            ++i;
        } else if (std::strcmp(a, "--cores") == 0) {
            parseFlag(cores, argv[0], a, next);
            ++i;
        } else if (std::strcmp(a, "--chip") == 0) {
            parseFlag(chip_id, argv[0], a, next);
            ++i;
        } else if (std::strcmp(a, "--bench") == 0 && next != nullptr) {
            task.base.workload.bench = benchFromName(argv[0], next);
            ++i;
        } else if (std::strcmp(a, "--iterations") == 0) {
            parseFlag(task.base.workload.iterations, argv[0], a, next);
            ++i;
        } else if (std::strcmp(a, "--explore-iterations") == 0) {
            parseFlag(task.exploreIterations, argv[0], a, next);
            ++i;
        } else if (std::strcmp(a, "--explore-slices") == 0) {
            parseFlag(task.exploreSampledSlices, argv[0], a, next);
            ++i;
        } else if (std::strcmp(a, "--power-cap") == 0) {
            task.objective.powerCapW = doubleValue(argv[0], next);
            ++i;
        } else if (std::strcmp(a, "--deadline-s") == 0) {
            task.objective.deadlineS = doubleValue(argv[0], next);
            ++i;
        } else if (std::strcmp(a, "--threads") == 0) {
            parseFlag(threads, argv[0], a, next, maxWorkerThreads());
            ++i;
        } else if (std::strcmp(a, "--port") == 0) {
            parseFlag(port, argv[0], a, next);
            ++i;
        } else if (std::strcmp(a, "--out") == 0 && next != nullptr) {
            out_path = next;
            ++i;
        } else {
            usage(argv[0]);
        }
    }

    try {
        task.base.chipId = chip_id;
        task.space = search::defaultSpace(cores, chip_id);

        std::unique_ptr<service::ExperimentScheduler> sched;
        std::unique_ptr<service::Client> client;
        if (port != 0) {
            client = std::make_unique<service::TcpClient>(port);
        } else {
            service::SchedulerConfig cfg;
            cfg.threads = threads;
            sched = std::make_unique<service::ExperimentScheduler>(cfg);
            client = std::make_unique<service::LocalClient>(*sched);
        }
        search::ClientOracle oracle(*client);

        const std::unique_ptr<search::Searcher> searcher =
            search::makeSearcher(engine);
        const search::SearchResult r =
            searcher->search(task, oracle, opts);

        std::printf("engine %s, goal %s, %" PRIu64 " oracle calls"
                    " (%" PRIu64 " cache hits, ratio %.3f)\n",
                    r.engine.c_str(),
                    search::goalName(task.objective.goal), r.oracleCalls,
                    r.cacheHits, r.cacheHitRatio);
        if (r.bestScore >= search::kInvalidScore) {
            std::fprintf(stderr, "no feasible candidate found\n");
            return 1;
        }
        printCandidate(task.space, r.best);
        printEvaluation("explore best", r.bestEval, r.bestScore);
        printEvaluation("final (full fidelity)", r.finalEval,
                        r.finalScore);

        if (!out_path.empty()) {
            std::FILE *f = std::fopen(out_path.c_str(), "w");
            if (f == nullptr) {
                std::fprintf(stderr, "cannot write %s\n",
                             out_path.c_str());
                return 1;
            }
            const std::string csv = search::trajectoryCsv(r);
            std::fwrite(csv.data(), 1, csv.size(), f);
            std::fclose(f);
            std::printf("trajectory: %s (%zu points)\n", out_path.c_str(),
                        r.trajectory.size());
        }
        return r.finalScore < search::kInfeasibleBase ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 1;
    }
}
