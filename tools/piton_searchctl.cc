/**
 * @file
 * piton-searchctl: optimization queries over the experiment service
 * (DESIGN.md §16).
 *
 *   piton-searchctl <goal> [options]
 *
 * Goals: minimize-epi (or min-epi) | min-energy-capped | max-throughput.
 *
 * Backend selection (the service behind the evaluation oracle):
 *   (default)      an in-process ExperimentScheduler with --threads N
 *                  workers (default 1; at most 8 per hardware thread)
 *   --port N       one piton-served worker (pipelined TCP)
 *
 * Search options:
 *   --engine sa|ga|random   metaheuristic (default sa)
 *   --seed N                search RNG seed (default 1)
 *   --budget N              explore-evaluation budget, at least 1
 *                           (default 64)
 *   --batch N               evaluations per oracle batch (default 8)
 *   --cores N               worker threads to place, 1-25 (default 4)
 *   --chip N                calibrated chip 1-4 (default 2)
 *   --bench NAME            int | hp | hist | phased (default phased)
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

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "search/searcher.hh"
#include "service/client.hh"
#include "workloads/microbenchmarks.hh"

namespace
{

using namespace piton;

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
    std::string goal, engine = "sa", bench = "phased", out_path;
    std::uint16_t port = 0;
    unsigned threads = 1;
    search::SearcherOptions opts;
    search::SearchTask task;
    std::uint32_t cores = 4;
    int chip_id = 2;
    task.base.workload.iterations = 2;
    task.base.workload.threadsPerCore = 2;
    task.base.maxCycles = 50'000'000;

    // In workloads::Microbench order.
    const std::vector<std::string> benches = {"int", "hp", "hist", "phased"};
    CommandLine cli;
    cli.choice("goal", goal,
               {"minimize-epi", "min-epi", "min-energy-capped",
                "max-throughput"})
        .choice("--engine", engine, search::searcherNames())
        .count("--seed", opts.seed)
        .count("--budget", opts.budget, 1)
        .count("--batch", opts.batch, 1)
        .count("--cores", cores, 1, 25)
        .count("--chip", chip_id, 1, 4)
        .choice("--bench", bench, benches)
        .count("--iterations", task.base.workload.iterations, 1)
        .count("--explore-iterations", task.exploreIterations)
        .count("--explore-slices", task.exploreSampledSlices)
        .real("--power-cap", task.objective.powerCapW, 0.0, 1000.0)
        .real("--deadline-s", task.objective.deadlineS, 0.0, 3600.0)
        .count("--threads", threads, 0, maxWorkerThreads())
        .count("--port", port)
        .text("--out", out_path, "FILE")
        .parse(argc, argv);
    if (goal.empty())
        cli.fail("missing goal");
    // minimize-epi is the CLI alias of min-epi (the DESIGN.md §16
    // example).
    task.objective.goal =
        search::goalFromName(goal == "minimize-epi" ? "min-epi" : goal);
    task.base.workload.bench = static_cast<std::uint16_t>(
        std::find(benches.begin(), benches.end(), bench) - benches.begin());

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
