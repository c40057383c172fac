/**
 * @file
 * Seeded metaheuristic searchers over the placement/DVFS space
 * (DESIGN.md §16).
 *
 * Three engines behind one interface:
 *
 *  - "random": uniform sampling (the baseline the bench compares
 *    against at equal oracle-call budget),
 *  - "sa": batched simulated annealing — warm-started from the chip's
 *    default operating points (seedCandidates), swap / migrate /
 *    freq-nudge / rung-nudge moves deduplicated against already-spent
 *    candidates, steepest-of-batch relative-delta Metropolis steps,
 *    geometric cooling,
 *  - "ga": generational genetic algorithm — half-informed founding
 *    population, tournament selection, uniform crossover with
 *    deterministic placement repair, mutation, single-elite survival.
 *
 * Every stochastic decision draws from one Rng seeded by
 * SearcherOptions::seed, and every objective input is a bit-
 * deterministic service result, so a search replays bit-identically:
 * same seed → same candidate sequence, same best, same trajectory —
 * across runs, transports, and scheduler thread counts
 * (bench_search --verify gates this).
 *
 * Exploration runs at the task's explore fidelity (fewer workload
 * iterations and/or the sampled-run opt-in); the returned best is then
 * re-evaluated once at full fidelity (finalEval/finalScore).  Explore
 * requests canonicalize onto service cache keys, so revisited
 * candidates — common once the search converges — are cache hits, not
 * simulations.
 */

#ifndef PITON_SEARCH_SEARCHER_HH
#define PITON_SEARCH_SEARCHER_HH

#include <memory>
#include <string>
#include <vector>

#include "search/objective.hh"
#include "search/oracle.hh"
#include "search/space.hh"

namespace piton::telemetry
{
class TelemetryRecorder;
}

namespace piton::search
{

/** What to optimize, over what, at which evaluation fidelity. */
struct SearchTask
{
    SearchSpace space;
    Objective objective;
    /** Everything a candidate does not encode: workload (bench,
     *  iterations, threads/core, elements), seed, chip, cycle budget.
     *  Kind/operating point/placement are overwritten per candidate. */
    service::ExperimentRequest base;
    /** Exploration fidelity: workload iterations during the search
     *  (0 = base.workload.iterations — full fidelity throughout). */
    std::uint64_t exploreIterations = 0;
    /** > 0 explores through sampled runs with this many slices
     *  (request.hh sampledSlices; the final re-eval is always exact). */
    std::uint32_t exploreSampledSlices = 0;
};

/** Best-so-far after each evaluated batch. */
struct TrajectoryPoint
{
    std::uint64_t oracleCalls = 0; ///< cumulative explore evaluations
    double bestScore = 0.0;
};

struct SearchResult
{
    std::string engine;
    Candidate best;
    /** Explore-fidelity evaluation/score the search optimized. */
    Evaluation bestEval;
    double bestScore = kInvalidScore;
    /** Full-fidelity re-evaluation of `best` (== bestEval/bestScore
    *   when the task explores at full fidelity). */
    Evaluation finalEval;
    double finalScore = kInvalidScore;
    std::vector<TrajectoryPoint> trajectory;
    /** This search's own oracle traffic (deltas, not the oracle's
     *  cumulative counters; excludes the final re-evaluation). */
    std::uint64_t oracleCalls = 0;
    std::uint64_t cacheHits = 0;
    double cacheHitRatio = 0.0;
};

struct SearcherOptions
{
    std::uint64_t seed = 1;
    /** Explore-evaluation budget (oracle calls; the final full-
     *  fidelity re-eval is extra). */
    std::uint32_t budget = 64;
    /** Evaluations per oracle batch (pipelining/fan-out unit). */
    std::uint32_t batch = 8;
    /** GA population (clamped to >= 2). */
    std::uint32_t population = 8;
    /** GA tournament size (clamped to [1, population]). */
    std::uint32_t tournament = 3;
    /** SA initial temperature (relative-delta units). */
    double saT0 = 0.2;
    /** SA geometric cooling factor per batch. */
    double saAlpha = 0.85;
    /** Optional search.* telemetry sink (best_score / oracle_calls /
     *  cache_hit_ratio, time axis = oracle calls). */
    telemetry::TelemetryRecorder *recorder = nullptr;
};

class Searcher
{
  public:
    virtual ~Searcher() = default;
    virtual const char *name() const = 0;
    /** Throws std::invalid_argument when opts.budget is 0. */
    virtual SearchResult search(const SearchTask &task, Oracle &oracle,
                                const SearcherOptions &opts) = 0;
};

/** "random", "sa", or "ga"; throws std::invalid_argument otherwise. */
std::unique_ptr<Searcher> makeSearcher(const std::string &engine);
std::vector<std::string> searcherNames();

/** "oracle_calls,best_score\n..." export of the trajectory. */
std::string trajectoryCsv(const SearchResult &r);

} // namespace piton::search

#endif // PITON_SEARCH_SEARCHER_HH
