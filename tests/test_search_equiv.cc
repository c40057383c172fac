/**
 * @file
 * Search determinism equivalence suite (DESIGN.md §16): a search at a
 * fixed seed must replay bit-identically — same best candidate bytes,
 * same score, same trajectory — across scheduler thread counts, across
 * reruns, and across transports (LocalClient vs a loopback TcpClient).
 * This is the same contract bench_search --verify gates at larger
 * budgets; here it runs on a small task so ctest stays fast.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "search/searcher.hh"
#include "service/client.hh"
#include "service/scheduler.hh"
#include "service/server.hh"
#include "workloads/microbenchmarks.hh"

namespace
{

using namespace piton;
using namespace piton::search;

service::SchedulerConfig
schedulerConfig(unsigned threads)
{
    service::SchedulerConfig cfg;
    cfg.threads = threads;
    return cfg;
}

/** A ClientOracle over its own in-process scheduler. */
struct LocalOracle
{
    explicit LocalOracle(service::SchedulerConfig cfg)
        : sched(cfg), client(sched), oracle(client)
    {
    }
    explicit LocalOracle(unsigned threads)
        : LocalOracle(schedulerConfig(threads))
    {
    }

    service::ExperimentScheduler sched;
    service::LocalClient client;
    ClientOracle oracle;
};

SearchTask
smallTask()
{
    SearchTask task;
    task.space = defaultSpace(/*cores=*/2, /*chip_id=*/2);
    task.objective.goal = Goal::MinEpi;
    task.base.chipId = 2;
    task.base.workload.bench =
        static_cast<std::uint16_t>(workloads::Microbench::Phased);
    task.base.workload.iterations = 2;
    task.base.workload.threadsPerCore = 1;
    task.base.maxCycles = 50'000'000;
    task.exploreIterations = 1;
    return task;
}

SearcherOptions
smallOpts()
{
    SearcherOptions opts;
    opts.seed = 5;
    opts.budget = 10;
    opts.batch = 4;
    opts.population = 4;
    return opts;
}

void
expectIdentical(const SearchResult &a, const SearchResult &b,
                const std::string &what)
{
    EXPECT_EQ(candidateBytes(a.best), candidateBytes(b.best)) << what;
    EXPECT_EQ(a.bestScore, b.bestScore) << what;
    EXPECT_EQ(a.finalScore, b.finalScore) << what;
    ASSERT_EQ(a.trajectory.size(), b.trajectory.size()) << what;
    for (std::size_t i = 0; i < a.trajectory.size(); ++i) {
        EXPECT_EQ(a.trajectory[i].oracleCalls, b.trajectory[i].oracleCalls)
            << what << " point " << i;
        EXPECT_EQ(a.trajectory[i].bestScore, b.trajectory[i].bestScore)
            << what << " point " << i;
    }
}

TEST(SearchEquiv, EveryEngineIsThreadCountInvariant)
{
    const SearchTask task = smallTask();
    const SearcherOptions opts = smallOpts();
    for (const std::string &engine : searcherNames()) {
        LocalOracle serial(1), parallel(3);
        const SearchResult r1 =
            makeSearcher(engine)->search(task, serial.oracle, opts);
        const SearchResult r3 =
            makeSearcher(engine)->search(task, parallel.oracle, opts);
        expectIdentical(r1, r3, engine + " threads 1 vs 3");
        EXPECT_EQ(r1.oracleCalls, opts.budget);
        EXPECT_LT(r1.bestScore, kInfeasibleBase)
            << engine << " found nothing feasible";
    }
}

TEST(SearchEquiv, RerunAtTheSameSeedReplaysBitIdentically)
{
    const SearchTask task = smallTask();
    const SearcherOptions opts = smallOpts();
    for (const std::string &engine : searcherNames()) {
        LocalOracle a(2), b(2);
        expectIdentical(makeSearcher(engine)->search(task, a.oracle, opts),
                        makeSearcher(engine)->search(task, b.oracle, opts),
                        engine + " replay");
    }
}

TEST(SearchEquiv, TcpBackendMatchesLocalClientOracle)
{
    const SearchTask task = smallTask();
    const SearcherOptions opts = smallOpts();

    LocalOracle local(2);
    const SearchResult rl =
        makeSearcher("sa")->search(task, local.oracle, opts);

    service::ServerConfig cfg;
    cfg.scheduler = schedulerConfig(1);
    service::ExperimentServer server(cfg);
    server.start();
    service::TcpClient tcp(server.port());
    ClientOracle over_tcp(tcp);
    const SearchResult rt = makeSearcher("sa")->search(task, over_tcp, opts);

    expectIdentical(rl, rt, "LocalClient vs loopback TcpClient");
}

TEST(SearchEquiv, ShedRequestsAreResubmittedNotScoredInvalid)
{
    // A batch of 8 against an admission bound of 2: the scheduler sheds
    // most of the first submission, and the oracle must resubmit those
    // requests rather than score them invalid.
    const SearchTask task = smallTask();
    Rng rng(11);
    std::vector<service::ExperimentRequest> batch;
    for (int i = 0; i < 8; ++i) {
        service::ExperimentRequest req = toRequest(
            task.space, randomCandidate(task.space, rng), task.base);
        req.workload.iterations = task.exploreIterations;
        batch.push_back(req);
    }

    service::SchedulerConfig tight = schedulerConfig(1);
    tight.maxPending = 2;
    LocalOracle constrained(tight), unconstrained(1);
    const std::vector<Evaluation> got = constrained.oracle.evaluate(batch);
    const std::vector<Evaluation> want =
        unconstrained.oracle.evaluate(batch);
    EXPECT_GT(constrained.sched.metrics().shed, 0u);
    EXPECT_EQ(constrained.oracle.stats().calls, batch.size());

    ASSERT_EQ(got.size(), batch.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(got[i].valid) << "request " << i;
        EXPECT_EQ(got[i].completed, want[i].completed) << "request " << i;
        EXPECT_EQ(got[i].insts, want[i].insts) << "request " << i;
        EXPECT_EQ(got[i].seconds, want[i].seconds) << "request " << i;
        EXPECT_EQ(got[i].energyJ, want[i].energyJ) << "request " << i;
        EXPECT_EQ(got[i].epi, want[i].epi) << "request " << i;
        EXPECT_EQ(got[i].avgPowerW, want[i].avgPowerW) << "request " << i;
    }
}

TEST(SearchEquiv, RevisitsHitTheOracleMemo)
{
    // Two identical searches against ONE oracle: the second is pure
    // replay, so every one of its evaluations must be a result-cache
    // hit.
    const SearchTask task = smallTask();
    const SearcherOptions opts = smallOpts();
    LocalOracle local(2);
    const SearchResult first =
        makeSearcher("sa")->search(task, local.oracle, opts);
    const SearchResult second =
        makeSearcher("sa")->search(task, local.oracle, opts);
    expectIdentical(first, second, "shared-oracle replay");
    EXPECT_EQ(second.cacheHits, second.oracleCalls);
    EXPECT_EQ(second.cacheHitRatio, 1.0);
}

} // namespace
