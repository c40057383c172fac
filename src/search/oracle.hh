/**
 * @file
 * Evaluation oracles: how a searcher obtains the objective inputs for
 * a batch of candidates (DESIGN.md §16).
 *
 * Two backends sit behind one interface:
 *
 *  - InProcessOracle: runs each request through the service executor
 *    directly (no scheduler, no sockets), with its own content-
 *    addressed memo so revisited candidates cost a hash lookup.
 *    Batches evaluate in parallel; results are deterministic at any
 *    thread count because each request's result is bit-determined by
 *    its canonical bytes alone.
 *
 *  - ClientOracle: evaluates through any service::Client — a
 *    LocalClient over a scheduler, a TcpClient against piton-served
 *    (batches pipeline on the one connection), or any other transport.
 *    Cache hits are the server's (servedFromCache).
 *
 * The byte-identity contract of the service layer means every backend
 * returns the same Evaluation values for the same request — the
 * bench's --verify mode gates exactly that.
 */

#ifndef PITON_SEARCH_ORACLE_HH
#define PITON_SEARCH_ORACLE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/hash.hh"
#include "service/client.hh"
#include "service/request.hh"

namespace piton::search
{

/** What the objective sees of one candidate's run. */
struct Evaluation
{
    /** Response status was Ok (invalid evaluations score infeasible). */
    bool valid = false;
    /** The workload ran to completion within the cycle budget. */
    bool completed = false;
    std::uint64_t insts = 0;
    double seconds = 0.0;
    double energyJ = 0.0;
    /** Energy per instruction (J/inst; 0 when insts == 0). */
    double epi = 0.0;
    /** energyJ / seconds (0 when seconds == 0). */
    double avgPowerW = 0.0;
    /** Served from a cache (memo or service result cache). */
    bool cacheHit = false;
};

/** Decode a client result into an Evaluation. */
Evaluation evaluationFromBody(const std::vector<std::uint8_t> &body,
                              bool cache_hit);

/** Cumulative counters across evaluate() calls. */
struct OracleStats
{
    std::uint64_t calls = 0;
    std::uint64_t cacheHits = 0;
};

class Oracle
{
  public:
    virtual ~Oracle() = default;

    /** Evaluate a batch; result i corresponds to reqs[i].  Requests
     *  need not be canonicalized (the oracle canonicalizes). */
    virtual std::vector<Evaluation>
    evaluate(const std::vector<service::ExperimentRequest> &reqs) = 0;

    const OracleStats &stats() const { return stats_; }

  protected:
    OracleStats stats_;
};

/** Executor-direct oracle with a local result memo. */
class InProcessOracle : public Oracle
{
  public:
    /** `threads` bounds batch parallelism (resolveThreadCount rules;
     *  1 = inline).  Results are thread-count-invariant. */
    explicit InProcessOracle(unsigned threads = 1) : threads_(threads) {}

    std::vector<Evaluation>
    evaluate(const std::vector<service::ExperimentRequest> &reqs) override;

  private:
    unsigned threads_;
    /** cacheKey → encoded Ok response body.  Failures are not
     *  memoized (mirrors the service cache's Ok-only policy). */
    std::unordered_map<Hash128, std::vector<std::uint8_t>, Hash128Hasher>
        memo_;
};

/** Oracle over any service::Client.  A TcpClient batch pipelines
 *  submit()/waitFor() on the single connection. */
class ClientOracle : public Oracle
{
  public:
    explicit ClientOracle(service::Client &client) : client_(client) {}

    std::vector<Evaluation>
    evaluate(const std::vector<service::ExperimentRequest> &reqs) override;

  private:
    service::Client &client_;
};

} // namespace piton::search

#endif // PITON_SEARCH_ORACLE_HH
