/**
 * @file
 * Evaluation oracle: how a searcher obtains the objective inputs for
 * a batch of candidates (DESIGN.md §16).
 *
 * ClientOracle evaluates through any service::Client — a LocalClient
 * over an in-process ExperimentScheduler, or a TcpClient against
 * piton-served.  Each batch is pipelined: every request is submitted
 * before the first is waited on, so the scheduler's worker pool runs
 * the batch in parallel, its result cache answers revisits, and its
 * single-flight coalesces duplicates within a batch.  Each result is
 * bit-determined by its request's canonical bytes, so evaluations are
 * the same at every scheduler thread count and over either transport
 * — the bench's --verify mode gates exactly that.
 */

#ifndef PITON_SEARCH_ORACLE_HH
#define PITON_SEARCH_ORACLE_HH

#include <cstdint>
#include <vector>

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
    /** Served from the service's result cache. */
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
     *  need not be canonicalized (the service canonicalizes). */
    virtual std::vector<Evaluation>
    evaluate(const std::vector<service::ExperimentRequest> &reqs) = 0;

    const OracleStats &stats() const { return stats_; }

  protected:
    OracleStats stats_;
};

/** Oracle over any service::Client.  Requests the service sheds at
 *  admission (Status::Shed) are resubmitted once the rest of their
 *  batch has completed, so a batch larger than the server's free
 *  capacity still costs exactly its size in evaluations. */
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
