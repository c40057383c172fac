/**
 * @file
 * service_mix: an in-process loopback ExperimentServer with two
 * scheduler workers and two closed-loop TcpClient connections.  `stream`
 * sends the seeded request sequence of mix.hh one request at a time;
 * `search` runs SA then GA through a ClientOracle on its own thread.
 * Cache hits (no simulation) sit beside misses (engine-bound), and this
 * is the only workload that touches the service, the wire codec and the
 * search layer.  Each pass starts a fresh server, so every pass sees the
 * same cold-cache hit/miss pattern.
 */

#include <algorithm>
#include <array>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/digest.hh"
#include "bench/mix.hh"
#include "bench/workload.hh"
#include "search/searcher.hh"
#include "service/client.hh"
#include "service/server.hh"

namespace perfbench
{
namespace
{

using namespace piton;

/** Stream requests per pass: a quarter of them simulate. */
constexpr std::size_t kStreamRequests = 800;

double
msSince(Tracer::Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Tracer::Clock::now()
                                                     - t0)
        .count();
}

/** A ClientOracle whose evaluate() batches are traced. */
class TracedOracle : public search::Oracle
{
  public:
    TracedOracle(service::Client &client, Tracer *tracer)
        : inner_(client), tracer_(tracer)
    {
    }

    std::vector<search::Evaluation>
    evaluate(const std::vector<service::ExperimentRequest> &reqs) override
    {
        std::vector<search::Evaluation> out;
        {
            Span s(tracer_, "search.evaluate");
            out = inner_.evaluate(reqs);
        }
        stats_ = inner_.stats();
        return out;
    }

  private:
    search::ClientOracle inner_;
    Tracer *tracer_;
};

bool
sameSearch(const search::SearchResult &a, const search::SearchResult &b)
{
    if (search::candidateBytes(a.best) != search::candidateBytes(b.best)
        || a.bestScore != b.bestScore || a.finalScore != b.finalScore
        || a.trajectory.size() != b.trajectory.size())
        return false;
    for (std::size_t i = 0; i < a.trajectory.size(); ++i)
        if (a.trajectory[i].oracleCalls != b.trajectory[i].oracleCalls
            || a.trajectory[i].bestScore != b.trajectory[i].bestScore)
            return false;
    return true;
}

/** Canonicalize, key and wire-round-trip one request through the
 *  public request API; true when the decoded request keeps its
 *  identity. */
bool
codecRoundTrip(const service::ExperimentRequest &req, Tracer *tr)
{
    service::ExperimentRequest canon = req;
    {
        Span s(tr, "service.canonicalize");
        canon.canonicalize();
    }
    Hash128 key;
    {
        Span s(tr, "service.cache_key");
        key = canon.cacheKey();
    }
    service::WireWriter w;
    {
        Span s(tr, "service.wire_encode");
        req.encode(w);
    }
    service::ExperimentRequest decoded;
    {
        Span s(tr, "service.wire_decode");
        service::WireReader r(w.bytes());
        decoded = service::ExperimentRequest::decode(r);
    }
    return decoded.cacheKey() == key;
}

class ServiceMix : public Workload
{
  public:
    explicit ServiceMix(const Options &opts)
        : items_(makeStream(opts.seed, kStreamRequests)),
          task_(searchTask()), searchOpts_(searchOptions(opts.seed))
    {
        cfg_.port = 0;
        cfg_.workerId = "perfbench";
        cfg_.scheduler.threads = std::min(2u, opts.threads);
    }

    ~ServiceMix() override { teardown(); }

    /** Start the loopback server and connect both clients (one round
     *  trip each). */
    void
    setup() override
    {
        teardown();
        server_ = std::make_unique<service::ExperimentServer>(cfg_);
        server_->start();
        stream_ = std::make_unique<service::TcpClient>(server_->port());
        search_ = std::make_unique<service::TcpClient>(server_->port());
        stream_->ping();
        search_->ping();
    }

    std::string
    pass(Tracer *tr, Checks &checks) override
    {
        Digest d;
        std::vector<bool> codecOk(items_.size());
        for (std::size_t i = 0; i < items_.size(); ++i)
            codecOk[i] = codecRoundTrip(items_[i].req, tr);

        // The search client runs beside the stream on its own thread.
        TracedOracle oracle(*search_, tr);
        std::vector<search::SearchResult> found;
        std::exception_ptr searchError;
        double searchS = 0.0;
        std::thread searcher([&] {
            try {
                const auto t0 = Tracer::Clock::now();
                for (const char *engine : kSearchEngines)
                    found.push_back(search::makeSearcher(engine)->search(
                        task_, oracle, searchOpts_));
                searchS = msSince(t0) * 1e-3;
            } catch (...) {
                searchError = std::current_exception();
            }
        });

        // Join the search thread on every path out of the stream loop.
        std::exception_ptr streamError;
        std::vector<service::ClientResult> served(items_.size());
        const auto t_stream = Tracer::Clock::now();
        try {
            runStream(d, served, codecOk, checks);
        } catch (...) {
            streamError = std::current_exception();
        }
        const double streamS = msSince(t_stream) * 1e-3;
        searcher.join();
        if (streamError)
            std::rethrow_exception(streamError);
        reqPerS_.push_back(static_cast<double>(items_.size()) / streamS);

        checks.op(!searchError && found.size() == 2, "search completes");
        if (!searchError)
            searchS_.push_back(searchS);
        const search::OracleStats os = oracle.stats();
        searchCalls_ = static_cast<double>(os.calls);
        searchHitRatio_ = os.calls > 0 ? static_cast<double>(os.cacheHits)
                                             / static_cast<double>(os.calls)
                                       : 0.0;
        for (const auto &r : found) {
            d.add(search::candidateBytes(r.best));
            d.add(r.bestScore);
            d.add(r.finalScore);
        }
        if (firstSearch_.empty())
            firstSearch_ = found;
        bool replay = found.size() == firstSearch_.size();
        for (std::size_t i = 0; replay && i < found.size(); ++i)
            replay = sameSearch(found[i], firstSearch_[i]);
        checks.op(replay, "search replay at the same seed is identical");

        const service::SchedulerMetrics m = stream_->stats();
        schedP50_.push_back(m.latencyP50Ms);
        schedP99_.push_back(m.latencyP99Ms);
        const std::array<std::uint64_t, 4> counts = {
            m.resultCache.hits, m.resultCache.misses,
            m.resultCache.coalesced, m.prefixCache.hits};
        if (!haveCounts_) {
            counts_ = counts;
            haveCounts_ = true;
        }
        checks.op(m.shed == 0 && m.errors == 0, "no shed or failed request");
        checks.op(counts == counts_,
                  "cache hit/miss counts repeat across passes");
        shed_ = m.shed;
        teardown();
        return d.hex();
    }

    std::vector<Metric>
    metrics(const SpanTimes &spans) const override
    {
        const Tail hit = highestTail(hitMs_), miss = highestTail(missMs_);
        return {
            {"hit_p50_ms", median(hitMs_), "ms"},
            {"hit_p99_ms", hit.value, "ms"},
            {"miss_p50_ms", median(missMs_), "ms"},
            {"miss_p99_ms", miss.value, "ms"},
            {"req_per_s", median(reqPerS_), "req/s"},
            {"search_s", median(searchS_), "s"},
            {"service.canonicalize_us",
             spanMedian(spans, "service.canonicalize", 1e6), "us"},
            {"service.cache_key_us",
             spanMedian(spans, "service.cache_key", 1e6), "us"},
            {"service.wire_encode_us",
             spanMedian(spans, "service.wire_encode", 1e6), "us"},
            {"service.wire_decode_us",
             spanMedian(spans, "service.wire_decode", 1e6), "us"},
            {"service.sched_p50_ms", median(schedP50_), "ms"},
            {"service.sched_p99_ms", median(schedP99_), "ms"},
            {"service.result_hits", static_cast<double>(counts_[0]),
             "count"},
            {"service.result_misses", static_cast<double>(counts_[1]),
             "count"},
            {"service.coalesced", static_cast<double>(counts_[2]), "count"},
            {"service.prefix_hits", static_cast<double>(counts_[3]),
             "count"},
            {"service.shed", static_cast<double>(shed_), "count"},
            {"search.oracle_calls", searchCalls_, "count"},
            {"search.cache_hit_ratio", searchHitRatio_, "ratio"},
            {"search.evaluate_ms", spanMedian(spans, "search.evaluate", 1e3),
             "ms"},
        };
    }

    std::vector<std::string>
    notes() const override
    {
        std::vector<std::string> out;
        for (const auto &[what, v] :
             {std::pair{"hit", &hitMs_}, std::pair{"miss", &missMs_}}) {
            const Tail t = highestTail(*v);
            out.push_back(std::string(what) + " latency: tail is p"
                          + std::to_string(static_cast<int>(t.pct)) + " of "
                          + std::to_string(t.samples) + " samples");
        }
        return out;
    }

  private:
    /** The stream client's closed loop: each request is sent only
     *  after the previous reply. */
    void
    runStream(Digest &d, std::vector<service::ClientResult> &served,
              const std::vector<bool> &codecOk, Checks &checks)
    {
        for (std::size_t i = 0; i < items_.size(); ++i) {
            const StreamItem &it = items_[i];
            const auto t0 = Tracer::Clock::now();
            served[i] = stream_->run(it.req);
            const double ms = msSince(t0);
            const service::ClientResult &r = served[i];
            bool ok = codecOk[i] && r.status == service::Status::Ok;
            if (it.repeat) {
                ok = ok && r.servedFromCache
                     && r.body == served[it.first].body;
                hitMs_.push_back(ms);
            } else {
                ok = ok && !r.servedFromCache;
                missMs_.push_back(ms);
                d.add(r.body);
            }
            checks.op(ok, std::string("stream request ") + std::to_string(i)
                              + " (" + service::kindName(it.req.kind)
                              + (it.repeat ? ", repeat)" : ", new)"));
        }
    }

    void
    teardown()
    {
        stream_.reset();
        search_.reset();
        if (server_)
            server_->stop();
        server_.reset();
    }

    std::vector<StreamItem> items_;
    search::SearchTask task_;
    search::SearcherOptions searchOpts_;
    service::ServerConfig cfg_;
    std::unique_ptr<service::ExperimentServer> server_;
    std::unique_ptr<service::TcpClient> stream_;
    std::unique_ptr<service::TcpClient> search_;

    std::vector<double> hitMs_, missMs_, reqPerS_, searchS_, schedP50_,
        schedP99_;
    std::vector<search::SearchResult> firstSearch_;
    std::array<std::uint64_t, 4> counts_{};
    bool haveCounts_ = false;
    std::uint64_t shed_ = 0;
    double searchCalls_ = 0.0, searchHitRatio_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeServiceMix(const Options &opts)
{
    return std::make_unique<ServiceMix>(opts);
}

} // namespace perfbench
