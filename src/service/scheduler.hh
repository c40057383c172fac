/**
 * @file
 * Admission control + execution scheduling for the experiment service.
 *
 * The scheduler owns the worker pool (common/parallel.hh), the
 * content-addressed result cache, and the warm-start prefix cache.  A
 * submitted request is:
 *
 *  1. canonicalized (request.hh) — malformed requests fail here,
 *  2. admitted or shed: at most `maxPending` requests may be queued or
 *     running; beyond that the request is rejected immediately with
 *     Status::Shed instead of growing an unbounded queue,
 *  3. keyed and looked up: an exact cache hit returns the stored body
 *     byte-identically; concurrent misses on the same key coalesce
 *     (single-flight) so the experiment runs once,
 *  4. executed on the pool with its deadline/cancel control; only Ok
 *     responses are published to the cache.
 *
 * Per-request latency (submit to completion) feeds a bounded reservoir
 * from which metrics() derives p50/p99.  exportTelemetry() publishes
 * the service gauges under the telemetry::schema::kService* names.
 */

#ifndef PITON_SERVICE_SCHEDULER_HH
#define PITON_SERVICE_SCHEDULER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "common/parallel.hh"
#include "service/cache.hh"
#include "service/executor.hh"
#include "service/request.hh"
#include "service/response.hh"

namespace piton::telemetry
{
class TelemetryRecorder;
}

namespace piton::service
{

struct SchedulerConfig
{
    /** Worker threads (0 = all hardware threads). */
    unsigned threads = 0;
    /** Admission bound: max requests queued or running before new
     *  submissions are shed.  Must not exceed queueCapacity + threads
     *  or submit() could block the caller. */
    std::size_t maxPending = 32;
    /** Task-queue capacity backing the pool. */
    std::size_t queueCapacity = 64;
    CacheConfig resultCache;
    CacheConfig prefixCache;
    /** Folded into every cache key; bump to invalidate all entries
     *  (stands in for a result-format/code version change). */
    std::uint32_t versionSalt = 0;
    /** Time source for deadline bookkeeping (empty = real steady
     *  clock).  Injected by tests so deadline-expiry outcomes are
     *  deterministic under load; latency metrics also use it. */
    std::function<std::chrono::steady_clock::time_point()> clock;
};

/** Completed request outcome.  `body` is the encoded response body —
 *  the byte-identity unit: a cache hit returns the stored bytes
 *  unmodified.  `cacheHit` reports how it was served (the transport
 *  carries it outside the body for exactly that reason). */
struct ServeResult
{
    Status status = Status::Error;
    bool cacheHit = false;
    CachePayload body;
};

struct SchedulerMetrics
{
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t errors = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t deadlineExpired = 0;
    /** Responses served from the result cache (exact-hit bodies). */
    std::uint64_t cacheHits = 0;
    /** Requests currently queued or running. */
    std::size_t queueDepth = 0;
    double hitRate = 0.0; ///< cacheHits / completed (0 when idle)
    double latencyP50Ms = 0.0;
    double latencyP99Ms = 0.0;
    CacheStats resultCache;
    CacheStats prefixCache;
};

/** StatsReply payload codec (the wire form of metrics()). */
std::vector<std::uint8_t> encodeMetrics(const SchedulerMetrics &m);
SchedulerMetrics decodeMetrics(const std::vector<std::uint8_t> &payload);

/** StatsReply payload since wire v3: worker identity ahead of the
 *  metrics, so stats from several servers stay attributable without a
 *  side channel. */
struct WorkerStats
{
    std::string workerId;
    std::uint32_t threads = 0;
    SchedulerMetrics metrics;
};

std::vector<std::uint8_t> encodeWorkerStats(const WorkerStats &s);
WorkerStats decodeWorkerStats(const std::vector<std::uint8_t> &payload);

class ExperimentScheduler
{
  public:
    explicit ExperimentScheduler(SchedulerConfig cfg = {});
    ~ExperimentScheduler();

    ExperimentScheduler(const ExperimentScheduler &) = delete;
    ExperimentScheduler &operator=(const ExperimentScheduler &) = delete;

    /** Handle to an admitted (or immediately rejected) request. */
    struct Ticket
    {
        std::uint64_t id = 0;
        std::shared_future<ServeResult> result;
        /** Store true to request cancellation (stage-boundary). */
        std::shared_ptr<std::atomic<bool>> cancel;
    };

    /**
     * Canonicalize, admit, and enqueue `req`.  Never throws: a
     * malformed request yields a ready ticket with Status::Error, an
     * over-capacity one a ready ticket with Status::Shed.
     *
     * `on_done`, when set, fires exactly once with the final result —
     * on the worker thread for executed requests, or synchronously
     * inside submit() for requests rejected at admission.  The server
     * uses it to push completions into its poll loop.
     */
    Ticket submit(const ExperimentRequest &req,
                  std::function<void(const ServeResult &)> on_done = {});

    /** submit() + wait: the synchronous (LocalClient) path. */
    ServeResult serve(const ExperimentRequest &req);

    /** Block until no request is queued or running. */
    void drain();

    SchedulerMetrics metrics() const;

    /** Append one sample of each service gauge to `rec` (the time axis
     *  is the export sequence number, dt = 1). */
    void exportTelemetry(telemetry::TelemetryRecorder &rec);

    ResultCache &resultCache() { return resultCache_; }
    ResultCache &prefixCache() { return prefixCache_; }
    const SchedulerConfig &config() const { return cfg_; }
    /** Worker threads actually running (resolves cfg.threads == 0). */
    unsigned threadCount() const
    {
        return static_cast<unsigned>(pool_.threadCount());
    }

  private:
    std::chrono::steady_clock::time_point now() const
    {
        return cfg_.clock ? cfg_.clock()
                          : std::chrono::steady_clock::now();
    }
    ServeResult execute(const ExperimentRequest &canon,
                        const RunControl &ctl);
    void recordOutcome(const ServeResult &r,
                       std::chrono::steady_clock::time_point submitted_at);

    SchedulerConfig cfg_;
    ResultCache resultCache_;
    ResultCache prefixCache_;
    ThreadPool pool_;

    std::atomic<std::uint64_t> nextId_{1};
    std::atomic<std::size_t> pending_{0};

    mutable std::mutex metricsMutex_;
    SchedulerMetrics counters_;              ///< counter fields only
    std::vector<double> latencyReservoirMs_; ///< ring, newest overwrites
    std::size_t latencyNext_ = 0;
    std::uint64_t exportSeq_ = 0;

    std::mutex drainMutex_;
    std::condition_variable drainCv_;
};

} // namespace piton::service

#endif // PITON_SERVICE_SCHEDULER_HH
