#include "service/scheduler.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "telemetry/recorder.hh"
#include "telemetry/schema.hh"

namespace piton::service
{

namespace
{

constexpr std::size_t kLatencyReservoir = 1024;

/** Ready ticket for requests rejected before reaching the pool. */
ExperimentScheduler::Ticket
readyTicket(std::uint64_t id, ServeResult result)
{
    std::promise<ServeResult> p;
    p.set_value(std::move(result));
    ExperimentScheduler::Ticket t;
    t.id = id;
    t.result = p.get_future().share();
    t.cancel = std::make_shared<std::atomic<bool>>(false);
    return t;
}

ServeResult
failureResult(Status status, Kind kind, const std::string &message)
{
    ServeResult r;
    r.status = status;
    r.body = std::make_shared<const std::vector<std::uint8_t>>(
        ExperimentResponse::failure(status, kind, message).encodeBody());
    return r;
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const std::size_t idx = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

void
encodeCacheStats(WireWriter &w, const CacheStats &s)
{
    w.u64(s.hits);
    w.u64(s.misses);
    w.u64(s.coalesced);
    w.u64(s.evictions);
    w.u64(s.corruptRejected);
    w.u64(s.diskHits);
    w.u64(s.entries);
    w.u64(s.bytes);
}

CacheStats
decodeCacheStats(WireReader &r)
{
    CacheStats s;
    s.hits = r.u64();
    s.misses = r.u64();
    s.coalesced = r.u64();
    s.evictions = r.u64();
    s.corruptRejected = r.u64();
    s.diskHits = r.u64();
    s.entries = static_cast<std::size_t>(r.u64());
    s.bytes = static_cast<std::size_t>(r.u64());
    return s;
}

} // namespace

std::vector<std::uint8_t>
encodeMetrics(const SchedulerMetrics &m)
{
    WireWriter w;
    w.u64(m.submitted);
    w.u64(m.completed);
    w.u64(m.shed);
    w.u64(m.errors);
    w.u64(m.cancelled);
    w.u64(m.deadlineExpired);
    w.u64(m.cacheHits);
    w.u64(m.queueDepth);
    w.f64(m.hitRate);
    w.f64(m.latencyP50Ms);
    w.f64(m.latencyP99Ms);
    encodeCacheStats(w, m.resultCache);
    encodeCacheStats(w, m.prefixCache);
    return w.take();
}

SchedulerMetrics
decodeMetrics(const std::vector<std::uint8_t> &payload)
{
    WireReader r(payload);
    SchedulerMetrics m;
    m.submitted = r.u64();
    m.completed = r.u64();
    m.shed = r.u64();
    m.errors = r.u64();
    m.cancelled = r.u64();
    m.deadlineExpired = r.u64();
    m.cacheHits = r.u64();
    m.queueDepth = static_cast<std::size_t>(r.u64());
    m.hitRate = r.f64();
    m.latencyP50Ms = r.f64();
    m.latencyP99Ms = r.f64();
    m.resultCache = decodeCacheStats(r);
    m.prefixCache = decodeCacheStats(r);
    r.expectEnd();
    return m;
}

std::vector<std::uint8_t>
encodeWorkerStats(const WorkerStats &s)
{
    WireWriter w;
    w.str(s.workerId);
    w.u32(s.threads);
    const std::vector<std::uint8_t> metrics = encodeMetrics(s.metrics);
    w.blob(metrics);
    return w.take();
}

WorkerStats
decodeWorkerStats(const std::vector<std::uint8_t> &payload)
{
    WireReader r(payload);
    WorkerStats s;
    s.workerId = r.str();
    s.threads = r.u32();
    s.metrics = decodeMetrics(r.blob());
    r.expectEnd();
    return s;
}

ExperimentScheduler::ExperimentScheduler(SchedulerConfig cfg)
    : cfg_(cfg), resultCache_(cfg.resultCache), prefixCache_(cfg.prefixCache),
      pool_(cfg.threads, std::max<std::size_t>(1, cfg.queueCapacity))
{
    // An admission bound above queue + workers would let submit()
    // block inside ThreadPool::submit, defeating the shed path.
    cfg_.maxPending = std::max<std::size_t>(
        1, std::min(cfg_.maxPending,
                    cfg_.queueCapacity + pool_.threadCount()));
    latencyReservoirMs_.reserve(kLatencyReservoir);
}

ExperimentScheduler::~ExperimentScheduler()
{
    drain();
}

ExperimentScheduler::Ticket
ExperimentScheduler::submit(const ExperimentRequest &req,
                            std::function<void(const ServeResult &)> on_done)
{
    const std::uint64_t id =
        nextId_.fetch_add(1, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(metricsMutex_);
        ++counters_.submitted;
    }

    const auto reject = [&](ServeResult r) {
        recordOutcome(r, now());
        if (on_done)
            on_done(r);
        return readyTicket(id, std::move(r));
    };

    ExperimentRequest canon = req;
    try {
        canon.canonicalize();
    } catch (const std::exception &e) {
        return reject(failureResult(Status::Error, req.kind, e.what()));
    }

    // Admission control: claim a slot or shed.  CAS loop rather than
    // fetch_add/undo so a burst can never transiently exceed the bound.
    std::size_t depth = pending_.load(std::memory_order_relaxed);
    do {
        if (depth >= cfg_.maxPending)
            return reject(failureResult(Status::Shed, canon.kind,
                                        "server at capacity"));
    } while (!pending_.compare_exchange_weak(depth, depth + 1,
                                             std::memory_order_relaxed));

    const auto submitted_at = now();
    RunControl ctl;
    ctl.cancelled = std::make_shared<std::atomic<bool>>(false);
    ctl.now = cfg_.clock;
    if (canon.deadlineMs > 0)
        ctl.deadline =
            submitted_at + std::chrono::milliseconds(canon.deadlineMs);

    auto promise = std::make_shared<std::promise<ServeResult>>();
    Ticket ticket;
    ticket.id = id;
    ticket.result = promise->get_future().share();
    ticket.cancel = ctl.cancelled;

    auto complete = [this, promise, submitted_at,
                     on_done = std::move(on_done)](const ServeResult &r) {
        recordOutcome(r, submitted_at);
        promise->set_value(r);
        if (on_done)
            on_done(r);
        // Release the slot last: drain() returning guarantees the
        // completion callback has already run.
        if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            std::lock_guard<std::mutex> lock(drainMutex_);
            drainCv_.notify_all();
        }
    };

    // A verified hit needs no simulation: serve it here instead of
    // queueing it behind running misses.  Misses (and disk hits) go to
    // the pool, whose acquire() counts them.
    const Hash128 key = canon.cacheKey(cfg_.versionSalt);
    if (CachePayload body = resultCache_.lookup(key)) {
        ServeResult r;
        r.status = Status::Ok;
        r.cacheHit = true;
        r.body = std::move(body);
        complete(r);
        return ticket;
    }

    pool_.submit([this, canon = std::move(canon), key, ctl,
                  complete = std::move(complete)] {
        complete(execute(canon, key, ctl));
    });
    return ticket;
}

ServeResult
ExperimentScheduler::serve(const ExperimentRequest &req)
{
    return submit(req).result.get();
}

ServeResult
ExperimentScheduler::execute(const ExperimentRequest &canon,
                             const Hash128 &key, const RunControl &ctl)
{
    if (ctl.isCancelled() || ctl.deadlineExpired()) {
        const Status s = ctl.isCancelled() ? Status::Cancelled
                                           : Status::DeadlineExpired;
        return failureResult(s, canon.kind, "rejected in queue");
    }

    ResultCache::Acquired acq = resultCache_.acquire(key);
    if (acq.hit()) {
        ServeResult r;
        r.status = Status::Ok;
        r.cacheHit = true;
        r.body = std::move(acq.payload);
        return r;
    }
    if (!acq.leader) {
        // Coalesced: share the leader's bytes.  A null payload means
        // the leader failed; fall through and compute ourselves.
        CachePayload body = acq.pending.get();
        if (body) {
            ServeResult r;
            r.status = Status::Ok;
            r.cacheHit = true;
            r.body = std::move(body);
            return r;
        }
    }

    ExperimentResponse resp;
    try {
        resp = runExperiment(canon, ctl, &prefixCache_, cfg_.versionSalt);
    } catch (...) {
        if (acq.leader)
            resultCache_.abandon(key);
        throw; // runExperiment never throws; belt and braces
    }

    ServeResult r;
    r.status = resp.status;
    r.body = std::make_shared<const std::vector<std::uint8_t>>(
        resp.encodeBody());
    if (resp.status == Status::Ok) {
        if (acq.leader)
            resultCache_.publish(key, r.body);
        else
            resultCache_.insert(key, r.body);
    } else if (acq.leader) {
        // Failures are not cached: waiters recompute (their own
        // deadline/cancel state may differ).
        resultCache_.abandon(key);
    }
    return r;
}

void
ExperimentScheduler::recordOutcome(
    const ServeResult &r, std::chrono::steady_clock::time_point submitted_at)
{
    const double latency_ms =
        std::chrono::duration<double, std::milli>(now() - submitted_at)
            .count();
    std::lock_guard<std::mutex> lock(metricsMutex_);
    ++counters_.completed;
    switch (r.status) {
    case Status::Ok:
        if (r.cacheHit)
            ++counters_.cacheHits;
        break;
    case Status::Error:
        ++counters_.errors;
        break;
    case Status::Shed:
        ++counters_.shed;
        break;
    case Status::DeadlineExpired:
        ++counters_.deadlineExpired;
        break;
    case Status::Cancelled:
        ++counters_.cancelled;
        break;
    case Status::StatusCount:
        break;
    }
    if (latencyReservoirMs_.size() < kLatencyReservoir) {
        latencyReservoirMs_.push_back(latency_ms);
    } else {
        latencyReservoirMs_[latencyNext_] = latency_ms;
        latencyNext_ = (latencyNext_ + 1) % kLatencyReservoir;
    }
}

void
ExperimentScheduler::drain()
{
    std::unique_lock<std::mutex> lock(drainMutex_);
    drainCv_.wait(lock, [this] {
        return pending_.load(std::memory_order_acquire) == 0;
    });
}

SchedulerMetrics
ExperimentScheduler::metrics() const
{
    SchedulerMetrics m;
    std::vector<double> latencies;
    {
        std::lock_guard<std::mutex> lock(metricsMutex_);
        m = counters_;
        latencies = latencyReservoirMs_;
    }
    m.queueDepth = pending_.load(std::memory_order_relaxed);
    m.hitRate = m.completed == 0 ? 0.0
                                 : static_cast<double>(m.cacheHits)
                                       / static_cast<double>(m.completed);
    std::sort(latencies.begin(), latencies.end());
    m.latencyP50Ms = percentile(latencies, 0.50);
    m.latencyP99Ms = percentile(latencies, 0.99);
    m.resultCache = resultCache_.stats();
    m.prefixCache = prefixCache_.stats();
    return m;
}

void
ExperimentScheduler::exportTelemetry(telemetry::TelemetryRecorder &rec)
{
    namespace schema = telemetry::schema;
    const SchedulerMetrics m = metrics();
    double seq;
    {
        std::lock_guard<std::mutex> lock(metricsMutex_);
        seq = static_cast<double>(exportSeq_++);
    }
    using telemetry::Downsample;
    using telemetry::Unit;
    const auto gauge = [&](const char *name, double value) {
        const std::size_t idx =
            rec.defineSeries(name, Unit::Count, Downsample::Mean);
        rec.record(idx, seq, 1.0, value);
    };
    gauge(schema::kServiceQueueDepth,
          static_cast<double>(m.queueDepth));
    gauge(schema::kServiceHitRate, m.hitRate);
    gauge(schema::kServiceLatencyP50Ms, m.latencyP50Ms);
    gauge(schema::kServiceLatencyP99Ms, m.latencyP99Ms);
    gauge(schema::kServiceShed, static_cast<double>(m.shed));
}

} // namespace piton::service
