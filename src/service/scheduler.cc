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

template <typename Io, typename S>
void
cacheStatsFields(Io &io, S &s)
{
    io.io(s.hits);
    io.io(s.misses);
    io.io(s.coalesced);
    io.io(s.evictions);
    io.io(s.corruptRejected);
    io.io(s.diskHits);
    ioAs<std::uint64_t>(io, s.entries);
    ioAs<std::uint64_t>(io, s.bytes);
}

} // namespace

template <typename Io, typename Self>
void
SchedulerMetrics::fields(Io &io, Self &self)
{
    io.io(self.submitted);
    io.io(self.completed);
    io.io(self.shed);
    io.io(self.errors);
    io.io(self.cancelled);
    io.io(self.deadlineExpired);
    io.io(self.cacheHits);
    ioAs<std::uint64_t>(io, self.queueDepth);
    io.io(self.hitRate);
    io.io(self.latencyP50Ms);
    io.io(self.latencyP99Ms);
    cacheStatsFields(io, self.resultCache);
    cacheStatsFields(io, self.prefixCache);
}

std::vector<std::uint8_t>
encodeMetrics(const SchedulerMetrics &m)
{
    return encodeFields(m);
}

SchedulerMetrics
decodeMetrics(const std::vector<std::uint8_t> &payload)
{
    return decodeFields<SchedulerMetrics>(payload);
}

template <typename Io, typename Self>
void
WorkerStats::fields(Io &io, Self &self)
{
    io.io(self.workerId);
    io.io(self.threads);
    // The metrics travel as a blob of their own layout.
    if constexpr (Io::kWriting)
        io.io(encodeMetrics(self.metrics));
    else
        self.metrics = decodeMetrics(io.blob());
}

std::vector<std::uint8_t>
encodeWorkerStats(const WorkerStats &s)
{
    return encodeFields(s);
}

WorkerStats
decodeWorkerStats(const std::vector<std::uint8_t> &payload)
{
    return decodeFields<WorkerStats>(payload);
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
