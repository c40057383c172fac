/**
 * @file
 * Span recorder for the benchmark's traced run.
 *
 * A span wraps one call into a layer's public API from the benchmark's
 * own code.  Spans are kept in memory and written once, at exit, as
 * Chrome trace-event JSON ("X" complete events), which Perfetto and
 * chrome://tracing load.  Spans on one thread nest by time containment;
 * a span's self time is its duration minus the time its direct
 * children cover.
 *
 * Timed runs pass a null Tracer, so a Span costs one branch there.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

class Tracer
{
  public:
    using Clock = std::chrono::steady_clock;

    struct Event
    {
        const char *name = "";
        std::int64_t startNs = 0; ///< since the tracer's origin
        std::int64_t endNs = 0;
        std::uint32_t tid = 0;
    };

    Tracer();

    /** Record a finished span (thread-safe).  `name` must outlive the
     *  tracer; callers pass string literals. */
    void record(const char *name, Clock::time_point start,
                Clock::time_point end);

    /** Self time (s) of every occurrence of each span name, in record
     *  order. */
    std::map<std::string, std::vector<double>> selfTimes() const;

    /** Write every span as Chrome trace-event JSON. */
    void writeChromeTrace(const std::string &path) const;

    std::size_t size() const;

  private:
    std::uint32_t threadIndex();

    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Event> events_;
    std::vector<std::uint64_t> threadIds_; ///< std::thread::id hashes
};

/** RAII span; no-op when `tracer` is null. */
class Span
{
  public:
    Span(Tracer *tracer, const char *name)
        : tracer_(tracer), name_(name)
    {
        if (tracer_)
            start_ = Tracer::Clock::now();
    }
    ~Span()
    {
        if (tracer_)
            tracer_->record(name_, start_, Tracer::Clock::now());
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tracer_;
    const char *name_;
    Tracer::Clock::time_point start_{};
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
