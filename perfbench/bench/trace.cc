#include "bench/trace.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>

namespace perfbench
{

Tracer::Tracer() : origin_(Clock::now())
{
    events_.reserve(1 << 16);
}

std::uint32_t
Tracer::threadIndex()
{
    const std::uint64_t id =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    const auto it = std::find(threadIds_.begin(), threadIds_.end(), id);
    if (it != threadIds_.end())
        return static_cast<std::uint32_t>(it - threadIds_.begin());
    threadIds_.push_back(id);
    return static_cast<std::uint32_t>(threadIds_.size() - 1);
}

void
Tracer::record(const char *name, Clock::time_point start,
               Clock::time_point end)
{
    const auto ns = [this](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t
                                                                    - origin_)
            .count();
    };
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(Event{name, ns(start), ns(end), threadIndex()});
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

std::map<std::string, std::vector<double>>
Tracer::selfTimes() const
{
    std::vector<Event> ev;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ev = events_;
    }
    // Record order is end order; nesting needs start order, outer first.
    std::vector<std::size_t> order(ev.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        if (ev[a].tid != ev[b].tid)
            return ev[a].tid < ev[b].tid;
        if (ev[a].startNs != ev[b].startNs)
            return ev[a].startNs < ev[b].startNs;
        return ev[a].endNs > ev[b].endNs;
    });
    std::vector<std::int64_t> childNs(ev.size(), 0);
    std::vector<std::size_t> stack;
    for (const std::size_t i : order) {
        while (!stack.empty()
               && (ev[stack.back()].tid != ev[i].tid
                   || ev[stack.back()].endNs < ev[i].endNs))
            stack.pop_back();
        if (!stack.empty())
            childNs[stack.back()] += ev[i].endNs - ev[i].startNs;
        stack.push_back(i);
    }
    std::map<std::string, std::vector<double>> out;
    for (std::size_t i = 0; i < ev.size(); ++i)
        out[ev[i].name].push_back(
            static_cast<double>(ev[i].endNs - ev[i].startNs - childNs[i])
            * 1e-9);
    return out;
}

void
Tracer::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot write trace file " + path);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    char buf[256];
    bool first = true;
    for (std::uint32_t t = 0; t < threadIds_.size(); ++t) {
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                      "\"tid\":%u,\"args\":{\"name\":\"%s%u\"}}",
                      first ? "" : ",\n", t, t == 0 ? "main" : "thread-", t);
        os << buf;
        first = false;
    }
    for (const Event &e : events_) {
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                      "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f}",
                      first ? "" : ",\n", e.name, e.tid,
                      static_cast<double>(e.startNs) * 1e-3,
                      static_cast<double>(e.endNs - e.startNs) * 1e-3);
        os << buf;
        first = false;
    }
    os << "\n]}\n";
}

} // namespace perfbench
