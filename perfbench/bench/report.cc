#include "bench/report.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

namespace perfbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace
{

/** 1-based nearest rank of percentile `pct` among `n` samples. */
std::size_t
nearestRank(std::size_t n, double pct)
{
    const auto r = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
    return std::clamp<std::size_t>(r, 1, n);
}

/** Nearest-rank percentile `pct` of a non-empty `v`. */
double
percentile(std::vector<double> v, double pct)
{
    std::sort(v.begin(), v.end());
    return v[nearestRank(v.size(), pct) - 1];
}

} // namespace

Tail
highestTail(const std::vector<double> &v)
{
    for (const double pct : {99.0, 95.0, 90.0, 75.0, 50.0})
        if (!v.empty() && v.size() - nearestRank(v.size(), pct) >= 10)
            return Tail{pct, percentile(v, pct), v.size()};
    return Tail{0.0, 0.0, v.size()};
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KB on Linux
}

double
processCpuS()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto s = [](const timeval &t) {
        return static_cast<double>(t.tv_sec)
               + static_cast<double>(t.tv_usec) * 1e-6;
    };
    return s(ru.ru_utime) + s(ru.ru_stime);
}

unsigned
benchThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(hw, 1u, 2u);
}

std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
        std::snprintf(buf, sizeof buf, "%.17g", v);
        os << (i ? ", " : "") << '"' << metrics[i].name
           << "\": {\"value\": " << buf << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    }
    os << "}}";
    return os.str();
}

} // namespace perfbench
