#include "telemetry/aggregate.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/stats.hh"

namespace piton::telemetry
{

Aggregate
aggregatePoints(const std::vector<SamplePoint> &pts)
{
    Aggregate a;
    a.count = pts.size();
    if (pts.empty())
        return a;

    RunningStats rs;
    std::vector<double> values;
    values.reserve(pts.size());
    for (const auto &p : pts) {
        rs.add(p.value);
        values.push_back(p.value);
    }
    a.min = rs.min();
    a.max = rs.max();
    a.mean = rs.mean();
    a.stddev = rs.stddev();
    std::sort(values.begin(), values.end());
    a.p50 = percentileOf(values, 50.0);
    a.p95 = percentileOf(values, 95.0);
    a.p99 = percentileOf(values, 99.0);
    return a;
}

double
percentileOf(std::vector<double> values, double q)
{
    piton_assert(q >= 0.0 && q <= 100.0, "percentile %.1f out of range", q);
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    // Nearest rank: ceil(q/100 * n), 1-based.
    const auto n = static_cast<double>(values.size());
    const auto rank =
        static_cast<std::size_t>(std::ceil(q / 100.0 * n));
    return values[rank == 0 ? 0 : rank - 1];
}

double
integratePoints(const std::vector<SamplePoint> &pts)
{
    double j = 0.0;
    for (const auto &p : pts)
        j += p.value * p.dtS;
    return j;
}

double
sumPoints(const std::vector<SamplePoint> &pts)
{
    double s = 0.0;
    for (const auto &p : pts)
        s += p.value;
    return s;
}

} // namespace piton::telemetry
