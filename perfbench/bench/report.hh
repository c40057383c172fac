/**
 * @file
 * Statistics, host measurements and the result line of the benchmark.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Median (mean of the middle two for even sizes); 0 when empty. */
double median(std::vector<double> v);

/** A tail percentile together with the sample count behind it. */
struct Tail
{
    double pct = 0.0;   ///< 0 when no percentile qualifies
    double value = 0.0;
    std::size_t samples = 0;
};

/** The highest of p99, p95, p90, p75 and p50 that has at least ten
 *  samples beyond it (nearest rank); pct == 0 when even p50 has
 *  fewer. */
Tail highestTail(const std::vector<double> &v);

/** Peak resident set size of this process (MB). */
double peakRssMb();

/** User + system CPU time of this process so far (s). */
double processCpuS();

/** Worker threads the benchmark uses: two, or one on a 1-CPU host.
 *  On a shared 4-CPU host a sweep pass's host time spread more from
 *  run to run the more of the CPUs it kept busy, and at 3 or 4 threads
 *  past the bound BENCHMARK.json sets for it. */
unsigned benchThreads();

/** One named measurement. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Last-line JSON object: correct, attempted, failed, metrics. */
std::string resultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
