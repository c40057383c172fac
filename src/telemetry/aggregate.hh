/**
 * @file
 * Aggregation layer over telemetry series: summary statistics
 * (min/max/mean/stddev/percentiles), time integrals and sums.
 *
 * The mean/stddev reduction replays RunningStats' Welford update in the
 * same sample order, so an aggregate over a measured telemetry series
 * is bit-identical to the PowerMeasurement statistics computed from the
 * same monitor samples (this is what lets the power-cap study switch to
 * the telemetry path without perturbing its results).
 */

#ifndef PITON_TELEMETRY_AGGREGATE_HH
#define PITON_TELEMETRY_AGGREGATE_HH

#include <cstddef>
#include <vector>

#include "telemetry/series.hh"

namespace piton::telemetry
{

struct Aggregate
{
    std::size_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    /** Population standard deviation (the paper's ± convention). */
    double stddev = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

/** Summary statistics over the points' values (sample order). */
Aggregate aggregatePoints(const std::vector<SamplePoint> &pts);

/** Nearest-rank percentile of the values; q in [0, 100]. */
double percentileOf(std::vector<double> values, double q);

/** Time integral sum(value * dt) — watts in, joules out. */
double integratePoints(const std::vector<SamplePoint> &pts);

/** Plain sum of the values (delta/count series). */
double sumPoints(const std::vector<SamplePoint> &pts);

} // namespace piton::telemetry

#endif // PITON_TELEMETRY_AGGREGATE_HH
