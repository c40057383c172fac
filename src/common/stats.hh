/**
 * @file
 * Statistics helpers used throughout the characterization framework.
 *
 * The paper reports every measurement as "average over 128 samples ±
 * standard deviation of the samples from the average" and summarises
 * sweep results with least-squares trendlines (e.g. the mW/core and
 * pJ/hop slopes).  RunningStats and LinearFit implement exactly those
 * two reductions.
 */

#ifndef PITON_COMMON_STATS_HH
#define PITON_COMMON_STATS_HH

#include <cstddef>
#include <vector>

namespace piton
{

/**
 * Single-pass mean / variance accumulator (Welford's algorithm).
 * stddev() matches the paper's convention: population standard deviation
 * of the samples from the average.
 */
class RunningStats
{
  public:
    void add(double x);

    std::size_t count() const { return n_; }
    double mean() const;
    /** Population standard deviation (what the paper's ± denotes). */
    double stddev() const;
    /** Sample standard deviation (n-1 denominator). */
    double sampleStddev() const;
    double min() const;
    double max() const;
    double sum() const { return sum_; }

    void reset();

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/** Result of an ordinary least-squares line fit y = slope * x + intercept. */
struct LineFit
{
    double slope = 0.0;
    double intercept = 0.0;
    /** Coefficient of determination. */
    double r2 = 0.0;
};

/**
 * Ordinary least squares over paired samples. Requires at least two
 * distinct x values.
 */
class LinearFit
{
  public:
    void add(double x, double y);
    std::size_t count() const { return xs_.size(); }
    LineFit fit() const;

  private:
    std::vector<double> xs_;
    std::vector<double> ys_;
};

} // namespace piton

#endif // PITON_COMMON_STATS_HH
