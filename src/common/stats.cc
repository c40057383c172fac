#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace piton
{

void
RunningStats::add(double x)
{
    if (n_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double
RunningStats::mean() const
{
    return n_ ? mean_ : 0.0;
}

double
RunningStats::stddev() const
{
    if (n_ < 1)
        return 0.0;
    return std::sqrt(m2_ / static_cast<double>(n_));
}

double
RunningStats::sampleStddev() const
{
    if (n_ < 2)
        return 0.0;
    return std::sqrt(m2_ / static_cast<double>(n_ - 1));
}

double
RunningStats::min() const
{
    return n_ ? min_ : 0.0;
}

double
RunningStats::max() const
{
    return n_ ? max_ : 0.0;
}

void
RunningStats::reset()
{
    *this = RunningStats();
}

void
LinearFit::add(double x, double y)
{
    xs_.push_back(x);
    ys_.push_back(y);
}

LineFit
LinearFit::fit() const
{
    piton_assert(xs_.size() >= 2, "LinearFit needs at least two points");
    const auto n = static_cast<double>(xs_.size());
    double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < xs_.size(); ++i) {
        sx += xs_[i];
        sy += ys_[i];
        sxx += xs_[i] * xs_[i];
        sxy += xs_[i] * ys_[i];
        syy += ys_[i] * ys_[i];
    }
    const double denom = n * sxx - sx * sx;
    piton_assert(std::abs(denom) > 1e-300,
                 "LinearFit requires at least two distinct x values");
    LineFit out;
    out.slope = (n * sxy - sx * sy) / denom;
    out.intercept = (sy - out.slope * sx) / n;
    const double ss_tot = syy - sy * sy / n;
    if (ss_tot <= 1e-300) {
        out.r2 = 1.0; // all y identical: the fit is exact by construction
    } else {
        double ss_res = 0.0;
        for (std::size_t i = 0; i < xs_.size(); ++i) {
            const double resid = ys_[i] - (out.slope * xs_[i] + out.intercept);
            ss_res += resid * resid;
        }
        out.r2 = 1.0 - ss_res / ss_tot;
    }
    return out;
}

} // namespace piton
