/**
 * @file
 * The benchmark's workloads behind one interface.
 *
 * A run sets up and executes passes of one workload until its time is
 * spent.  Each pass is preceded by set-up steps, each timed on its own
 * (setup_s is the median of those).  A pass is deterministic in its
 * simulated results: every pass must reproduce the first pass's result
 * digest exactly, at any seed, and at the default seed that digest must
 * equal the committed one.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/report.hh"
#include "bench/trace.hh"

namespace perfbench
{

/** The seed the committed digests were recorded at. */
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options
{
    std::uint64_t seed = kDefaultSeed;
    /** Worker threads for sweeps, slice replays and searches. */
    unsigned threads = 1;
    /** Checkout root (scenario files live under it). */
    std::string repoRoot = ".";
    /** Writable directory for exports the workloads produce. */
    std::string outDir = ".";
};

/** Operation outcomes: every checked operation counts as attempted; a
 *  failed check, mismatch or non-Ok status counts it as failed. */
class Checks
{
  public:
    /** Count one operation; returns `ok`. */
    bool op(bool ok, const std::string &what);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &messages() const { return messages_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> messages_;
};

/** Self time (s) of every occurrence of each span name. */
using SpanTimes = std::map<std::string, std::vector<double>>;

class Workload
{
  public:
    virtual ~Workload() = default;

    /** One set-up step for the next pass. */
    virtual void setup() = 0;

    /** One pass; spans go to `tracer` (null in timed passes).  Returns
     *  the digest of the pass's result values. */
    virtual std::string pass(Tracer *tracer, Checks &checks) = 0;

    /** Workload-specific figures over the passes so far (medians);
     *  `spans` is empty unless the run was traced. */
    virtual std::vector<Metric> metrics(const SpanTimes &spans) const = 0;

    /** Extra report lines (e.g. which percentile a tail metric is). */
    virtual std::vector<std::string> notes() const { return {}; }
};

std::unique_ptr<Workload> makePaperSweep(const Options &opts);
std::unique_ptr<Workload> makeLongChip(const Options &opts);
std::unique_ptr<Workload> makeServiceMix(const Options &opts);

/** Median of a span's self times, scaled (e.g. 1e3 for ms); 0 when the
 *  span never ran. */
double spanMedian(const SpanTimes &spans, const std::string &name,
                  double scale);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
