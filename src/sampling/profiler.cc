#include "sampling/profiler.hh"

#include <utility>

#include "checkpoint/archive.hh"
#include "common/logging.hh"

namespace piton::sampling
{

namespace
{

/** Flatten the chip's per-tile BBV histograms, tile-major. */
std::vector<std::uint64_t>
flattenBbv(arch::PitonChip &chip)
{
    const std::uint32_t buckets = chip.bbvBuckets();
    const std::uint32_t tiles = chip.params().tileCount;
    std::vector<std::uint64_t> out;
    out.reserve(static_cast<std::size_t>(buckets) * tiles);
    for (TileId t = 0; t < tiles; ++t) {
        const auto &v = chip.coreBbv(t);
        out.insert(out.end(), v.begin(), v.end());
    }
    return out;
}

} // namespace

IntervalProfiler::IntervalProfiler(sim::System &sys, ProfilerOptions opts)
    : sys_(sys), opts_(opts)
{
    piton_assert(opts_.intervalInsns > 0, "empty profiling interval");
    piton_assert(sys_.pitonChip().bbvBuckets() != 0,
                 "interval profiling needs SystemOptions::bbvBuckets");
    piton_assert(sys_.dvfsGovernor() == nullptr,
                 "interval profiling of governed runs is unsupported");
    sys_.setWindowHook(
        [this](const sim::WindowObs &obs) { return onWindow(obs); });
    arch::PitonChip &chip = sys_.pitonChip();
    curStartInsns_ = chip.totalInsts();
    curStartCycle_ = chip.now();
    startLedger_ = chip.ledger().total();
    prevBbv_ = flattenBbv(chip);
    if (opts_.captureImages)
        pendingImage_ = ckpt::packImage(sys_.saveBytes());
}

IntervalProfiler::~IntervalProfiler()
{
    sys_.setWindowHook({});
}

sim::CompletionResult
IntervalProfiler::run(Cycle max_cycles)
{
    const sim::CompletionResult res = sys_.runToCompletion(max_cycles);
    if (res.completed)
        finish(); // idempotent: the hook already saw obs.done
    return res;
}

void
IntervalProfiler::finish()
{
    if (finished_)
        return;
    closeInterval(true);
    finished_ = true;
}

bool
IntervalProfiler::onWindow(const sim::WindowObs &obs)
{
    if (finished_)
        return true;
    curSeconds_ += obs.windowS;
    curIdleJ_ += obs.idleEnergyJ;
    ++curWindows_;
    const std::uint64_t cur = sys_.pitonChip().totalInsts();
    if (cur - curStartInsns_ >= opts_.intervalInsns)
        closeInterval(false);
    if (obs.done)
        finish();
    return true; // the profiler observes; it never stops the run
}

void
IntervalProfiler::closeInterval(bool partial)
{
    arch::PitonChip &chip = sys_.pitonChip();
    const std::uint64_t insns_now = chip.totalInsts();
    if (partial && curWindows_ == 0 && insns_now == curStartInsns_)
        return; // nothing accumulated since the last close

    IntervalRecord rec;
    rec.startInsns = curStartInsns_;
    rec.startCycle = curStartCycle_;
    rec.insns = insns_now - curStartInsns_;
    rec.cycles = chip.now() - curStartCycle_;
    rec.seconds = curSeconds_;
    rec.activeJ =
        (chip.ledger().total() - startLedger_).onChipCoreAndSram();
    rec.idleJ = curIdleJ_;
    rec.windows = curWindows_;
    rec.partial = partial;

    // prevBbv_ turns into the delta, then takes the new snapshot.
    std::vector<std::uint64_t> bbv_now = flattenBbv(chip);
    for (std::size_t i = 0; i < bbv_now.size(); ++i)
        prevBbv_[i] = bbv_now[i] - prevBbv_[i];
    rec.bbv = SparseBbv::fromDense(prevBbv_);
    prevBbv_ = std::move(bbv_now);

    rec.image = std::move(pendingImage_);
    pendingImage_.clear();

    intervals_.push_back(std::move(rec));

    // The current state is the next interval's start.
    curStartInsns_ = insns_now;
    curStartCycle_ = chip.now();
    curSeconds_ = 0.0;
    curIdleJ_ = 0.0;
    curWindows_ = 0;
    startLedger_ = chip.ledger().total();
    if (!partial && opts_.captureImages)
        pendingImage_ = ckpt::packImage(sys_.saveBytes());
}

std::uint64_t
IntervalProfiler::totalInsns() const
{
    std::uint64_t n = 0;
    for (const auto &r : intervals_)
        n += r.insns;
    return n;
}

double
IntervalProfiler::totalEnergyJ() const
{
    double j = 0.0;
    for (const auto &r : intervals_)
        j += r.energyJ();
    return j;
}

double
IntervalProfiler::totalSeconds() const
{
    double s = 0.0;
    for (const auto &r : intervals_)
        s += r.seconds;
    return s;
}

} // namespace piton::sampling
