#include "sampling/profiler.hh"

#include <utility>

#include "checkpoint/archive.hh"
#include "common/logging.hh"
#include "telemetry/schema.hh"

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
    piton_assert(sys_.checkpointClient() == nullptr,
                 "another checkpoint client is attached");
    sys_.attachCheckpointClient(this);
    sys_.setWindowHook(
        [this](const sim::WindowObs &obs) { return onWindow(obs); });
    snapshotStart();
    if (opts_.captureImages)
        pendingImage_ = captureImage();
}

IntervalProfiler::~IntervalProfiler()
{
    sys_.setWindowHook({});
    if (sys_.checkpointClient() == this)
        sys_.attachCheckpointClient(nullptr);
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

    std::vector<std::uint64_t> bbv_now = flattenBbv(chip);
    rec.bbv.resize(bbv_now.size());
    for (std::size_t i = 0; i < bbv_now.size(); ++i)
        rec.bbv[i] = bbv_now[i] - prevBbv_[i];
    prevBbv_ = std::move(bbv_now);

    rec.image = std::move(pendingImage_);
    pendingImage_.clear();

    if (opts_.telemetry)
        recordTelemetry(rec);
    intervals_.push_back(std::move(rec));

    // The current state is the next interval's start.
    curStartInsns_ = insns_now;
    curStartCycle_ = chip.now();
    curSeconds_ = 0.0;
    curIdleJ_ = 0.0;
    curWindows_ = 0;
    startLedger_ = chip.ledger().total();
    if (!partial && opts_.captureImages)
        pendingImage_ = captureImage();
}

void
IntervalProfiler::snapshotStart()
{
    arch::PitonChip &chip = sys_.pitonChip();
    curStartInsns_ = chip.totalInsts();
    curStartCycle_ = chip.now();
    curSeconds_ = 0.0;
    curIdleJ_ = 0.0;
    curWindows_ = 0;
    startLedger_ = chip.ledger().total();
    prevBbv_ = flattenBbv(chip);
}

std::vector<std::uint8_t>
IntervalProfiler::captureImage()
{
    // Detach for the capture: the image must describe the system alone,
    // not the profiler (whose records hold earlier images — nesting
    // them would grow each image quadratically in the interval count).
    sys_.attachCheckpointClient(nullptr);
    std::vector<std::uint8_t> img = sys_.saveBytes();
    sys_.attachCheckpointClient(this);
    return img;
}

void
IntervalProfiler::recordTelemetry(const IntervalRecord &rec)
{
    telemetry::TelemetryRecorder *telem = sys_.telemetry();
    if (telem == nullptr)
        return;
    namespace ts = telemetry::schema;
    using telemetry::Downsample;
    using telemetry::Unit;
    if (!tids_.ready) {
        // Lazy and idempotent (defineSeries dedups by name), as the
        // governor's epoch series do.
        tids_.insns = telem->defineSeries(ts::kSamplingIntervalInsns,
                                          Unit::Count, Downsample::Sum);
        tids_.cycles = telem->defineSeries(ts::kSamplingIntervalCycles,
                                           Unit::Count, Downsample::Sum);
        tids_.energyJ = telem->defineSeries(ts::kSamplingIntervalEnergyJ,
                                            Unit::Joules, Downsample::Sum);
        tids_.count = telem->defineSeries(ts::kSamplingIntervals,
                                          Unit::Count, Downsample::Sum);
        tids_.ready = true;
    }
    const double t = sys_.sampleClockS();
    const double dt = rec.seconds;
    telem->record(tids_.insns, t, dt, static_cast<double>(rec.insns));
    telem->record(tids_.cycles, t, dt, static_cast<double>(rec.cycles));
    telem->record(tids_.energyJ, t, dt, rec.energyJ());
    telem->record(tids_.count, t, dt, 1.0);
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

void
IntervalProfiler::serializeClient(ckpt::Archive &ar)
{
    // Profiling-parameter fingerprints: a resumed profile must cut
    // intervals by the same rule or the records would diverge.
    ar.ioExpect(opts_.intervalInsns, "sampling interval insns");
    ar.ioExpect(opts_.captureImages, "sampling capture images");

    ar.io(finished_);
    ar.io(curStartInsns_);
    ar.io(curStartCycle_);
    ar.io(curSeconds_);
    ar.io(curIdleJ_);
    ar.io(curWindows_);
    startLedger_.serialize(ar);

    std::uint64_t nb = ar.ioSize(prevBbv_.size(), 8);
    if (ar.loading())
        prevBbv_.resize(static_cast<std::size_t>(nb));
    for (auto &v : prevBbv_)
        ar.io(v);

    ar.ioBytes(pendingImage_);

    std::uint64_t nr = ar.ioSize(intervals_.size(), 1);
    if (ar.loading())
        intervals_.resize(static_cast<std::size_t>(nr));
    for (auto &rec : intervals_) {
        ar.io(rec.startInsns);
        ar.io(rec.startCycle);
        ar.io(rec.insns);
        ar.io(rec.cycles);
        ar.io(rec.seconds);
        ar.io(rec.activeJ);
        ar.io(rec.idleJ);
        ar.io(rec.windows);
        ar.io(rec.partial);
        std::uint64_t nv = ar.ioSize(rec.bbv.size(), 8);
        if (ar.loading())
            rec.bbv.resize(static_cast<std::size_t>(nv));
        for (auto &v : rec.bbv)
            ar.io(v);
        ar.ioBytes(rec.image);
    }
    if (ar.loading())
        tids_.ready = false; // re-resolve against whatever is attached
}

void
IntervalProfiler::rebaseline(sim::System &sys)
{
    piton_assert(&sys == &sys_, "rebaseline against a foreign system");
    // The restored image carried no profiler state: restart profiling
    // from the restored counters, like the telemetry re-baseline.
    intervals_.clear();
    finished_ = false;
    tids_.ready = false;
    snapshotStart();
    pendingImage_.clear();
    if (opts_.captureImages)
        pendingImage_ = captureImage();
}

} // namespace piton::sampling
