#include "governor/governor.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "checkpoint/archive.hh"
#include "common/logging.hh"
#include "config/kv_file.hh"

namespace piton::governor
{

void
Governor::init(const Platform &plat)
{
    piton_assert(plat.piton != nullptr, "governor platform without params");
    piton_assert(params_.epochWindows >= 1, "epochWindows must be >= 1");
    plat_ = plat;
    vf_ = power::VfModel(plat.vf);
    onInit();
}

void
Governor::serialize(ckpt::Archive &)
{
}

std::vector<TileId>
Governor::placeTiles(std::uint32_t count) const
{
    piton_assert(plat_.piton != nullptr, "placeTiles before init");
    const std::uint32_t n =
        std::min<std::uint32_t>(count, plat_.piton->tileCount);
    std::vector<TileId> tiles;
    tiles.reserve(n);
    for (TileId t = 0; t < n; ++t)
        tiles.push_back(t);
    return tiles;
}

double
Governor::fmaxMhz(double vdd_v) const
{
    return vf_.quantizeMhz(vf_.rawFmaxMhz(vdd_v, plat_.speedFactor));
}

double
Governor::clampFreqMhz(double f_mhz) const
{
    const double hi = fmaxMhz(params_.maxVddV);
    const double f = std::min(std::max(f_mhz, params_.minFreqMhz), hi);
    return std::max(vf_.quantizeMhz(f), vf_.params().freqStepMhz);
}

double
Governor::vddForFreq(double f_mhz) const
{
    const double lo0 = vf_.params().minVddV;
    const double hi0 = std::max(params_.maxVddV, lo0);
    if (vf_.rawFmaxMhz(hi0, plat_.speedFactor) < f_mhz)
        return hi0;
    if (vf_.rawFmaxMhz(lo0, plat_.speedFactor) >= f_mhz)
        return lo0;
    // Fixed-iteration bisection: fmax(V) is monotone, and the constant
    // step count makes the result a pure function of (f, bounds) —
    // identical on every replay.
    double lo = lo0;
    double hi = hi0;
    for (int i = 0; i < 64; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (vf_.rawFmaxMhz(mid, plat_.speedFactor) >= f_mhz)
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

namespace
{

/** The constant-V-f "governor": the static-table baseline every other
 *  policy is compared against. */
class NoneGovernor final : public Governor
{
  public:
    explicit NoneGovernor(GovernorParams p) : Governor(std::move(p)) {}
    const char *name() const override { return "none"; }
    Actuation
    controlEpoch(const EpochObs &) override
    {
        return {};
    }
};

/** Linux-ondemand-style utilization ladder, per tile. */
class OndemandGovernor final : public Governor
{
  public:
    explicit OndemandGovernor(GovernorParams p) : Governor(std::move(p)) {}
    const char *name() const override { return "ondemand"; }

    void
    onInit() override
    {
        tileF_.assign(plat_.piton->tileCount,
                      clampFreqMhz(plat_.nominalFreqMhz));
    }

    Actuation
    controlEpoch(const EpochObs &obs) override
    {
        piton_assert(obs.tiles.size() == tileF_.size(),
                     "tile count mismatch");
        const double step = vf_.params().freqStepMhz;
        const double fmax = fmaxMhz(params_.maxVddV);
        // Issue slots the tile actually had: total thread-cycles scaled
        // by its duty share of the chip clock.
        const double slots =
            static_cast<double>(plat_.piton->threadsPerCore)
            * static_cast<double>(obs.epochCycles);
        bool changed = false;
        double chip_f = params_.minFreqMhz;
        for (std::size_t t = 0; t < tileF_.size(); ++t) {
            const TileObs &to = obs.tiles[t];
            const double frac =
                obs.freqMhz > 0.0 ? to.freqMhz / obs.freqMhz : 0.0;
            const double util =
                (slots > 0.0 && frac > 0.0)
                    ? static_cast<double>(to.insts) / (slots * frac)
                    : 0.0;
            double f = tileF_[t];
            if (util > params_.upUtil)
                f = fmax; // ondemand semantics: jump straight to max
            else if (util < params_.downUtil)
                f = clampFreqMhz(tileF_[t] - 4.0 * step);
            if (f != tileF_[t]) {
                tileF_[t] = f;
                changed = true;
            }
            chip_f = std::max(chip_f, tileF_[t]);
        }
        Actuation act;
        act.changed = changed || chip_f != obs.freqMhz;
        act.freqMhz = clampFreqMhz(chip_f);
        act.vddV = vddForFreq(act.freqMhz);
        act.tileFreqMhz = tileF_;
        return act;
    }

    void
    serialize(ckpt::Archive &ar) override
    {
        const std::uint64_t n = ar.ioSize(tileF_.size(), 8);
        if (ar.loading())
            tileF_.resize(static_cast<std::size_t>(n));
        for (auto &f : tileF_)
            ar.io(f);
    }

  private:
    std::vector<double> tileF_;
};

/** PI(D) power-cap tracker: moves the chip operating point along the
 *  V-f curve to hold a watt budget on the on-chip total or one rail. */
class PidCapGovernor final : public Governor
{
  public:
    explicit PidCapGovernor(GovernorParams p) : Governor(std::move(p))
    {
        if (params_.capRail != "onchip" && params_.capRail != "vdd"
            && params_.capRail != "vcs" && params_.capRail != "vio")
            throw std::runtime_error("pidcap: bad cap_rail '"
                                     + params_.capRail
                                     + "' (onchip|vdd|vcs|vio)");
        if (!(params_.capW > 0.0))
            throw std::runtime_error("pidcap: cap_w must be > 0");
    }
    const char *name() const override { return "pidcap"; }

    void
    onInit() override
    {
        baseF_ = clampFreqMhz(plat_.nominalFreqMhz);
        integW_ = 0.0;
        prevErrW_ = 0.0;
        hasPrev_ = false;
    }

    Actuation
    controlEpoch(const EpochObs &obs) override
    {
        double measured = obs.onChipPowerW;
        if (params_.capRail == "vdd")
            measured = obs.railPowerW[0];
        else if (params_.capRail == "vcs")
            measured = obs.railPowerW[1];
        else if (params_.capRail == "vio")
            measured = obs.railPowerW[2];

        const double err = params_.capW - measured;
        integW_ += err;
        // Anti-windup: the integral term alone may never command more
        // than the full frequency range.
        const double span = fmaxMhz(params_.maxVddV) - params_.minFreqMhz;
        const double ilim =
            span / std::max(std::abs(params_.kiMhzPerW), 1e-9);
        integW_ = std::min(std::max(integW_, -ilim), ilim);
        const double deriv = hasPrev_ ? err - prevErrW_ : 0.0;
        prevErrW_ = err;
        hasPrev_ = true;

        Actuation act;
        act.freqMhz = clampFreqMhz(baseF_ + params_.kpMhzPerW * err
                                   + params_.kiMhzPerW * integW_
                                   + params_.kdMhzPerW * deriv);
        act.vddV = vddForFreq(act.freqMhz);
        act.changed = act.freqMhz != obs.freqMhz || act.vddV != obs.vddV;
        return act;
    }

    void
    serialize(ckpt::Archive &ar) override
    {
        ar.io(baseF_);
        ar.io(integW_);
        ar.io(prevErrW_);
        ar.io(hasPrev_);
    }

  private:
    double baseF_ = 0.0;
    double integW_ = 0.0;
    double prevErrW_ = 0.0;
    bool hasPrev_ = false;
};

/** THEAS-style cache-aware placement + DVFS: throttle memory-bound
 *  tiles (their cycles are stalls, not work), boost compute-bound
 *  ones, hard-gate idle ones, and cluster active tiles around the
 *  mesh center so shared-L2 traffic takes fewer NoC hops. */
class TheasGovernor final : public Governor
{
  public:
    explicit TheasGovernor(GovernorParams p) : Governor(std::move(p)) {}
    const char *name() const override { return "theas"; }

    void
    onInit() override
    {
        tileF_.assign(plat_.piton->tileCount,
                      clampFreqMhz(plat_.nominalFreqMhz));
    }

    std::vector<TileId>
    placeTiles(std::uint32_t count) const override
    {
        piton_assert(plat_.piton != nullptr, "placeTiles before init");
        const config::PitonParams &p = *plat_.piton;
        const std::uint32_t n = std::min<std::uint32_t>(count, p.tileCount);
        const TileId center =
            config::tileIdAt(p, p.meshWidth / 2, p.meshHeight / 2);
        std::vector<TileId> tiles(p.tileCount);
        for (TileId t = 0; t < p.tileCount; ++t)
            tiles[t] = t;
        std::sort(tiles.begin(), tiles.end(), [&](TileId a, TileId b) {
            const std::uint32_t da = config::hopDistance(p, center, a);
            const std::uint32_t db = config::hopDistance(p, center, b);
            return da != db ? da < db : a < b;
        });
        tiles.resize(n);
        return tiles;
    }

    Actuation
    controlEpoch(const EpochObs &obs) override
    {
        piton_assert(obs.tiles.size() == tileF_.size(),
                     "tile count mismatch");
        const double step = vf_.params().freqStepMhz;
        bool changed = false;
        double chip_f = params_.minFreqMhz;
        for (std::size_t t = 0; t < tileF_.size(); ++t) {
            const TileObs &to = obs.tiles[t];
            double f = tileF_[t];
            if (to.insts == 0 && to.stallCycles == 0) {
                // Truly idle this epoch: gate it off entirely.  (A
                // gated tile with unfinished threads is force-run one
                // window per epoch by the System progress guard, so
                // stalled-but-live tiles resurface here as stalls.)
                f = 0.0;
            } else {
                const double frac =
                    obs.freqMhz > 0.0 && to.freqMhz > 0.0
                        ? to.freqMhz / obs.freqMhz
                        : 1.0;
                const double cyc =
                    static_cast<double>(plat_.piton->threadsPerCore)
                    * static_cast<double>(obs.epochCycles) * frac;
                const double stall =
                    cyc > 0.0 ? static_cast<double>(to.stallCycles) / cyc
                              : 0.0;
                const double cur = f > 0.0 ? f : params_.minFreqMhz;
                if (stall > params_.stallHi)
                    f = clampFreqMhz(cur - 4.0 * step);
                else if (stall < params_.stallLo)
                    f = clampFreqMhz(cur + 4.0 * step);
                else if (f == 0.0)
                    f = clampFreqMhz(cur);
            }
            if (f != tileF_[t]) {
                tileF_[t] = f;
                changed = true;
            }
            chip_f = std::max(chip_f, tileF_[t]);
        }
        Actuation act;
        act.changed = changed || chip_f != obs.freqMhz;
        act.freqMhz = clampFreqMhz(chip_f);
        act.vddV = vddForFreq(act.freqMhz);
        act.tileFreqMhz = tileF_;
        return act;
    }

    void
    serialize(ckpt::Archive &ar) override
    {
        const std::uint64_t n = ar.ioSize(tileF_.size(), 8);
        if (ar.loading())
            tileF_.resize(static_cast<std::size_t>(n));
        for (auto &f : tileF_)
            ar.io(f);
    }

  private:
    std::vector<double> tileF_;
};

} // namespace

std::unique_ptr<Governor>
makeGovernor(const GovernorParams &params)
{
    if (params.policy == "none")
        return std::make_unique<NoneGovernor>(params);
    if (params.policy == "ondemand")
        return std::make_unique<OndemandGovernor>(params);
    if (params.policy == "pidcap")
        return std::make_unique<PidCapGovernor>(params);
    if (params.policy == "theas")
        return std::make_unique<TheasGovernor>(params);
    throw std::runtime_error("unknown governor policy '" + params.policy
                             + "' (" + governorPolicyNames() + ")");
}

const char *
governorPolicyNames()
{
    return "none|ondemand|pidcap|theas";
}

GovernorParams
governorParamsFromKv(const config::KvFile &kv, GovernorParams base)
{
    GovernorParams p = std::move(base);
    p.policy = kv.get("governor", p.policy);
    p.epochWindows = kv.getUint32("epoch_windows", p.epochWindows);
    p.capW = kv.getDouble("cap_w", p.capW);
    p.capRail = kv.get("cap_rail", p.capRail);
    p.kpMhzPerW = kv.getDouble("kp_mhz_per_w", p.kpMhzPerW);
    p.kiMhzPerW = kv.getDouble("ki_mhz_per_w", p.kiMhzPerW);
    p.kdMhzPerW = kv.getDouble("kd_mhz_per_w", p.kdMhzPerW);
    p.upUtil = kv.getDouble("up_util", p.upUtil);
    p.downUtil = kv.getDouble("down_util", p.downUtil);
    p.stallHi = kv.getDouble("stall_hi", p.stallHi);
    p.stallLo = kv.getDouble("stall_lo", p.stallLo);
    p.minFreqMhz = kv.getDouble("min_freq_mhz", p.minFreqMhz);
    p.maxVddV = kv.getDouble("max_vdd_v", p.maxVddV);
    if (p.epochWindows == 0)
        throw config::KvError("epoch_windows must be >= 1");
    return p;
}

} // namespace piton::governor
