/**
 * @file
 * Supply rails and per-rail energy accounting.
 *
 * Piton has three supplies: VDD (core logic, nominal 1.0 V), VCS (SRAM
 * arrays, nominal 1.05 V), and VIO (I/O, 1.8 V).  Every energy event in
 * the model is attributed to one rail, mirroring how the test board's
 * sense resistors separate the three currents.
 */

#ifndef PITON_POWER_RAILS_HH
#define PITON_POWER_RAILS_HH

#include <array>
#include <cstddef>

namespace piton::power
{

enum class Rail : std::size_t
{
    Vdd = 0, ///< core logic
    Vcs = 1, ///< SRAM arrays
    Vio = 2, ///< I/O pads
};

constexpr std::size_t kNumRails = 3;

/** Energy accumulated per rail, in joules. */
class RailEnergy
{
  public:
    RailEnergy() = default;
    RailEnergy(double vdd, double vcs, double vio) : e_{vdd, vcs, vio} {}

    void
    add(Rail r, double joules)
    {
        e_[static_cast<std::size_t>(r)] += joules;
    }

    double
    get(Rail r) const
    {
        return e_[static_cast<std::size_t>(r)];
    }

    /** VDD + VCS, the sum the paper's EPI measurements report. */
    double onChipCoreAndSram() const { return get(Rail::Vdd) + get(Rail::Vcs); }

    double total() const { return e_[0] + e_[1] + e_[2]; }

    RailEnergy &
    operator+=(const RailEnergy &o)
    {
        for (std::size_t i = 0; i < kNumRails; ++i)
            e_[i] += o.e_[i];
        return *this;
    }

    /** Copy with every rail multiplied by `factor` (process variation). */
    RailEnergy
    scaled(double factor) const
    {
        RailEnergy out = *this;
        for (auto &v : out.e_)
            v *= factor;
        return out;
    }

    RailEnergy
    operator+(const RailEnergy &o) const
    {
        RailEnergy out = *this;
        out += o;
        return out;
    }

    RailEnergy
    operator-(const RailEnergy &o) const
    {
        RailEnergy out = *this;
        for (std::size_t i = 0; i < kNumRails; ++i)
            out.e_[i] -= o.e_[i];
        return out;
    }

    void reset() { e_ = {}; }

    /** Checkpoint hook: the three accumulators as raw bit patterns
     *  (the determinism contract compares sums bit for bit). */
    template <typename Ar>
    void
    serialize(Ar &ar)
    {
        for (auto &v : e_)
            ar.io(v);
    }

  private:
    std::array<double, kNumRails> e_{};
};

const char *railName(Rail r);

} // namespace piton::power

#endif // PITON_POWER_RAILS_HH
