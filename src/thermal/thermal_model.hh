/**
 * @file
 * Lumped-RC thermal model of the packaged Piton chip (Fig. 6/7, 17, 18).
 *
 * Four thermal nodes — die, package (ceramic QFP + epoxy encapsulation),
 * heat sink, ambient — connected by thermal resistances.  The paper's
 * package is cavity-up with an epoxy lid and a socket, so the die-to-
 * package resistance dominates (this is what thermally limits Fig. 9's
 * high-voltage points).  The fan changes the sink/package-to-ambient
 * convection resistance; Fig. 17 sweeps it by tilting the fan, and
 * Fig. 17/18 run with the heat sink removed entirely.
 *
 * The model integrates dT/dt = (P_in - sum(dT/R)) / C per node with
 * forward Euler and also solves the steady state directly.
 */

#ifndef PITON_THERMAL_THERMAL_MODEL_HH
#define PITON_THERMAL_THERMAL_MODEL_HH

namespace piton::thermal
{

struct ThermalParams
{
    double ambientC = 20.0;

    // Thermal capacitances (J/K).  The package value reflects the
    // thermal mass the FLIR camera actually sees responding in
    // Fig. 18's ~10 s phases (the package surface), not the full
    // ceramic body.
    double dieCap = 0.05;
    double packageCap = 1.5;
    double sinkCap = 40.0;

    // Thermal resistances (K/W).
    double dieToPackageR = 6.0;   ///< cavity-up die + epoxy bottleneck
    double packageToSinkR = 2.0;  ///< spacers + thermal paste (Fig. 6)
    double sinkToAmbientR = 2.5;  ///< heat sink + 44 cfm fan

    /** Package-to-ambient convection when no heat sink is mounted,
     *  at full fan effectiveness (Fig. 17 setup). */
    double packageToAmbientNoSinkR = 30.0;

    bool hasHeatSink = true;

    /**
     * Fan effectiveness in [0, 1]: 1 = fan square to the fins, 0 = fan
     * fully tilted away.  Scales the convection resistance up to
     * fanOffFactor at 0.  The factor is bounded so the leakage-thermal
     * loop keeps a stable operating point (the real experiment swept
     * the fan only over the 36..56 C window of Fig. 17).
     */
    double fanEffectiveness = 1.0;
    double fanOffFactor = 1.15;
};

/** Node temperatures (degrees Celsius). */
struct ThermalState
{
    double dieC = 20.0;
    double packageC = 20.0;
    double sinkC = 20.0;
};

class ThermalModel
{
  public:
    explicit ThermalModel(ThermalParams params = ThermalParams{});

    const ThermalParams &params() const { return params_; }
    void setFanEffectiveness(double eff);

    /** Reset all nodes to ambient. */
    void reset();

    const ThermalState &state() const { return state_; }
    double dieTempC() const { return state_.dieC; }
    double packageTempC() const { return state_.packageC; }

    /** Advance the network by dt seconds with chip power power_w
     *  injected at the die node. Uses sub-stepping for stability. */
    void step(double power_w, double dt_s);

    /** Closed-form steady-state temperatures for constant power. */
    ThermalState steadyState(double power_w) const;

    /** Set state directly (e.g. to start from a known condition). */
    void setState(const ThermalState &s) { state_ = s; }

    /** Checkpoint hook: parameters (setFanEffectiveness mutates them
     *  mid-run) plus node temperatures. */
    template <typename Ar>
    void
    serialize(Ar &ar)
    {
        ar.io(params_.ambientC);
        ar.io(params_.dieCap);
        ar.io(params_.packageCap);
        ar.io(params_.sinkCap);
        ar.io(params_.dieToPackageR);
        ar.io(params_.packageToSinkR);
        ar.io(params_.sinkToAmbientR);
        ar.io(params_.packageToAmbientNoSinkR);
        ar.io(params_.hasHeatSink);
        ar.io(params_.fanEffectiveness);
        ar.io(params_.fanOffFactor);
        ar.io(state_.dieC);
        ar.io(state_.packageC);
        ar.io(state_.sinkC);
    }

  private:
    /** Convection resistance from the outermost node to ambient,
     *  including the fan model. */
    double convectionR() const;

    ThermalParams params_;
    ThermalState state_;
};

} // namespace piton::thermal

#endif // PITON_THERMAL_THERMAL_MODEL_HH
