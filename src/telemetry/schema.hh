/**
 * @file
 * Canonical series names of the System telemetry schema.
 *
 * One schema serves both the *true* rail powers (composed from the
 * event-energy ledger, clock tree, and leakage, before the monitor
 * chain) and the *measured* powers (after the board's quantization,
 * noise, and averaging) — mirroring how the paper distinguishes what
 * the chip draws from what the 17 Hz monitors report.  Units and
 * sample-window semantics are documented in DESIGN.md §8.
 */

#ifndef PITON_TELEMETRY_SCHEMA_HH
#define PITON_TELEMETRY_SCHEMA_HH

namespace piton::telemetry::schema
{

// True per-rail power over each sample window (gauges, W).
inline constexpr const char *kPowerVddW = "power.vdd_w";
inline constexpr const char *kPowerVcsW = "power.vcs_w";
inline constexpr const char *kPowerVioW = "power.vio_w";
inline constexpr const char *kPowerOnChipW = "power.onchip_w";

// Static/dynamic decomposition of the on-chip (VDD+VCS) power (W).
inline constexpr const char *kPowerDynamicW = "power.dynamic_w";
inline constexpr const char *kPowerClockW = "power.clock_w";
inline constexpr const char *kPowerLeakW = "power.leak_w";

/** Per-rail gauges named from power::railName(): "power.rail.<rail>_w"
 *  (true power), "..._v" (supply setpoint — follows governor
 *  actuation), "..._a" (current, W/V — what the board's sense
 *  resistors actually see). */
inline constexpr const char *kPowerRailPrefix = "power.rail.";

// Monitor-chain outputs (same windows, after quantization + noise).
inline constexpr const char *kMeasuredVddW = "measured.vdd_w";
inline constexpr const char *kMeasuredVcsW = "measured.vcs_w";
inline constexpr const char *kMeasuredVioW = "measured.vio_w";
inline constexpr const char *kMeasuredOnChipW = "measured.onchip_w";

// Event-energy ledger deltas per window (J, VDD+VCS).
inline constexpr const char *kEnergyActiveJ = "energy.active_j";
/** Per-category ledger deltas: "energy.<category>_j" with the
 *  power::categoryName() spelling (e.g. "energy.exec_j"). */
inline constexpr const char *kEnergyCategoryPrefix = "energy.";

// NoC counters (deltas per window) and flit rate (gauge).
inline constexpr const char *kNocFlits = "noc.flits";
inline constexpr const char *kNocFlitHops = "noc.flit_hops";
inline constexpr const char *kNocToggledBits = "noc.toggled_bits";
inline constexpr const char *kNocFlitsPerS = "noc.flits_per_s";

// Thermal-model readout at the end of each window (gauges, C).
inline constexpr const char *kThermalDieC = "thermal.die_c";
inline constexpr const char *kThermalPackageC = "thermal.package_c";

// Chip activity.
inline constexpr const char *kChipInsts = "chip.insts";
inline constexpr const char *kChipActiveThreads = "chip.active_threads";

/** Per-tile core-local energy delta series: "tileNN.core_j" (25x,
 *  only when RecorderConfig::perTile is set). */
inline constexpr const char *kTilePrefix = "tile";
inline constexpr const char *kTileCoreSuffix = ".core_j";

/** Closed-loop DVFS governor trace (sim::System, one sample per
 *  control epoch; DESIGN.md §13).  freq/vdd are the operating point
 *  commanded *after* the epoch's control decision; power_w is the
 *  epoch's measured mean the decision was based on. */
inline constexpr const char *kGovernorFreqMhz = "governor.freq_mhz";
inline constexpr const char *kGovernorVddV = "governor.vdd_v";
inline constexpr const char *kGovernorPowerW = "governor.power_w";
inline constexpr const char *kGovernorCapW = "governor.cap_w";
inline constexpr const char *kGovernorGatedTiles = "governor.gated_tiles";
inline constexpr const char *kGovernorEpochs = "governor.epochs";

/** Fig. 17 fan-sweep results (core::ThermalSweepExperiment): the time
 *  axis is the fan step index (dt = 1), not seconds. */
inline constexpr const char *kSweepPowerW = "sweep.power_w";
inline constexpr const char *kSweepPackageC = "sweep.package_c";
inline constexpr const char *kSweepFan = "sweep.fan_effectiveness";

/** Experiment-service metrics (service::ExperimentScheduler): the time
 *  axis is the export sequence number (dt = 1), gauges sampled at
 *  export time.  Exported by ExperimentScheduler::exportTelemetry and
 *  surfaced over the wire by the StatsQuery frame. */
inline constexpr const char *kServiceQueueDepth = "service.queue_depth";
inline constexpr const char *kServiceHitRate = "service.hit_rate";
inline constexpr const char *kServiceLatencyP50Ms = "service.latency_p50_ms";
inline constexpr const char *kServiceLatencyP99Ms = "service.latency_p99_ms";
inline constexpr const char *kServiceShed = "service.shed_total";

} // namespace piton::telemetry::schema

#endif // PITON_TELEMETRY_SCHEMA_HH
