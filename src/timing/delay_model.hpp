// Dynamic (per-cycle) delay model.
//
// Substitutes the paper's SDF-annotated gate-level simulation: given the
// per-cycle pipeline occupancy (CycleRecord), it produces the actual data
// arrival time required by every pipeline stage in that cycle. Delays are
//   required(stage, t) = anchor - spread * mix(jitter, data_factor)
// where `anchor`/`spread` come from the calibrated per-(stage, family)
// bands, `jitter` is deterministic pseudo-randomness standing in for
// wire/state effects, and `data_factor` models operand-dependent path
// excitation (carry-chain length for the adder, operand widths for the
// multiplier, toggle counts for logic ops, ...). All values scale with the
// operating voltage via the cell library — and *only* via a single
// multiplicative `delay_scale(v)`: the unscaled ("unit") requirement of a
// cycle is a pure function of (variant, seed, cycle record), so it can be
// computed once per trace and retargeted to any voltage by one multiply
// (see timing/trace_delays).
#pragma once

#include <array>
#include <cstdint>

#include "sim/cycle_record.hpp"
#include "timing/cell_library.hpp"
#include "timing/design_config.hpp"
#include "timing/timing_params.hpp"

namespace focs::timing {

/// Actual timing requirements of one cycle.
struct CycleDelays {
    /// Max data-arrival requirement per stage (incl. setup), picoseconds.
    std::array<double, sim::kStageCount> stage_ps{};
    /// Stage owning the overall maximum (paper Fig. 6 attribution).
    sim::Stage limiting_stage = sim::Stage::kEx;
    /// Minimum safe clock period for this cycle = max over stages.
    double required_period_ps = 0;
};

/// Occupancy classification shared by the delay model, the DTA attribution
/// and the DCA policies (this is the paper's "pipeline specification").
/// Returns a class index in [0, kOccupancyClasses).
int occupancy_class(const sim::StageView& view);

/// Class charged for the ADR stage: on redirect cycles the instruction
/// driving the target (jump/branch) is charged; otherwise the instruction
/// being fetched (see DESIGN.md "ADR attribution").
int adr_occupancy_class(const sim::CycleRecord& record);

/// Human-readable class name ("add", "mul", ..., "bubble", "held").
std::string_view occupancy_class_name(int occupancy_class);

class DelayCalculator {
public:
    /// Extra band_lut_ row holding the ADR redirect bands.
    static constexpr int kAdrRedirectRow = sim::kStageCount;

    explicit DelayCalculator(const DesignConfig& config,
                             const CellLibrary& library = CellLibrary::fdsoi28());

    /// Computes the actual per-stage timing requirements for one cycle.
    CycleDelays evaluate(const sim::CycleRecord& record) const;

    /// Voltage-free flavour of evaluate(): the same per-stage requirements
    /// before the operating point's delay_scale multiplier. Because scaling
    /// by a positive constant is monotone under IEEE rounding,
    /// fl(evaluate_unit().required_period_ps * voltage_scale()) is
    /// bit-identical to evaluate().required_period_ps — the property the
    /// voltage-invariant trace-delay artifact is built on.
    CycleDelays evaluate_unit(const sim::CycleRecord& record) const;

    /// Band resolved for (row, occupancy class); `row` is a stage index or
    /// kAdrRedirectRow.
    const DelayBand& band(int row, int occupancy_class) const {
        return *band_lut_[static_cast<std::size_t>(row)][static_cast<std::size_t>(occupancy_class)];
    }

    /// The static (STA) clock period of this design at its voltage.
    double static_period_ps() const { return static_period_ps_; }

    /// The static period before voltage scaling (the calibration tables'
    /// 0.70 V reference value).
    double unit_static_period_ps() const { return params_->static_period_ps; }

    const DesignConfig& config() const { return config_; }
    const TimingParams& params() const { return *params_; }
    double voltage_scale() const { return voltage_scale_; }

private:
    /// Unscaled delay of one band for one (stage, cycle) slot: one
    /// splitmix64 jitter draw mixed with the operand excitation.
    double unit_band_delay(const DelayBand& band, const sim::StageView& view, sim::Stage stage,
                           std::uint64_t cycle) const;
    double band_delay(const DelayBand& band, const sim::StageView& view, sim::Stage stage,
                      std::uint64_t cycle) const;

    DesignConfig config_;
    const TimingParams* params_;
    double voltage_scale_;
    double static_period_ps_;
    /// Flattened (stage, occupancy class) -> band resolution, built once at
    /// construction so the per-cycle evaluate() loop is a single indexed
    /// load. Row kStageCount holds the ADR redirect bands.
    std::array<std::array<const DelayBand*, kOccupancyClasses>, sim::kStageCount + 1> band_lut_{};
};

}  // namespace focs::timing
