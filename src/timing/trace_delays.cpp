#include "timing/trace_delays.hpp"

#include <utility>

#include "common/error.hpp"
#include "isa/isa_info.hpp"

namespace focs::timing {

TraceDelays compute_trace_delays(const DelayCalculator& calculator,
                                 const std::vector<sim::CycleRecord>& records) {
    TraceDelays delays;
    delays.static_period_ps = calculator.static_period_ps();
    delays.required_period_ps.reserve(records.size());
    for (const sim::CycleRecord& record : records) {
        delays.required_period_ps.push_back(calculator.evaluate(record).required_period_ps);
    }
    return delays;
}

UnitTraceDelays compute_unit_trace_delays(const DelayCalculator& calculator,
                                          const std::vector<sim::CycleRecord>& records) {
    UnitTraceDelays out;
    out.unit_static_period_ps = calculator.unit_static_period_ps();
    const std::size_t cycles = records.size();
    out.unit_required_period_ps.assign(cycles, 0.0);
    // Matches CycleDelays' default attribution when no stage exceeds 0.
    out.limiting_stage.assign(cycles, sim::Stage::kEx);

    // Stage-major fused pass: each row resolves its band and draws its one
    // splitmix64 jitter sample per cycle, then maxes into the flat array.
    // The band resolution is the stage-major transpose of the cycle-major
    // evaluate_unit() loop (delay_model.cpp evaluate_cycle) with the
    // ADR-redirect test hoisted into the one stage it can apply to; stages
    // are visited in ascending order and replace only on strictly greater
    // delays, so ties attribute to the earliest stage exactly like the
    // cycle-major loop. test_replay asserts the bit-level equivalence.
    double* required = out.unit_required_period_ps.data();
    sim::Stage* limiting = out.limiting_stage.data();
    for (int s = 0; s < sim::kStageCount; ++s) {
        const auto stage = static_cast<sim::Stage>(s);
        const bool is_adr = stage == sim::Stage::kAdr;
        for (std::size_t c = 0; c < cycles; ++c) {
            const sim::CycleRecord& record = records[c];
            const sim::StageView& view = record.stages[static_cast<std::size_t>(s)];
            const DelayBand* band;
            if (is_adr && record.fetch_redirect &&
                record.redirect_source != isa::Opcode::kInvalid) {
                band = &calculator.band(
                    DelayCalculator::kAdrRedirectRow,
                    static_cast<int>(isa::timing_family(record.redirect_source)));
            } else {
                band = &calculator.band(s, occupancy_class(view));
            }
            const double delay = calculator.unit_band_delay(*band, view, stage, record.cycle);
            if (delay > required[c]) {
                required[c] = delay;
                limiting[c] = stage;
            }
        }
    }

    // Same guard as the per-cycle evaluators, applied once after the fused
    // pass (cold path: the calibrated bands always cover their excitation).
    const double limit = out.unit_static_period_ps + 1e-9;
    for (std::size_t c = 0; c < cycles; ++c) {
        if (required[c] > limit) [[unlikely]] {
            throw Error("dynamic delay exceeded the static period");
        }
    }
    return out;
}

ScaledTraceDelays scale_trace_delays(std::shared_ptr<const UnitTraceDelays> unit,
                                     const DelayCalculator& calculator) {
    check(unit != nullptr, "cannot scale a null unit trace-delay artifact");
    ScaledTraceDelays scaled;
    scaled.unit = std::move(unit);
    scaled.delay_scale = calculator.voltage_scale();
    scaled.static_period_ps = calculator.static_period_ps();
    return scaled;
}

TraceDelays ScaledTraceDelays::materialize() const {
    check(unit != nullptr, "cannot materialize a null unit trace-delay artifact");
    TraceDelays out;
    out.static_period_ps = static_period_ps;
    out.required_period_ps.reserve(unit->unit_required_period_ps.size());
    for (const double u : unit->unit_required_period_ps) {
        out.required_period_ps.push_back(u * delay_scale);
    }
    return out;
}

}  // namespace focs::timing
