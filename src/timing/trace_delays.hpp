// Required-period ground truth of a recorded trace — voltage-invariant.
//
// The DCA engine's safety checker and the genie oracle both consume the
// per-cycle minimum safe clock period. Live evaluation derives it inside
// every run (DelayCalculator::evaluate per cycle per cell). For replay the
// requirement factors: the delay model's voltage dependence is a single
// multiplicative delay_scale(v) (see DelayCalculator::evaluate_unit), so
// the *unit* (unscaled) requirement is a pure function of (program, machine
// config, design variant, seed) alone. It is therefore computed exactly
// once per trace — streamed from a guest run, DelayCalculator::evaluate_unit
// on each cycle while its record is hot, so no per-cycle record array is
// ever kept — and every operating point on the voltage axis is served by a
// ScaledTraceDelays *view*: the shared unit array plus one scalar. A V-point
// sweep grid pays one delay-model pass instead of V, and keeps one resident
// double array per trace instead of V copies.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "asm/program.hpp"
#include "sim/cycle_record.hpp"
#include "sim/machine.hpp"
#include "timing/delay_model.hpp"

namespace focs::timing {

/// Flat per-cycle timing requirements of one (trace, operating point) pair,
/// fully materialized. Kept as the reference artifact (and for consumers
/// that want a self-contained array); the sweep runtime shares
/// UnitTraceDelays + ScaledTraceDelays views instead.
struct TraceDelays {
    /// STA period of the operating point (the static-policy request and the
    /// uncharacterized-LUT fallback).
    double static_period_ps = 0;
    /// required_period_ps[c]: minimum safe clock period of trace cycle c —
    /// bit-identical to DelayCalculator::evaluate(records[c]) on the same
    /// design, so replayed violation counts match live runs exactly.
    std::vector<double> required_period_ps;

    std::uint64_t cycles() const { return static_cast<std::uint64_t>(required_period_ps.size()); }
};

/// Voltage-free per-cycle requirements of one trace: one entry per cycle in
/// the calibration tables' 0.70 V unit domain. Computed once per (trace,
/// design variant, seed); immutable afterwards and shared read-only — via
/// shared_ptr — by every ScaledTraceDelays view on the voltage axis.
struct UnitTraceDelays {
    /// Static period before voltage scaling
    /// (DelayCalculator::unit_static_period_ps of the same variant).
    double unit_static_period_ps = 0;
    /// unit_required_period_ps[c] * delay_scale(v) is bit-identical to
    /// DelayCalculator::evaluate(records[c]).required_period_ps at voltage
    /// v: positive-constant multiplication is monotone under IEEE rounding,
    /// so the max over stages commutes with the scale.
    std::vector<double> unit_required_period_ps;
    /// Stage owning each cycle's maximum (paper Fig. 6 attribution) — also
    /// voltage-invariant, recorded for figure-level replay consumers.
    std::vector<sim::Stage> limiting_stage;

    std::uint64_t cycles() const {
        return static_cast<std::uint64_t>(unit_required_period_ps.size());
    }

    /// Resident size for cache byte budgeting: one double plus one stage
    /// tag per trace cycle.
    std::uint64_t estimated_bytes() const {
        return sizeof *this +
               static_cast<std::uint64_t>(unit_required_period_ps.capacity()) * sizeof(double) +
               static_cast<std::uint64_t>(limiting_stage.capacity()) * sizeof(sim::Stage);
    }
};

/// One operating point's view of a shared UnitTraceDelays: the unit array
/// plus the point's delay scale. Copyable (a shared_ptr and two doubles);
/// safe to hand to replay workers by value.
struct ScaledTraceDelays {
    std::shared_ptr<const UnitTraceDelays> unit;
    /// Cell-library delay_scale(v) of the operating point.
    double delay_scale = 1.0;
    /// STA period at the operating point, bit-identical to
    /// DelayCalculator::static_period_ps() of the same design.
    double static_period_ps = 0;

    /// Minimum safe clock period of trace cycle c at this operating point;
    /// bit-identical to compute_trace_delays(...).required_period_ps[c].
    double required_period_ps(std::uint64_t c) const {
        return unit->unit_required_period_ps[c] * delay_scale;
    }

    std::uint64_t cycles() const { return unit != nullptr ? unit->cycles() : 0; }

    /// Materializes the per-voltage flat array (reference/offline form).
    TraceDelays materialize() const;
};

/// Evaluates the delay model over every recorded cycle once, at the
/// calculator's operating point (reference path; one pass per voltage).
TraceDelays compute_trace_delays(const DelayCalculator& calculator,
                                 const std::vector<sim::CycleRecord>& records);

/// Observer that appends DelayCalculator::evaluate_unit of every cycle of a
/// run to a UnitTraceDelays. Voltage-free — `calculator` contributes only
/// its variant's bands and the design seed.
class UnitDelayRecorder final : public sim::PipelineObserver {
public:
    explicit UnitDelayRecorder(const DelayCalculator& calculator);

    void on_cycle(const sim::CycleRecord& record) override;

    /// Moves the per-cycle arrays out, trimmed to the cycle count.
    UnitTraceDelays take();

private:
    const DelayCalculator* calculator_;
    UnitTraceDelays delays_;
};

/// Runs `program` on one machine configuration and streams every cycle
/// through a UnitDelayRecorder. Cycle c of the result matches cycle c of
/// sim::record_trace(program, machine_config). Call once per (trace,
/// variant).
UnitTraceDelays record_unit_trace_delays(const DelayCalculator& calculator,
                                         const assembler::Program& program,
                                         const sim::MachineConfig& machine_config = {});

/// Derives one operating point's view from a shared unit array; the scale
/// and static period are taken from `calculator` so they are bit-identical
/// to the live engine's values at that point.
ScaledTraceDelays scale_trace_delays(std::shared_ptr<const UnitTraceDelays> unit,
                                     const DelayCalculator& calculator);

}  // namespace focs::timing
