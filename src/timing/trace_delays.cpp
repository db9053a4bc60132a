#include "timing/trace_delays.hpp"

#include <utility>

#include "common/error.hpp"

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

UnitDelayRecorder::UnitDelayRecorder(const DelayCalculator& calculator)
    : calculator_(&calculator) {
    delays_.unit_static_period_ps = calculator.unit_static_period_ps();
}

void UnitDelayRecorder::on_cycle(const sim::CycleRecord& record) {
    const CycleDelays delays = calculator_->evaluate_unit(record);
    delays_.unit_required_period_ps.push_back(delays.required_period_ps);
    delays_.limiting_stage.push_back(delays.limiting_stage);
}

UnitTraceDelays UnitDelayRecorder::take() {
    // Growth slack would otherwise be charged to the cache's byte budget
    // for as long as the artifact stays resident.
    delays_.unit_required_period_ps.shrink_to_fit();
    delays_.limiting_stage.shrink_to_fit();
    return std::move(delays_);
}

UnitTraceDelays record_unit_trace_delays(const DelayCalculator& calculator,
                                         const assembler::Program& program,
                                         const sim::MachineConfig& machine_config) {
    sim::Machine machine(machine_config);
    machine.load(program);
    UnitDelayRecorder recorder(calculator);
    machine.run(&recorder);
    return recorder.take();
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
