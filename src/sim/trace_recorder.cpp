#include "sim/trace_recorder.hpp"

namespace focs::sim {

void TraceRecorder::on_cycle(const CycleRecord& record) {
    const auto keys = dta::attribution_keys(record);
    for (int s = 0; s < kStageCount; ++s) {
        trace_.stage_keys[static_cast<std::size_t>(s)].push_back(
            keys[static_cast<std::size_t>(s)]);
    }
}

PipelineTrace record_trace(const assembler::Program& program, const MachineConfig& config) {
    Machine machine(config);
    machine.load(program);
    TraceRecorder recorder;
    const RunResult guest = machine.run(&recorder);
    PipelineTrace trace = recorder.take();
    trace.guest = guest;
    return trace;
}

}  // namespace focs::sim
