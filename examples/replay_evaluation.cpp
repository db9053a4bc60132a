// Record once, replay many: score many clocking schemes against one
// recorded pipeline trace without re-simulating the guest.
//
//   1. Record the canonical trace of a kernel (one cycle-accurate run).
//   2. Compute the *voltage-free* unit delay array once per trace (one
//      more guest run streamed through the delay model, cycle by cycle);
//      every operating point is a ScaledTraceDelays view — the shared array
//      plus one delay-scale scalar.
//   3. Replay every bundled policy — including the promoted approx-lut and
//      dual-cycle kinds and a parameterized approx-lut:0.92 — against the
//      same trace; each result is byte-identical to a live DcaEngine::run
//      of that cell.
//
// Build & run:  ./build/example_replay_evaluation
#include <cstdio>
#include <memory>
#include <vector>

#include "asm/assembler.hpp"
#include "core/flows.hpp"
#include "core/replay_engine.hpp"
#include "sim/trace_recorder.hpp"
#include "timing/trace_delays.hpp"
#include "workloads/kernel.hpp"

int main() {
    using namespace focs;

    // Characterize the design once (the paper's Fig. 2 left half).
    const timing::DesignConfig design;
    const core::CharacterizationFlow flow(design);
    const dta::DelayTable table =
        flow.run(workloads::assemble_programs(workloads::characterization_suite())).table;

    // -- 1. One guest simulation ---------------------------------------------
    const auto program = assembler::assemble(workloads::find_kernel("matmult").source);
    const sim::PipelineTrace trace = sim::record_trace(program);
    std::printf("recorded matmult: %llu cycles, exit code %u\n",
                static_cast<unsigned long long>(trace.cycles()), trace.guest.exit_code);

    // -- 2. One voltage-free delay pass, views for every operating point -----
    const auto unit = std::make_shared<const timing::UnitTraceDelays>(
        timing::record_unit_trace_delays(timing::DelayCalculator(design), program));
    const timing::ScaledTraceDelays delays =
        timing::scale_trace_delays(unit, timing::DelayCalculator(design));
    // The same unit array serves any other voltage as a one-scalar view:
    timing::DesignConfig undervolted = design;
    undervolted.voltage_v = 0.60;
    const timing::ScaledTraceDelays delays_060 =
        timing::scale_trace_delays(unit, timing::DelayCalculator(undervolted));
    std::printf("unit pass: %llu cycles; views at %.2f V (scale %.3f) and %.2f V (scale %.3f)\n",
                static_cast<unsigned long long>(unit->cycles()), design.voltage_v,
                delays.delay_scale, undervolted.voltage_v, delays_060.delay_scale);

    // -- 3. Replay the whole policy batch over the shared trace --------------
    const core::ReplayEvaluationEngine engine(trace, delays, table);
    std::printf("\n%-16s %10s %9s %10s\n", "policy", "MHz", "speedup", "violations");
    for (const core::PolicySpec& spec : std::vector<core::PolicySpec>{
             core::PolicyKind::kStatic, core::PolicyKind::kTwoClass,
             core::PolicyKind::kDualCycle, core::PolicyKind::kExOnly,
             core::PolicyKind::kInstructionLut, core::PolicyKind::kApproxLut,
             core::PolicySpec::parse("approx-lut:0.92"), core::PolicyKind::kGenie}) {
        const core::DcaRunResult r = engine.run(spec);
        std::printf("%-16s %10.1f %8.3fx %10llu\n", r.policy.c_str(), r.eff_freq_mhz,
                    r.speedup_vs_static, static_cast<unsigned long long>(r.timing_violations));
    }
    return 0;
}
