// Example: the characterization flow in detail (paper Fig. 2, right half).
//
// Runs the characterization suite through the gate-level-style timing
// model, performs dynamic timing analysis, and prints:
//   - the per-cycle slack histogram (Fig. 5 flavour),
//   - the limiting-stage breakdown (Fig. 6 flavour),
//   - a slice of the extracted per-instruction delay LUT (Table II flavour),
//   - the serialized LUT, ready to be stored and reloaded.
//
// The default (and recommended) mode is BATCHED: the pipeline distills
// each cycle into batch slots and a structure-of-arrays endpoint kernel
// folds whole blocks straight into the analyzer — optionally on worker
// threads (CharacterizationOptions::threads) behind a bounded ring buffer.
// The STREAMING mode is the per-cycle EventSink reference path: every
// cycle's endpoint events (the paper's TSSI event log, one cycle at a time)
// are folded into the analyzer as they are produced. Both modes produce
// byte-identical delay tables.
//
// Build & run:  ./build/examples/characterize_core
#include <cstdio>

#include "core/flows.hpp"
#include "dta/delay_table.hpp"
#include "isa/isa_info.hpp"
#include "workloads/kernel.hpp"

int main() {
    using namespace focs;

    const timing::DesignConfig design;
    const core::CharacterizationFlow flow(design);
    const auto programs = workloads::assemble_programs(workloads::characterization_suite());

    // Batched single-pass characterization (the default mode): serial
    // inline endpoint kernel, 1024-cycle slots.
    const auto result = flow.run(programs);

    std::printf("characterization: %llu cycles, %zu endpoints, T_static %.0f ps\n\n",
                static_cast<unsigned long long>(result.cycles),
                flow.netlist().endpoints().size(), result.static_period_ps);

    // Figure queries are served from the single pass: histograms
    // accumulate incrementally at a fixed fine resolution and are served
    // coarsened.
    std::printf("per-cycle worst dynamic delay (genie view):\n%s\n",
                result.analysis->genie_histogram(32).render_ascii(52).c_str());

    std::printf("limiting stage shares:\n");
    const auto counts = result.analysis->limiting_stage_counts();
    for (int s = 0; s < sim::kStageCount; ++s) {
        std::printf("  %-5s %6.2f %%\n",
                    std::string(sim::stage_name(static_cast<sim::Stage>(s))).c_str(),
                    100.0 * static_cast<double>(counts[static_cast<std::size_t>(s)]) /
                        static_cast<double>(result.cycles));
    }

    std::printf("\nextracted EX-stage LUT entries (observed max + %.0f ps guard):\n",
                timing::kLutGuardPs);
    for (const auto op : {isa::Opcode::kAdd, isa::Opcode::kAnd, isa::Opcode::kXor,
                          isa::Opcode::kSll, isa::Opcode::kLwz, isa::Opcode::kSw,
                          isa::Opcode::kBf, isa::Opcode::kMul, isa::Opcode::kNop}) {
        std::printf("  %-8s %7.1f ps\n", std::string(isa::mnemonic(op)).c_str(),
                    result.table.lookup(static_cast<dta::OccKey>(op), sim::Stage::kEx));
    }

    const std::string serialized = result.table.serialize();
    const dta::DelayTable reloaded = dta::DelayTable::deserialize(serialized);
    std::printf("\nserialized LUT: %zu bytes; reload check: l.mul EX = %.1f ps\n",
                serialized.size(),
                reloaded.lookup(static_cast<dta::OccKey>(isa::Opcode::kMul), sim::Stage::kEx));

    // Intra-flow pipeline parallelism: the same batch API with endpoint-
    // kernel worker threads. Deterministic — the LUT stays byte-identical
    // at any thread count and batch size.
    core::CharacterizationOptions parallel;
    parallel.threads = 4;
    parallel.batch_cycles = 512;
    const auto threaded = flow.run(programs, parallel);
    std::printf("\n4-thread batched re-run: LUT byte-identical: %s\n",
                threaded.table.serialize() == serialized ? "yes" : "NO");

    // Streaming mode: the per-cycle EventSink reference path.
    const auto streaming = flow.run(programs, core::CharacterizationMode::kStreaming);
    std::printf("streaming re-run: LUT byte-identical: %s\n",
                streaming.table.serialize() == serialized ? "yes" : "NO");
    return 0;
}
