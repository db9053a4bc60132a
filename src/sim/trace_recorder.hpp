// Record-once pipeline traces for replay-many evaluation.
//
// The guest instruction stream and pipeline occupancy of one (program,
// machine config) pair are invariant across every clocking scheme the
// evaluation grid applies to it — only the granted period changes. A
// TraceRecorder therefore captures one canonical run as a PipelineTrace:
// stage-major SoA occupancy-key rows (12 B per cycle) that let the replay
// engine's devirtualized policy kernels walk whole trace blocks with one
// indexed load per (stage, cycle), plus the guest's RunResult. The full
// per-cycle CycleRecords are not kept: the one other consumer of them, the
// voltage-free unit-delay pass, streams its own guest run through
// timing::record_unit_trace_delays while each record is hot.
//
// Layering note: the occupancy-key domain (OccKey, attribution rules) is
// owned by dta/delay_table; the trace pre-applies it at record time so
// every downstream consumer shares one attribution pass per trace instead
// of one per evaluated cell.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "asm/program.hpp"
#include "dta/delay_table.hpp"
#include "sim/cycle_record.hpp"
#include "sim/machine.hpp"

namespace focs::sim {

/// One recorded guest run: everything the evaluation side needs to score
/// any clocking scheme without stepping the machine again. Immutable after
/// recording; safe to share read-only across replay worker threads.
struct PipelineTrace {
    /// Stage-major SoA occupancy keys: stage_keys[s][c] is the delay-table
    /// row charged to stage s in cycle c (attribution_keys pre-applied, so
    /// ADR redirects and held dividers are already resolved). Every row
    /// holds one key per recorded cycle.
    std::array<std::vector<dta::OccKey>, kStageCount> stage_keys;
    /// Guest-architectural outcome of the recorded run.
    RunResult guest;

    std::uint64_t cycles() const { return static_cast<std::uint64_t>(stage_keys[0].size()); }

    /// Resident size for cache byte budgeting: the struct plus the
    /// stage-major key rows — the figure LRU eviction charges a trace.
    std::uint64_t estimated_bytes() const {
        std::uint64_t total = sizeof *this;
        for (const auto& row : stage_keys) {
            total += static_cast<std::uint64_t>(row.capacity()) * sizeof(dta::OccKey);
        }
        return total;
    }
};

/// Observer that captures the occupancy keys of every cycle of a run into a
/// PipelineTrace.
class TraceRecorder final : public PipelineObserver {
public:
    TraceRecorder() = default;

    void on_cycle(const CycleRecord& record) override;

    /// Moves the recorded trace out (guest metadata must be filled by the
    /// caller, which owns the RunResult — see record_trace).
    PipelineTrace take() { return std::move(trace_); }

private:
    PipelineTrace trace_;
};

/// Records the canonical trace of one program on one machine configuration.
PipelineTrace record_trace(const assembler::Program& program, const MachineConfig& config = {});

}  // namespace focs::sim
