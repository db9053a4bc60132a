// Record-once pipeline traces for replay-many evaluation.
//
// The guest instruction stream and pipeline occupancy of one (program,
// machine config) pair are invariant across every clocking scheme the
// evaluation grid applies to it — only the granted period changes. A
// TraceRecorder therefore captures one canonical run as a PipelineTrace:
// the full per-cycle CycleRecord array (ground truth for delay evaluation
// and for replaying arbitrary ClockPolicy objects) plus stage-major SoA
// occupancy-key rows that let the replay engine's devirtualized policy
// kernels walk whole trace blocks with one indexed load per (stage, cycle).
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
    /// Canonical per-cycle records (AoS). Consumed only by the unit-delay
    /// pass (and the per-voltage reference pass that tests and the bench
    /// compare it against); replay reads the SoA keys below.
    std::vector<CycleRecord> records;
    /// Stage-major SoA occupancy keys: stage_keys[s][c] is the delay-table
    /// row charged to stage s in cycle c (attribution_keys pre-applied, so
    /// ADR redirects and held dividers are already resolved).
    std::array<std::vector<dta::OccKey>, kStageCount> stage_keys;
    /// Guest-architectural outcome of the recorded run.
    RunResult guest;

    std::uint64_t cycles() const { return static_cast<std::uint64_t>(records.size()); }

    /// Resident size for cache byte budgeting: the AoS record array plus
    /// the stage-major SoA key rows (traces dominate the sweep runtime's
    /// memory, so this is the figure LRU eviction is sized around).
    std::uint64_t estimated_bytes() const {
        std::uint64_t total = sizeof *this;
        total += static_cast<std::uint64_t>(records.capacity()) * sizeof(CycleRecord);
        for (const auto& row : stage_keys) {
            total += static_cast<std::uint64_t>(row.capacity()) * sizeof(dta::OccKey);
        }
        return total;
    }
};

/// Observer that captures every cycle of a run into a PipelineTrace.
class TraceRecorder final : public PipelineObserver {
public:
    TraceRecorder() = default;

    /// Pre-sizes the trace arrays (e.g. from a prior run's cycle count).
    void reserve(std::size_t cycles);

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
