// Record-once pipeline traces for replay-many evaluation.
//
// The guest instruction stream and pipeline occupancy of one (program,
// machine config) pair are invariant across every clocking scheme the
// evaluation grid applies to it — only the granted period changes. A
// TraceRecorder therefore captures one canonical run as a PipelineTrace:
// a dictionary of the distinct six-stage occupancy-key tuples the run
// produced plus one 32-bit tuple id per cycle (~4 B per cycle), and the
// guest's RunResult. Every table-driven clock policy requests a pure
// function of a cycle's key tuple, so the replay engine evaluates a policy
// once per tuple and fills its per-cycle requests with one indexed load
// per cycle. A kernel run produces tens to a few hundred distinct tuples
// over tens of thousands of cycles; the id width sets no limit of its own
// below 2^32 tuples. The full per-cycle CycleRecords are not kept: the one
// other consumer of them, the voltage-free unit-delay pass, streams its
// own guest run through timing::record_unit_trace_delays while each record
// is hot.
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

/// The delay-table rows charged to the six stages in one cycle:
/// dta::attribution_keys of the cycle's record (ADR redirects and held
/// dividers already resolved), indexed by stage.
using StageKeyTuple = std::array<dta::OccKey, kStageCount>;

/// One recorded guest run: everything the evaluation side needs to score
/// any clocking scheme without stepping the machine again. Immutable after
/// recording; safe to share read-only across replay worker threads.
struct PipelineTrace {
    /// The distinct key tuples of the run, in order of first occurrence.
    std::vector<StageKeyTuple> tuples;
    /// tuple_ids[c] indexes `tuples`: cycle c's key tuple. Ids are dense
    /// and first-seen ordered, so the first cycle has id 0 and each new
    /// tuple takes the next id.
    std::vector<std::uint32_t> tuple_ids;
    /// Guest-architectural outcome of the recorded run.
    RunResult guest;

    std::uint64_t cycles() const { return static_cast<std::uint64_t>(tuple_ids.size()); }

    /// Resident size for cache byte budgeting: the struct, the per-cycle
    /// ids and the tuple dictionary — the figure LRU eviction charges a
    /// trace.
    std::uint64_t estimated_bytes() const {
        return sizeof *this +
               static_cast<std::uint64_t>(tuple_ids.capacity()) * sizeof(std::uint32_t) +
               static_cast<std::uint64_t>(tuples.capacity()) * sizeof(StageKeyTuple);
    }
};

/// Observer that interns the key tuple of every cycle of a run into a
/// PipelineTrace's dictionary and appends its id.
class TraceRecorder final : public PipelineObserver {
public:
    TraceRecorder() = default;

    void on_cycle(const CycleRecord& record) override;

    /// Moves the recorded trace out, its arrays trimmed to size (guest
    /// metadata must be filled by the caller, which owns the RunResult —
    /// see record_trace).
    PipelineTrace take();

private:
    void grow_index();

    PipelineTrace trace_;
    /// Open-addressing index of the dictionary: a slot holds a tuple id + 1,
    /// 0 when empty. Power-of-two size, kept at most half full.
    std::vector<std::uint32_t> slots_ = std::vector<std::uint32_t>(256, 0);
};

/// Records the canonical trace of one program on one machine configuration.
PipelineTrace record_trace(const assembler::Program& program, const MachineConfig& config = {});

}  // namespace focs::sim
