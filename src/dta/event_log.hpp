// Endpoint event stream — the equivalent of the paper's TSSI event log
// produced by SDF gate-level simulation, handed to the analyzer one cycle
// at a time instead of being written out.
//
// For every clock cycle and sequential endpoint an event records the
// endpoint's dynamic delay requirement (the last data-input event already
// normalized by the endpoint's setup margin and clock skew) and the arrival
// of the next active clock edge at that same endpoint (which differs per
// endpoint because of clock skew). The dynamic timing analyzer recovers
// per-endpoint slack from exactly these two timestamps, as described in
// paper Sec. II-B.2; producers pre-normalize the arrival so the recovered
// requirement is an exact floating-point image of the timing model output
// (the invariant behind DelayTable's scaled voltage views).
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "dta/delay_table.hpp"
#include "sim/cycle_record.hpp"

namespace focs::dta {

struct EndpointEvent {
    std::uint64_t cycle = 0;
    std::int32_t endpoint_id = 0;
    double data_arrival_ps = 0;  ///< setup/skew-normalized last data-pin event
    double clock_edge_ps = 0;    ///< next capture edge at this endpoint
};

/// Per-cycle pipeline occupancy attribution (the "PC trace + disassembly"
/// side input of the paper's flow, already aligned to stages).
struct TraceEntry {
    std::uint64_t cycle = 0;
    std::array<OccKey, sim::kStageCount> keys{};
};

/// One cycle of a characterization batch after the endpoint kernel reduced
/// the per-endpoint events to per-stage maxima: the occupancy attribution
/// plus the worst recovered data-arrival requirement of every stage. Blocks
/// of these are folded straight into the DynamicTimingAnalysis accumulators
/// (consume_batch) without materializing any EndpointEvent.
struct FoldedCycle {
    std::uint64_t cycle = 0;
    std::array<OccKey, sim::kStageCount> keys{};
    std::array<double, sim::kStageCount> stage_ps{};
};

/// Per-cycle consumer of the gate-level endpoint event stream. A producer
/// (GateLevelSimulation) invokes consume_cycle exactly once per simulated
/// cycle, in cycle order, with the cycle's occupancy attribution and every
/// endpoint event of that cycle. Consumers fold events on the fly, so peak
/// memory stays independent of the number of simulated cycles: the
/// O(cycles x endpoints) log is never stored.
class EventSink {
public:
    virtual ~EventSink() = default;

    /// `events` is only valid for the duration of the call (producers reuse
    /// a scratch buffer); `entry.cycle` and every event's `cycle` refer to
    /// the producer's local cycle counter.
    virtual void consume_cycle(const TraceEntry& entry,
                               std::span<const EndpointEvent> events) = 0;
};

}  // namespace focs::dta
