#include "dta/gatesim.hpp"

#include "common/error.hpp"
#include "common/rng.hpp"

namespace focs::dta {

GateLevelSimulation::GateLevelSimulation(const timing::SyntheticNetlist& netlist,
                                         const timing::DelayCalculator& calculator,
                                         EventSink& sink, double sim_period_factor)
    : soa_(netlist.endpoint_soa()), calculator_(calculator), sink_(sink) {
    check(sim_period_factor >= 1.0, "gate-sim clock must be at or below the STA frequency");
    sim_period_ps_ = calculator.static_period_ps() * sim_period_factor;
    for (int s = 0; s < sim::kStageCount; ++s) {
        check(soa_.stage_size(s) > 0, "netlist has a stage without endpoints");
    }
    cycle_events_.reserve(soa_.size());
}

void GateLevelSimulation::on_cycle(const sim::CycleRecord& record) {
    const timing::CycleDelays delays = calculator_.evaluate(record);

    TraceEntry trace_entry;
    trace_entry.cycle = record.cycle;
    trace_entry.keys = attribution_keys(record);

    cycle_events_.clear();
    for (int s = 0; s < sim::kStageCount; ++s) {
        const std::size_t begin = soa_.stage_begin[static_cast<std::size_t>(s)];
        const std::size_t end = soa_.stage_begin[static_cast<std::size_t>(s) + 1];
        const double required = delays.stage_ps[static_cast<std::size_t>(s)];
        // One endpoint carries the stage's worst arrival this cycle; the
        // others settle earlier. The pick rotates pseudo-randomly, like the
        // shifting worst endpoint of a real design.
        const std::size_t worst_pick = static_cast<std::size_t>(
            splitmix64(record.cycle * 31 + static_cast<std::uint64_t>(s)) % (end - begin));
        for (std::size_t i = begin; i < end; ++i) {
            const double endpoint_required =
                i - begin == worst_pick
                    ? required
                    : required * (0.45 + 0.5 * hash_unit_double(splitmix64(
                                                   record.cycle * 131 + soa_.jitter_key[i])));
            EndpointEvent event;
            event.cycle = record.cycle;
            event.endpoint_id = soa_.id[i];
            // Events carry the setup-and-skew-normalized arrival directly
            // (the endpoint's dynamic period requirement): the raw data-pin
            // timestamp would be endpoint_required + skew - setup, and the
            // analyzer would immediately undo that shift. Folding the
            // normalization into the producer keeps the recovered per-stage
            // delay an exact floating-point image of the timing model's
            // output, which the voltage-scaling identity of
            // DelayTable::scaled depends on. The clock edge at this endpoint
            // is still skewed.
            event.data_arrival_ps = endpoint_required;
            event.clock_edge_ps = sim_period_ps_ + soa_.skew_ps[i];
            cycle_events_.push_back(event);
        }
    }
    ++cycles_observed_;
    sink_.consume_cycle(trace_entry, cycle_events_);
}

}  // namespace focs::dta
