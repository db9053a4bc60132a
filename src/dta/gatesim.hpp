// "Gate-level simulation" observer.
//
// Attaches to the cycle-accurate pipeline and produces, per cycle, the
// endpoint event stream (data arrivals vs. per-endpoint clock edges) that
// the paper obtains from SDF-annotated ModelSim runs, plus the aligned
// occupancy attribution. The pipeline runs at a deliberately relaxed
// simulation clock (paper: "at a low clock frequency") so every arrival is
// observable.
//
// Each cycle's events are built in a reused scratch buffer and handed to an
// EventSink immediately, so the observer allocates nothing per cycle and
// peak memory is independent of the number of simulated cycles. This is the
// per-cycle reference of the event-level protocol; the batched engine
// (dta/batch_engine.hpp) must reproduce what a sink sees here bit for bit.
#pragma once

#include <vector>

#include "dta/event_log.hpp"
#include "sim/cycle_record.hpp"
#include "timing/delay_model.hpp"
#include "timing/netlist.hpp"

namespace focs::dta {

class GateLevelSimulation : public sim::PipelineObserver {
public:
    /// Forwards every cycle to `sink`. `netlist`, `calculator` and `sink`
    /// must outlive the observer. `sim_period_factor` sets the relaxed
    /// gate-sim clock as a multiple of the design's static period.
    GateLevelSimulation(const timing::SyntheticNetlist& netlist,
                        const timing::DelayCalculator& calculator, EventSink& sink,
                        double sim_period_factor = 1.25);

    void on_cycle(const sim::CycleRecord& record) override;

    double sim_period_ps() const { return sim_period_ps_; }
    std::uint64_t cycles_observed() const { return cycles_observed_; }

private:
    /// Stage-major SoA endpoint view (contiguous skew/setup/hash-key loads;
    /// the per-endpoint jitter-hash constants are precomputed here instead
    /// of being rederived per endpoint per cycle).
    const timing::EndpointSoA& soa_;
    const timing::DelayCalculator& calculator_;
    EventSink& sink_;
    double sim_period_ps_;
    std::vector<EndpointEvent> cycle_events_;  ///< per-cycle scratch, reused
    std::uint64_t cycles_observed_ = 0;
};

}  // namespace focs::dta
