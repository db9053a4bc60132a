// Dynamic timing analysis (the paper's Perl DTA tool + Matlab extraction).
//
// Consumes the endpoint event stream and the aligned occupancy attribution,
// and for every cycle: recovers per-endpoint dynamic slack (relating each
// data arrival to the *skewed* clock edge of the same endpoint and its
// setup time), groups endpoints into pipeline stages via the pipeline
// specification, takes per-stage maxima, attributes them to the occupying
// instructions, and finally extracts per-(instruction, stage) worst-case
// delays that populate the delay LUT.
//
// Ingestion is incremental and cycle-ordered; nothing per cycle is
// retained, so peak memory is independent of the number of cycles. Two
// entry points share the same extraction arithmetic:
//  - consume_cycle(...) (EventSink): one cycle's raw endpoint events, fed
//    by GateLevelSimulation — the per-cycle reference path.
//  - consume_batch(...): blocks of cycles already reduced to per-stage
//    maxima by the batched engine (the production path), byte-identical to
//    consume_cycle over the same cycle stream.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/histogram.hpp"
#include "common/stats.hpp"
#include "dta/delay_table.hpp"
#include "dta/event_log.hpp"
#include "timing/netlist.hpp"

namespace focs::dta {

/// Endpoint-side inputs the analyzer needs (stage grouping, setup, skew).
/// This is the "pipeline specification" of paper Fig. 2.
struct PipelineSpec {
    struct EndpointInfo {
        sim::Stage stage = sim::Stage::kAdr;
        double setup_ps = 0;
        double skew_ps = 0;
    };
    std::vector<EndpointInfo> endpoints;  ///< indexed by endpoint id

    static PipelineSpec from_netlist(const timing::SyntheticNetlist& netlist);
};

struct AnalyzerConfig {
    double static_period_ps = 0;  ///< STA fallback / report ceiling
    double lut_guard_ps = 25.0;   ///< guard added on observed maxima
    int min_occurrences = 10;     ///< below: fall back to the static limit
    /// Raw samples retained per (key, stage) for histogram rendering; keeps
    /// sample memory bounded for arbitrarily long runs. Beyond the cap a
    /// deterministic reservoir keeps the retained set representative of the
    /// whole run. 0 = unlimited.
    int sample_cap = 8192;
};

/// Fixed resolution of the figure accumulators. Figure queries
/// (genie_histogram, stage_histogram) serve any bin count that divides
/// this (covers the 32/40/50-bin figures of the benches).
inline constexpr int kStreamingFigureBins = 1600;

/// Aggregated delay statistics of one (instruction key, stage) pair.
struct KeyStageStats {
    std::uint64_t occurrences = 0;
    double max_ps = 0;
    RunningStats stats;
};

/// The part of a characterization every delay LUT is built from: the
/// static period plus, per (key, stage), the occurrence count and the raw
/// observed maximum. It does not depend on the guard band or the
/// occurrence floor, so one characterization serves every LUT design
/// point (see build_delay_table below).
struct CharacterizationStats {
    double static_period_ps = 0;
    std::array<std::array<std::uint64_t, sim::kStageCount>, kKeyCount> occurrences{};
    std::array<std::array<double, sim::kStageCount>, kKeyCount> max_ps{};

    /// Resident size for cache byte budgeting (fixed-shape value type).
    std::uint64_t estimated_bytes() const { return sizeof *this; }
};

/// Builds the delay LUT of one design point from characterization
/// statistics: every entry seen at least `min_occurrences` times (and at
/// least once) gets
/// min(fl(raw * scale) + guard, fl(static * scale)); the others fall back
/// to the scaled static period. `scale` retargets the statistics to
/// another operating point (the cell library's delay-scale ratio), which
/// is bit-identical to characterizing there (see DelayTable::scaled for
/// the rounding argument); at scale 1.0 it is the plain characterization
/// LUT, since fl(x * 1.0) == x.
DelayTable build_delay_table(const CharacterizationStats& stats, double lut_guard_ps,
                             int min_occurrences, double scale = 1.0);

class DynamicTimingAnalysis final : public EventSink {
public:
    DynamicTimingAnalysis(PipelineSpec spec, AnalyzerConfig config);

    /// Per-cycle ingestion (EventSink): folds one cycle's endpoint events
    /// and occupancy into the accumulators. Call once per cycle, in cycle
    /// order; chain multiple programs by simply continuing to call it.
    void consume_cycle(const TraceEntry& entry,
                       std::span<const EndpointEvent> events) override;

    /// Batched ingestion: folds a block of cycles whose endpoint
    /// events were already reduced to per-stage maxima by the batch
    /// endpoint kernel (BatchCharacterizationEngine). Cycles must arrive in
    /// order across calls; produces accumulator states byte-identical to
    /// consume_cycle over the same per-cycle event streams.
    void consume_batch(std::span<const FoldedCycle> batch);

    // ---- Per-cycle results (paper Figs. 5/6) -------------------------------
    /// Histogram of per-cycle maxima over all stages (Fig. 5). `bins` must
    /// divide kStreamingFigureBins.
    Histogram genie_histogram(int bins = 50) const;
    /// Histogram of one stage's per-cycle maximum delays (the "dynamic
    /// slack distributions ... at pipeline stage granularity" of Sec. II-B).
    /// `bins` must divide kStreamingFigureBins.
    Histogram stage_histogram(sim::Stage stage, int bins = 50) const;
    /// Mean of the per-cycle maxima: the genie-aided average clock period.
    double genie_mean_period_ps() const;
    /// How often each stage owned the per-cycle maximum (Fig. 6).
    std::array<std::uint64_t, sim::kStageCount> limiting_stage_counts() const {
        return limiting_counts_;
    }
    std::uint64_t cycles() const { return cycles_; }

    // ---- Per-instruction results (Table II, Fig. 7) ------------------------
    const KeyStageStats& stats(OccKey key, sim::Stage stage) const;
    /// Delay histogram of one (instruction, stage) pair (Fig. 7 uses l.mul).
    Histogram key_stage_histogram(OccKey key, sim::Stage stage, int bins = 40) const;

    /// Occurrence counts and raw maxima of every (key, stage) pair.
    CharacterizationStats characterization_stats() const;

    /// Builds the delay LUT of this analysis' own guard band and occurrence
    /// floor: build_delay_table(characterization_stats(), ...) at scale 1.
    DelayTable build_delay_table() const;

private:
    /// Fold of one cycle whose per-stage delays are already reduced, shared
    /// by consume_cycle and consume_batch: limiting-stage attribution,
    /// per-(key, stage) statistics and the figure accumulators.
    void fold_cycle_delays(const std::array<OccKey, sim::kStageCount>& keys,
                           const std::array<double, sim::kStageCount>& delays);

    PipelineSpec spec_;
    AnalyzerConfig config_;
    std::uint64_t cycles_ = 0;
    std::array<std::uint64_t, sim::kStageCount> limiting_counts_{};
    std::array<std::array<KeyStageStats, sim::kStageCount>, kKeyCount> key_stats_{};
    // Raw samples per (key, stage) for histogram rendering; reservoir-
    // bounded by config_.sample_cap to keep memory independent of the run
    // length while remaining representative of the whole run.
    std::array<std::array<std::vector<float>, sim::kStageCount>, kKeyCount> key_samples_;
    // Figure accumulators (fixed binning, constant memory):
    // [0] = genie (per-cycle maxima), [1 + stage] = per-stage delays.
    std::vector<Histogram> figure_hists_;
    RunningStats genie_stats_;
};

}  // namespace focs::dta
