#include "dta/analyzer.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace focs::dta {

using sim::Stage;

PipelineSpec PipelineSpec::from_netlist(const timing::SyntheticNetlist& netlist) {
    PipelineSpec spec;
    spec.endpoints.resize(netlist.endpoints().size());
    for (const auto& endpoint : netlist.endpoints()) {
        spec.endpoints[static_cast<std::size_t>(endpoint.id)] = {endpoint.stage, endpoint.setup_ps,
                                                                 endpoint.skew_ps};
    }
    return spec;
}

DynamicTimingAnalysis::DynamicTimingAnalysis(PipelineSpec spec, AnalyzerConfig config)
    : spec_(std::move(spec)), config_(config) {
    check(!spec_.endpoints.empty(), "pipeline specification has no endpoints");
    check(config_.static_period_ps > 0, "analyzer needs the static period as fallback");
    // Constant-size figure accumulators: the genie and per-stage delay
    // distributions at a fixed resolution, so nothing per cycle is kept.
    const double hi = config_.static_period_ps * 1.02;
    figure_hists_.reserve(1 + sim::kStageCount);
    for (int i = 0; i < 1 + sim::kStageCount; ++i) {
        figure_hists_.emplace_back(0.0, hi, kStreamingFigureBins);
    }
}

void DynamicTimingAnalysis::fold_cycle_delays(
    const std::array<OccKey, sim::kStageCount>& keys,
    const std::array<double, sim::kStageCount>& delays) {
    int limiting = 0;
    for (int s = 1; s < sim::kStageCount; ++s) {
        if (delays[static_cast<std::size_t>(s)] > delays[static_cast<std::size_t>(limiting)]) {
            limiting = s;
        }
    }
    ++limiting_counts_[static_cast<std::size_t>(limiting)];

    for (int s = 0; s < sim::kStageCount; ++s) {
        const OccKey key = keys[static_cast<std::size_t>(s)];
        const double delay = delays[static_cast<std::size_t>(s)];
        auto& ks = key_stats_[static_cast<std::size_t>(key)][static_cast<std::size_t>(s)];
        ++ks.occurrences;
        ks.max_ps = std::max(ks.max_ps, delay);
        ks.stats.add(delay);
        auto& samples = key_samples_[static_cast<std::size_t>(key)][static_cast<std::size_t>(s)];
        const auto cap = static_cast<std::size_t>(config_.sample_cap);
        if (config_.sample_cap <= 0 || samples.size() < cap) {
            samples.push_back(static_cast<float>(delay));
        } else {
            // Deterministic reservoir sampling: each of the ks.occurrences
            // observations ends up in the retained set with equal
            // probability, so capped histograms stay representative of the
            // whole run instead of its first cap cycles. Hash-derived
            // indices keep reruns (and the per-cycle and batched paths,
            // which see the same sequence) bit-identical. The hash is
            // mapped into [0, occurrences) with a fixed-point multiply
            // (Lemire reduction) — a 64-bit modulo here costs a hardware
            // divide per stage per cycle in the characterization hot loop.
            const std::uint64_t slot = splitmix64(
                (static_cast<std::uint64_t>(key) << 40) ^
                (static_cast<std::uint64_t>(s) << 32) ^ ks.occurrences);
            const auto r = static_cast<std::uint64_t>(
                (static_cast<unsigned __int128>(slot) * ks.occurrences) >> 64);
            if (r < cap) {
                samples[static_cast<std::size_t>(r)] = static_cast<float>(delay);
            }
        }
    }
    const double worst = delays[static_cast<std::size_t>(limiting)];
    genie_stats_.add(worst);
    figure_hists_[0].add(worst);
    for (int s = 0; s < sim::kStageCount; ++s) {
        figure_hists_[static_cast<std::size_t>(1 + s)].add(delays[static_cast<std::size_t>(s)]);
    }
    ++cycles_;
}

void DynamicTimingAnalysis::consume_cycle(const TraceEntry& entry,
                                          std::span<const EndpointEvent> events) {
    // Per-endpoint slack -> per-stage grouping -> the cycle's per-stage
    // maxima. The paper identifies, per endpoint and cycle, the last data
    // event and relates it to the *next* clock edge at the same endpoint.
    // Events carry the arrival already normalized by setup and skew (see
    // GateLevelSimulation::on_cycle), so the dynamic delay requirement is
    // the arrival field itself — an exact read, with no re-rounding between
    // the timing model and the per-stage maxima.
    std::array<double, sim::kStageCount> delays{};
    for (const auto& event : events) {
        const auto id = static_cast<std::size_t>(event.endpoint_id);
        check(id < spec_.endpoints.size(), "event stream references an unknown endpoint");
        const auto& info = spec_.endpoints[id];
        const double required = event.data_arrival_ps;
        // Dynamic slack against the gate-sim clock (kept as a sanity check
        // that the relaxed simulation clock never violated timing).
        const double slack = event.clock_edge_ps - event.data_arrival_ps - info.skew_ps;
        check(slack >= 0, "gate-level simulation clock violated an endpoint");
        auto& stage_delay = delays[static_cast<std::size_t>(info.stage)];
        stage_delay = std::max(stage_delay, required);
    }

    fold_cycle_delays(entry.keys, delays);
}

void DynamicTimingAnalysis::consume_batch(std::span<const FoldedCycle> batch) {
    // The endpoint kernel already reduced each cycle's events to per-stage
    // maxima with the exact slack arithmetic of consume_cycle, so the fold
    // is a straight block replay of the shared extraction step.
    for (const FoldedCycle& cycle : batch) fold_cycle_delays(cycle.keys, cycle.stage_ps);
}

Histogram DynamicTimingAnalysis::genie_histogram(int bins) const {
    return figure_hists_[0].coarsened(bins);
}

Histogram DynamicTimingAnalysis::stage_histogram(sim::Stage stage, int bins) const {
    return figure_hists_[1 + static_cast<std::size_t>(stage)].coarsened(bins);
}

double DynamicTimingAnalysis::genie_mean_period_ps() const { return genie_stats_.mean(); }

const KeyStageStats& DynamicTimingAnalysis::stats(OccKey key, Stage stage) const {
    check(key >= 0 && key < kKeyCount, "key out of range");
    return key_stats_[static_cast<std::size_t>(key)][static_cast<std::size_t>(stage)];
}

Histogram DynamicTimingAnalysis::key_stage_histogram(OccKey key, Stage stage, int bins) const {
    Histogram h(0.0, config_.static_period_ps * 1.02, bins);
    check(key >= 0 && key < kKeyCount, "key out of range");
    for (const float sample :
         key_samples_[static_cast<std::size_t>(key)][static_cast<std::size_t>(stage)]) {
        h.add(sample);
    }
    return h;
}

CharacterizationStats DynamicTimingAnalysis::characterization_stats() const {
    CharacterizationStats out;
    out.static_period_ps = config_.static_period_ps;
    for (std::size_t key = 0; key < key_stats_.size(); ++key) {
        for (std::size_t s = 0; s < key_stats_[key].size(); ++s) {
            out.occurrences[key][s] = key_stats_[key][s].occurrences;
            out.max_ps[key][s] = key_stats_[key][s].max_ps;
        }
    }
    return out;
}

DelayTable DynamicTimingAnalysis::build_delay_table() const {
    return dta::build_delay_table(characterization_stats(), config_.lut_guard_ps,
                                  config_.min_occurrences);
}

DelayTable build_delay_table(const CharacterizationStats& stats, double lut_guard_ps,
                             int min_occurrences, double scale) {
    check(scale > 0, "scale factor must be positive");
    // The table keeps the raw maximum and the guard band separate
    // (set_characterized applies min(raw + guard, static)), so the scaled
    // raw part is re-guarded and clamped against the scaled static period —
    // the expression a characterization at the target operating point
    // computes.
    DelayTable table(stats.static_period_ps * scale, lut_guard_ps);
    for (OccKey key = 0; key < kKeyCount; ++key) {
        for (int s = 0; s < sim::kStageCount; ++s) {
            const auto k = static_cast<std::size_t>(key);
            const auto st = static_cast<std::size_t>(s);
            // A pair never observed has no maximum to guard, whatever the
            // floor (a floor of 0 behaves as 1).
            const std::uint64_t seen = stats.occurrences[k][st];
            if (seen == 0 || seen < static_cast<std::uint64_t>(min_occurrences)) continue;
            table.set_characterized(key, static_cast<Stage>(s), stats.max_ps[k][st] * scale);
        }
    }
    return table;
}

}  // namespace focs::dta
