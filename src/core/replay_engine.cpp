#include "core/replay_engine.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"

namespace focs::core {

using dta::OccKey;
using sim::Stage;

ReplayEvaluationEngine::ReplayEvaluationEngine(const sim::PipelineTrace& trace,
                                               timing::ScaledTraceDelays delays,
                                               const dta::DelayTable& table,
                                               ReplayOptions options)
    : trace_(&trace), delays_(std::move(delays)), table_(&table), options_(options) {
    check(options_.block_cycles >= 1, "replay block size must be >= 1");
    check(delays_.unit != nullptr, "replay engine needs a unit trace-delay artifact");
    check(delays_.cycles() == trace.cycles(),
          "trace delays were computed from a different trace (cycle count mismatch)");
    if (!options_.force_scalar) {
        kernels_ = simd_replay_kernels();
        if (kernels_ == nullptr) kernels_ = &scalar_replay_kernels();
        for (int s = 0; s < sim::kStageCount; ++s) {
            for (OccKey key = 0; key < dta::kKeyCount; ++key) {
                effective_rows_[static_cast<std::size_t>(s)][static_cast<std::size_t>(key)] =
                    table.effective(key, static_cast<Stage>(s));
            }
        }
    }
}

std::size_t ReplayEvaluationEngine::scratch_cycles() const {
    return std::min<std::size_t>(static_cast<std::size_t>(options_.block_cycles),
                                 std::max<std::size_t>(trace_->records.size(), 1));
}

void ReplayEvaluationEngine::walk_block(clocking::ClockGenerator* generator,
                                        const double* requested, double* granted,
                                        std::size_t begin, std::size_t end,
                                        RunTotals& totals) const {
    const double* unit = delays_.unit->unit_required_period_ps.data();
    const double scale = delays_.delay_scale;
    if (kernels_ != nullptr) {
        // A stateful generator grants the whole block in one call; the
        // grants then take the same block reduction the ideal generator's
        // requests do (strict-order time integral, order-free violation
        // figures).
        const double* grants = requested;
        if (generator != nullptr) {
            generator->grant_block(requested, end - begin, granted);
            grants = granted;
        }
        kernels_->reduce_ideal(grants, unit, scale, kViolationTolerancePs, begin, end - begin,
                               &totals.total_time_ps, &totals.violations,
                               &totals.worst_violation_ps);
        return;
    }
    // Reference walk (force_scalar): the exact pre-kernel per-cycle loop.
    for (std::size_t c = begin; c < end; ++c) {
        const double request = requested[c - begin];
        const double grant = generator != nullptr ? generator->grant_period_ps(request) : request;
        totals.total_time_ps += grant;
        const double required = unit[c] * scale;
        if (grant + kViolationTolerancePs < required) {
            ++totals.violations;
            totals.worst_violation_ps = std::max(totals.worst_violation_ps, required - grant);
        }
    }
}

DcaRunResult ReplayEvaluationEngine::finish(const std::string& policy_name,
                                            const clocking::ClockGenerator* generator,
                                            const RunTotals& totals) const {
    DcaRunResult result = finish_run(
        policy_name,
        generator != nullptr ? generator->name() : clocking::IdealClockGenerator().name(),
        trace_->records.size(), totals.total_time_ps, delays_.static_period_ps,
        totals.violations, totals.worst_violation_ps);
    result.guest = trace_->guest;
    return result;
}

/// Shared block loop: `fill(begin, end, out)` writes the requested period
/// of cycles [begin, end) into out[0..end-begin); walk_block then grants,
/// integrates and safety-checks the block in exactly the live engine's
/// per-cycle order, so the integrated time and violation figures are
/// bit-identical at every block size. The required period is the same
/// fl(unit * scale) double the live calculator produces (positive-constant
/// multiplication is monotone under IEEE rounding, so it commutes with the
/// per-stage max).
///
/// kObs=false is the exact pre-observability loop (no flag checks inside);
/// kObs=true layers counters, a granted-period histogram and a per-run
/// span on top. Both instantiations produce identical DcaRunResults — the
/// instrumentation only ever reads the loop's values.
template <bool kObs, typename FillBlock>
DcaRunResult ReplayEvaluationEngine::replay_blocks_impl(const ClockPolicy& policy,
                                                        clocking::ClockGenerator* generator,
                                                        FillBlock&& fill,
                                                        const GatherStage* gather_stages,
                                                        int gather_stage_count) const {
    const std::size_t cycles = trace_->records.size();
    const std::size_t block = static_cast<std::size_t>(options_.block_cycles);
    std::vector<double> requested(scratch_cycles());
    std::vector<double> granted(generator != nullptr ? scratch_cycles() : 0);

#ifndef FOCS_OBS_COMPILE_OUT
    obs::Span span;
    if constexpr (kObs) {
        span = obs::global_tracer().span("replay.run");
        span.arg("policy", policy.name()).arg("cycles", static_cast<std::int64_t>(cycles));
    }
#endif

    if (generator != nullptr) generator->reset();
    RunTotals totals;
    [[maybe_unused]] std::uint64_t blocks = 0;
    for (std::size_t begin = 0; begin < cycles; begin += block) {
        // Block-boundary cancellation check; the cycle loop below stays
        // token-free (see the cost note on ReplayOptions::cancel).
        if (options_.cancel != nullptr) options_.cancel->throw_if_cancelled();
        const std::size_t end = std::min(cycles, begin + block);
        if constexpr (kObs) ++blocks;
        if (generator == nullptr && kernels_ != nullptr && gather_stages != nullptr) {
            // Ideal generator over a pure-gather fill: the fused kernel
            // gathers, integrates (strict cycle order) and safety-checks
            // in one pass — no scratch round-trip, and the independent
            // gather chains overlap the serial time-integral adds.
            kernels_->gather_reduce_ideal(
                gather_stages, gather_stage_count, delays_.unit->unit_required_period_ps.data(),
                delays_.delay_scale, kViolationTolerancePs, begin, end - begin,
                &totals.total_time_ps, &totals.violations, &totals.worst_violation_ps);
            continue;
        }
        fill(begin, end, requested.data());
        walk_block(generator, requested.data(), granted.data(), begin, end, totals);
    }

#ifndef FOCS_OBS_COMPILE_OUT
    if constexpr (kObs) {
        obs::MetricsRegistry& metrics = obs::global_metrics();
        static const struct Ids {
            obs::MetricsRegistry::Id runs, blocks, cycles, violations, avg_period;
            explicit Ids(obs::MetricsRegistry& m)
                : runs(m.counter("replay.runs")),
                  blocks(m.counter("replay.blocks")),
                  cycles(m.counter("replay.cycles")),
                  violations(m.counter("replay.violations")),
                  avg_period(m.histogram("replay.avg_period_ps",
                                         {100, 150, 200, 300, 400, 500, 700, 1000, 1500, 2000,
                                          3000, 5000})) {}
        } ids(metrics);
        metrics.add(ids.runs);
        metrics.add(ids.blocks, blocks);
        metrics.add(ids.cycles, cycles);
        metrics.add(ids.violations, totals.violations);
        if (cycles > 0) {
            metrics.observe(ids.avg_period, totals.total_time_ps / static_cast<double>(cycles));
        }
        span.arg("blocks", static_cast<std::int64_t>(blocks))
            .arg("violations", static_cast<std::int64_t>(totals.violations));
    }
#endif

    return finish(policy.name(), generator, totals);
}

template <typename FillBlock>
DcaRunResult ReplayEvaluationEngine::replay_blocks(const ClockPolicy& policy,
                                                   clocking::ClockGenerator* generator,
                                                   FillBlock&& fill,
                                                   const GatherStage* gather_stages,
                                                   int gather_stage_count) const {
#ifdef FOCS_OBS_COMPILE_OUT
    return replay_blocks_impl<false>(policy, generator, std::forward<FillBlock>(fill),
                                     gather_stages, gather_stage_count);
#else
    bool instrumented = false;
    switch (options_.obs) {
        case ReplayObsMode::kAuto:
            instrumented = obs::global_metrics().enabled() || obs::global_tracer().enabled();
            break;
        case ReplayObsMode::kForceOff: instrumented = false; break;
        case ReplayObsMode::kForceOn: instrumented = true; break;
    }
    return instrumented
               ? replay_blocks_impl<true>(policy, generator, std::forward<FillBlock>(fill),
                                          gather_stages, gather_stage_count)
               : replay_blocks_impl<false>(policy, generator, std::forward<FillBlock>(fill),
                                           gather_stages, gather_stage_count);
#endif
}

DcaRunResult ReplayEvaluationEngine::replay_class_select(const ClockPolicy& policy,
                                                         clocking::ClockGenerator* generator,
                                                         double fast_period_ps,
                                                         double slow_period_ps) const {
    const dta::DelayTable& table = *table_;
    const auto& keys = trace_->stage_keys;
    if (kernels_ != nullptr && slow_period_ps >= fast_period_ps && fast_period_ps >= 0.0) {
        // Branch-free mask kernel: per-stage select rows (slow-or-
        // uncharacterized ? slow : fast), then the shared gather/max fill.
        // Because slow >= fast >= 0, "max over per-stage selects" equals
        // "any stage slow ? slow : fast" exactly — no bitmap, no byte
        // scratch, no per-cycle branch. (Both class policies satisfy the
        // guard by construction; it protects hypothetical period choices.)
        std::array<std::array<double, dta::kKeyCount>, sim::kStageCount> select{};
        std::array<GatherStage, sim::kStageCount> stages{};
        for (int s = 0; s < sim::kStageCount; ++s) {
            for (OccKey key = 0; key < dta::kKeyCount; ++key) {
                const bool slow = TwoClassPolicy::is_slow_key(key) ||
                                  !table.characterized(key, static_cast<Stage>(s));
                select[static_cast<std::size_t>(s)][static_cast<std::size_t>(key)] =
                    slow ? slow_period_ps : fast_period_ps;
            }
            stages[static_cast<std::size_t>(s)] = {
                keys[static_cast<std::size_t>(s)].data(),
                select[static_cast<std::size_t>(s)].data()};
        }
        return replay_blocks(policy, generator,
                             [&](std::size_t begin, std::size_t end, double* out) {
                                 kernels_->gather_max(stages.data(), sim::kStageCount, begin,
                                                      end - begin, out);
                             },
                             stages.data(), sim::kStageCount);
    }
    // Reference path: per-(key, stage) "forces the slow period" bitmap,
    // hoisted out of the cycle loop: critical class or uncharacterized
    // entry.
    std::array<std::array<bool, sim::kStageCount>, dta::kKeyCount> slow{};
    for (OccKey key = 0; key < dta::kKeyCount; ++key) {
        for (int s = 0; s < sim::kStageCount; ++s) {
            slow[static_cast<std::size_t>(key)][static_cast<std::size_t>(s)] =
                TwoClassPolicy::is_slow_key(key) ||
                !table.characterized(key, static_cast<Stage>(s));
        }
    }
    // Block-sized scratch, reused across blocks (the same sizing rule as
    // the requested-period buffer).
    std::vector<char> any_slow(scratch_cycles());
    return replay_blocks(
        policy, generator, [&](std::size_t begin, std::size_t end, double* out) {
            const std::size_t count = end - begin;
            // Stage-major OR-reduction of the slow bits, then one select
            // pass.
            std::fill(any_slow.begin(), any_slow.begin() + static_cast<std::ptrdiff_t>(count), 0);
            for (int s = 0; s < sim::kStageCount; ++s) {
                const OccKey* row = keys[static_cast<std::size_t>(s)].data() + begin;
                for (std::size_t i = 0; i < count; ++i) {
                    any_slow[i] |= static_cast<char>(
                        slow[static_cast<std::size_t>(row[i])]
                            [static_cast<std::size_t>(s)]);
                }
            }
            for (std::size_t i = 0; i < count; ++i) {
                out[i] = any_slow[i] != 0 ? slow_period_ps : fast_period_ps;
            }
        });
}

DcaRunResult ReplayEvaluationEngine::run(const PolicySpec& spec,
                                         clocking::ClockGenerator* generator) const {
    // The policy object supplies the exact name string and the derived
    // constants (ex-only floor, class fast periods, approx scale, dual-
    // cycle stretch) of the live path; its virtual request hook is never
    // called — the kernels below are the devirtualized equivalents over
    // the trace's SoA rows.
    const auto policy = make_policy(spec, *table_, delays_.static_period_ps);
    const PolicyKind kind = spec.kind;
    const dta::DelayTable& table = *table_;
    const auto& keys = trace_->stage_keys;

    // Kernel-table gather descriptors over the stage-major transposed
    // effective rows (built at construction); unused on the reference path.
    std::array<GatherStage, sim::kStageCount> lut_stages{};
    if (kernels_ != nullptr) {
        for (int s = 0; s < sim::kStageCount; ++s) {
            lut_stages[static_cast<std::size_t>(s)] = {
                keys[static_cast<std::size_t>(s)].data(),
                effective_rows_[static_cast<std::size_t>(s)].data()};
        }
    }
    // Stage-major SoA max (paper eq. 2) through the kernel table: one
    // gather/max pass per stage over the block's key row. Shared by the
    // lut kernel and (with a trailing compression multiply) the approx-lut
    // kernel.
    const auto fill_lut_kernel = [&](std::size_t begin, std::size_t end, double* out) {
        kernels_->gather_max(lut_stages.data(), sim::kStageCount, begin, end - begin, out);
    };
    // Reference shape of the same fill: one plain indexed-load pass per
    // stage, maxing the fallback-resolved entries in place.
    const auto fill_lut_max = [&](std::size_t begin, std::size_t end, double* out) {
        const std::size_t count = end - begin;
        std::fill(out, out + count, 0.0);
        for (int s = 0; s < sim::kStageCount; ++s) {
            const OccKey* row = keys[static_cast<std::size_t>(s)].data() + begin;
            for (std::size_t i = 0; i < count; ++i) {
                const double d = table.effective(row[i], static_cast<Stage>(s));
                if (d > out[i]) out[i] = d;
            }
        }
    };

    switch (kind) {
        case PolicyKind::kStatic: {
            const double period = delays_.static_period_ps;
            return replay_blocks(*policy, generator,
                                 [&](std::size_t begin, std::size_t end, double* out) {
                                     std::fill(out, out + (end - begin), period);
                                 });
        }
        case PolicyKind::kGenie: {
            // The oracle requests exactly the cycle requirement: the unit
            // row scaled to the operating point.
            const double* unit = delays_.unit->unit_required_period_ps.data();
            const double scale = delays_.delay_scale;
            if (kernels_ != nullptr) {
                return replay_blocks(*policy, generator,
                                     [&](std::size_t begin, std::size_t end, double* out) {
                                         kernels_->scale(unit + begin, scale, end - begin, out);
                                     });
            }
            return replay_blocks(*policy, generator,
                                 [&](std::size_t begin, std::size_t end, double* out) {
                                     for (std::size_t c = begin; c < end; ++c) {
                                         out[c - begin] = unit[c] * scale;
                                     }
                                 });
        }
        case PolicyKind::kInstructionLut:
            if (kernels_ != nullptr) {
                return replay_blocks(*policy, generator, fill_lut_kernel, lut_stages.data(),
                                     sim::kStageCount);
            }
            return replay_blocks(*policy, generator, fill_lut_max);
        case PolicyKind::kApproxLut: {
            const auto* approx = dynamic_cast<const ApproximateLutPolicy*>(policy.get());
            check(approx != nullptr, "approx-lut policy kind produced an unexpected type");
            const double approx_scale = approx->scale();
            // The LUT max pass, then one compression multiply per cycle —
            // the same fl order as the live cycle_period_ps(record) * scale.
            if (kernels_ != nullptr) {
                return replay_blocks(
                    *policy, generator, [&](std::size_t begin, std::size_t end, double* out) {
                        fill_lut_kernel(begin, end, out);
                        kernels_->scale(out, approx_scale, end - begin, out);
                    });
            }
            return replay_blocks(
                *policy, generator, [&](std::size_t begin, std::size_t end, double* out) {
                    fill_lut_max(begin, end, out);
                    for (std::size_t i = 0; i < end - begin; ++i) out[i] *= approx_scale;
                });
        }
        case PolicyKind::kExOnly: {
            const auto* ex_only = dynamic_cast<const ExOnlyPolicy*>(policy.get());
            check(ex_only != nullptr, "ex-only policy kind produced an unexpected policy type");
            const double floor = ex_only->floor_ps();
            const OccKey* ex_row = keys[static_cast<std::size_t>(Stage::kEx)].data();
            if (kernels_ != nullptr) {
                // Fold the floor into a single-stage value row: the fill
                // becomes a one-stage gather/max (identical doubles — the
                // max with the floor is precomputed per key).
                std::array<double, dta::kKeyCount> ex_values{};
                for (OccKey key = 0; key < dta::kKeyCount; ++key) {
                    ex_values[static_cast<std::size_t>(key)] =
                        std::max(table.effective(key, Stage::kEx), floor);
                }
                const GatherStage ex_stage{ex_row, ex_values.data()};
                return replay_blocks(*policy, generator,
                                     [&](std::size_t begin, std::size_t end, double* out) {
                                         kernels_->gather_max(&ex_stage, 1, begin, end - begin,
                                                              out);
                                     },
                                     &ex_stage, 1);
            }
            return replay_blocks(*policy, generator,
                                 [&](std::size_t begin, std::size_t end, double* out) {
                                     for (std::size_t c = begin; c < end; ++c) {
                                         out[c - begin] = std::max(
                                             table.effective(ex_row[c], Stage::kEx), floor);
                                     }
                                 });
        }
        case PolicyKind::kTwoClass: {
            const auto* two_class = dynamic_cast<const TwoClassPolicy*>(policy.get());
            check(two_class != nullptr, "two-class policy kind produced an unexpected type");
            return replay_class_select(*policy, generator, two_class->fast_period_ps(),
                                       table.static_period_ps());
        }
        case PolicyKind::kDualCycle: {
            const auto* dual = dynamic_cast<const DualCyclePolicy*>(policy.get());
            check(dual != nullptr, "dual-cycle policy kind produced an unexpected type");
            const double fast = dual->fast_period_ps();
            return replay_class_select(*policy, generator, fast, dual->stretch() * fast);
        }
    }
    check(false, "unknown policy kind");
    return {};
}

std::vector<DcaRunResult> ReplayEvaluationEngine::run_batch(
    const std::vector<ReplayRequest>& requests) const {
    std::vector<DcaRunResult> results;
    results.reserve(requests.size());
    // Fuse runs of consecutive requests that share a policy: their request
    // arrays are identical, so one block fill serves the whole run.
    std::size_t begin = 0;
    while (begin < requests.size()) {
        std::size_t end = begin + 1;
        while (end < requests.size() && requests[end].policy == requests[begin].policy) ++end;
        std::vector<clocking::ClockGenerator*> generators;
        generators.reserve(end - begin);
        for (std::size_t i = begin; i < end; ++i) generators.push_back(requests[i].generator);
        auto fused = run_fused(requests[begin].policy, generators);
        for (auto& result : fused) results.push_back(std::move(result));
        begin = end;
    }
    return results;
}

std::vector<DcaRunResult> ReplayEvaluationEngine::run_fused(
    const PolicySpec& spec, const std::vector<clocking::ClockGenerator*>& generators) const {
    if (generators.empty()) return {};
    if (generators.size() == 1) return {run(spec, generators[0])};

    const auto policy = make_policy(spec, *table_, delays_.static_period_ps);
    const dta::DelayTable& table = *table_;
    const auto& keys = trace_->stage_keys;
    const double* unit = delays_.unit->unit_required_period_ps.data();
    const double scale = delays_.delay_scale;

    // --- Requested-period fill of this policy, type-erased: exactly the
    // fills run() builds, but one closure now serves every variant, so the
    // per-block gather/max (or select/scale) pass is paid once per column
    // instead of once per cell. Value rows referenced by the closure are
    // owned by the locals below and outlive the block loop.
    std::array<GatherStage, sim::kStageCount> lut_stages{};
    if (kernels_ != nullptr) {
        for (int s = 0; s < sim::kStageCount; ++s) {
            lut_stages[static_cast<std::size_t>(s)] = {
                keys[static_cast<std::size_t>(s)].data(),
                effective_rows_[static_cast<std::size_t>(s)].data()};
        }
    }
    std::array<double, dta::kKeyCount> ex_values{};
    GatherStage ex_stage{};
    std::array<std::array<double, dta::kKeyCount>, sim::kStageCount> select{};
    std::array<GatherStage, sim::kStageCount> select_stages{};
    std::array<std::array<bool, sim::kStageCount>, dta::kKeyCount> slow_map{};
    std::vector<char> any_slow;

    const auto fill_lut_max = [&](std::size_t begin, std::size_t end, double* out) {
        const std::size_t count = end - begin;
        std::fill(out, out + count, 0.0);
        for (int s = 0; s < sim::kStageCount; ++s) {
            const OccKey* row = keys[static_cast<std::size_t>(s)].data() + begin;
            for (std::size_t i = 0; i < count; ++i) {
                const double d = table.effective(row[i], static_cast<Stage>(s));
                if (d > out[i]) out[i] = d;
            }
        }
    };
    // Class-select fill shared by two-class and dual-cycle: the same
    // branch-free mask kernel / hoisted-bitmap pair replay_class_select
    // uses, with identical guards, so fused figures match per-variant runs
    // bit for bit.
    const auto make_class_select_fill =
        [&](double fast_period_ps,
            double slow_period_ps) -> std::function<void(std::size_t, std::size_t, double*)> {
        if (kernels_ != nullptr && slow_period_ps >= fast_period_ps && fast_period_ps >= 0.0) {
            for (int s = 0; s < sim::kStageCount; ++s) {
                for (OccKey key = 0; key < dta::kKeyCount; ++key) {
                    const bool slow = TwoClassPolicy::is_slow_key(key) ||
                                      !table.characterized(key, static_cast<Stage>(s));
                    select[static_cast<std::size_t>(s)][static_cast<std::size_t>(key)] =
                        slow ? slow_period_ps : fast_period_ps;
                }
                select_stages[static_cast<std::size_t>(s)] = {
                    keys[static_cast<std::size_t>(s)].data(),
                    select[static_cast<std::size_t>(s)].data()};
            }
            return [&](std::size_t begin, std::size_t end, double* out) {
                kernels_->gather_max(select_stages.data(), sim::kStageCount, begin, end - begin,
                                     out);
            };
        }
        for (OccKey key = 0; key < dta::kKeyCount; ++key) {
            for (int s = 0; s < sim::kStageCount; ++s) {
                slow_map[static_cast<std::size_t>(key)][static_cast<std::size_t>(s)] =
                    TwoClassPolicy::is_slow_key(key) ||
                    !table.characterized(key, static_cast<Stage>(s));
            }
        }
        any_slow.assign(scratch_cycles(), 0);
        return [&, fast_period_ps, slow_period_ps](std::size_t begin, std::size_t end,
                                                   double* out) {
            const std::size_t count = end - begin;
            std::fill(any_slow.begin(), any_slow.begin() + static_cast<std::ptrdiff_t>(count),
                      0);
            for (int s = 0; s < sim::kStageCount; ++s) {
                const OccKey* row = keys[static_cast<std::size_t>(s)].data() + begin;
                for (std::size_t i = 0; i < count; ++i) {
                    any_slow[i] |= static_cast<char>(
                        slow_map[static_cast<std::size_t>(row[i])][static_cast<std::size_t>(s)]);
                }
            }
            for (std::size_t i = 0; i < count; ++i) {
                out[i] = any_slow[i] != 0 ? slow_period_ps : fast_period_ps;
            }
        };
    };

    std::function<void(std::size_t, std::size_t, double*)> fill;
    switch (spec.kind) {
        case PolicyKind::kStatic: {
            const double period = delays_.static_period_ps;
            fill = [period](std::size_t begin, std::size_t end, double* out) {
                std::fill(out, out + (end - begin), period);
            };
            break;
        }
        case PolicyKind::kGenie:
            if (kernels_ != nullptr) {
                fill = [&](std::size_t begin, std::size_t end, double* out) {
                    kernels_->scale(unit + begin, scale, end - begin, out);
                };
            } else {
                fill = [&](std::size_t begin, std::size_t end, double* out) {
                    for (std::size_t c = begin; c < end; ++c) out[c - begin] = unit[c] * scale;
                };
            }
            break;
        case PolicyKind::kInstructionLut:
            if (kernels_ != nullptr) {
                fill = [&](std::size_t begin, std::size_t end, double* out) {
                    kernels_->gather_max(lut_stages.data(), sim::kStageCount, begin, end - begin,
                                         out);
                };
            } else {
                fill = fill_lut_max;
            }
            break;
        case PolicyKind::kApproxLut: {
            const auto* approx = dynamic_cast<const ApproximateLutPolicy*>(policy.get());
            check(approx != nullptr, "approx-lut policy kind produced an unexpected type");
            const double approx_scale = approx->scale();
            if (kernels_ != nullptr) {
                fill = [&, approx_scale](std::size_t begin, std::size_t end, double* out) {
                    kernels_->gather_max(lut_stages.data(), sim::kStageCount, begin, end - begin,
                                         out);
                    kernels_->scale(out, approx_scale, end - begin, out);
                };
            } else {
                fill = [&, approx_scale](std::size_t begin, std::size_t end, double* out) {
                    fill_lut_max(begin, end, out);
                    for (std::size_t i = 0; i < end - begin; ++i) out[i] *= approx_scale;
                };
            }
            break;
        }
        case PolicyKind::kExOnly: {
            const auto* ex_only = dynamic_cast<const ExOnlyPolicy*>(policy.get());
            check(ex_only != nullptr, "ex-only policy kind produced an unexpected policy type");
            const double floor = ex_only->floor_ps();
            const OccKey* ex_row = keys[static_cast<std::size_t>(Stage::kEx)].data();
            if (kernels_ != nullptr) {
                for (OccKey key = 0; key < dta::kKeyCount; ++key) {
                    ex_values[static_cast<std::size_t>(key)] =
                        std::max(table.effective(key, Stage::kEx), floor);
                }
                ex_stage = {ex_row, ex_values.data()};
                fill = [&](std::size_t begin, std::size_t end, double* out) {
                    kernels_->gather_max(&ex_stage, 1, begin, end - begin, out);
                };
            } else {
                fill = [&, floor, ex_row](std::size_t begin, std::size_t end, double* out) {
                    for (std::size_t c = begin; c < end; ++c) {
                        out[c - begin] = std::max(table.effective(ex_row[c], Stage::kEx), floor);
                    }
                };
            }
            break;
        }
        case PolicyKind::kTwoClass: {
            const auto* two_class = dynamic_cast<const TwoClassPolicy*>(policy.get());
            check(two_class != nullptr, "two-class policy kind produced an unexpected type");
            fill = make_class_select_fill(two_class->fast_period_ps(), table.static_period_ps());
            break;
        }
        case PolicyKind::kDualCycle: {
            const auto* dual = dynamic_cast<const DualCyclePolicy*>(policy.get());
            check(dual != nullptr, "dual-cycle policy kind produced an unexpected type");
            const double fast = dual->fast_period_ps();
            fill = make_class_select_fill(fast, dual->stretch() * fast);
            break;
        }
    }
    check(fill != nullptr, "unknown policy kind");

    // --- One block loop, G variant walks per filled block. Each variant
    // keeps private accumulator state and consumes the shared block in the
    // live engine's per-cycle order, so every variant's figures are bit-
    // identical to its own run() call.
    struct VariantState {
        clocking::ClockGenerator* generator;
        RunTotals totals;
    };
    std::vector<VariantState> variants;
    variants.reserve(generators.size());
    bool any_stateful = false;
    for (clocking::ClockGenerator* generator : generators) {
        if (generator != nullptr) generator->reset();
        any_stateful = any_stateful || generator != nullptr;
        variants.push_back(VariantState{generator, {}});
    }

    const std::size_t cycles = trace_->records.size();
    const std::size_t block = static_cast<std::size_t>(options_.block_cycles);
    std::vector<double> requested(scratch_cycles());
    std::vector<double> granted(any_stateful ? scratch_cycles() : 0);

#ifndef FOCS_OBS_COMPILE_OUT
    bool instrumented = false;
    switch (options_.obs) {
        case ReplayObsMode::kAuto:
            instrumented = obs::global_metrics().enabled() || obs::global_tracer().enabled();
            break;
        case ReplayObsMode::kForceOff: instrumented = false; break;
        case ReplayObsMode::kForceOn: instrumented = true; break;
    }
    obs::Span span;
    if (instrumented) {
        span = obs::global_tracer().span("replay.run_fused");
        span.arg("policy", policy->name())
            .arg("variants", static_cast<std::int64_t>(variants.size()))
            .arg("cycles", static_cast<std::int64_t>(cycles));
    }
#endif

    [[maybe_unused]] std::uint64_t blocks = 0;
    for (std::size_t begin = 0; begin < cycles; begin += block) {
        if (options_.cancel != nullptr) options_.cancel->throw_if_cancelled();
        const std::size_t end = std::min(cycles, begin + block);
        fill(begin, end, requested.data());
        ++blocks;
        for (VariantState& variant : variants) {
            walk_block(variant.generator, requested.data(), granted.data(), begin, end,
                       variant.totals);
        }
    }

#ifndef FOCS_OBS_COMPILE_OUT
    if (instrumented) {
        obs::MetricsRegistry& metrics = obs::global_metrics();
        static const struct Ids {
            obs::MetricsRegistry::Id batches, variants, blocks;
            explicit Ids(obs::MetricsRegistry& m)
                : batches(m.counter("replay.fused_batches")),
                  variants(m.counter("replay.fused_variants")),
                  blocks(m.counter("replay.fused_blocks")) {}
        } ids(metrics);
        metrics.add(ids.batches);
        metrics.add(ids.variants, variants.size());
        metrics.add(ids.blocks, blocks);
        span.arg("blocks", static_cast<std::int64_t>(blocks));
    }
#endif

    std::vector<DcaRunResult> results;
    results.reserve(variants.size());
    for (const VariantState& variant : variants) {
        results.push_back(finish(policy->name(), variant.generator, variant.totals));
    }
    return results;
}

}  // namespace focs::core
