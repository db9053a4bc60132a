#include "core/replay_engine.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"

namespace focs::core {

using dta::OccKey;
using sim::Stage;

namespace {
constexpr std::size_t kStages = sim::kStageCount;
constexpr std::size_t kKeys = dta::kKeyCount;
}  // namespace

ReplayEvaluationEngine::ReplayEvaluationEngine(const sim::PipelineTrace& trace,
                                               timing::ScaledTraceDelays delays,
                                               const dta::DelayTable& table,
                                               ReplayOptions options)
    : trace_(&trace), delays_(std::move(delays)), table_(&table), options_(options) {
    check(options_.block_cycles >= 1, "replay block size must be >= 1");
    check(delays_.unit != nullptr, "replay engine needs a unit trace-delay artifact");
    check(delays_.cycles() == trace.cycles(),
          "trace delays were computed from a different trace (cycle count mismatch)");
    const ReplayKernels* simd = options_.force_scalar ? nullptr : simd_replay_kernels();
    kernels_ = simd != nullptr ? simd : &scalar_replay_kernels();
    for (std::size_t s = 0; s < kStages; ++s) {
        for (std::size_t key = 0; key < kKeys; ++key) {
            effective_rows_[s][key] =
                table.effective(static_cast<OccKey>(key), static_cast<Stage>(s));
        }
    }
}

std::size_t ReplayEvaluationEngine::scratch_cycles() const {
    return std::min<std::size_t>(static_cast<std::size_t>(options_.block_cycles),
                                 std::max<std::size_t>(trace_->cycles(), 1));
}

DcaRunResult ReplayEvaluationEngine::run(const PolicySpec& spec,
                                         clocking::ClockGenerator* generator) const {
    return std::move(run_fused(spec, {generator}).front());
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

    // The policy object supplies the exact name string and the derived
    // constants (ex-only floor, class fast periods, approx scale, dual-
    // cycle stretch) of the live path; its virtual request hook is never
    // called — the fills below are the devirtualized equivalents over the
    // trace's SoA rows.
    const auto policy = make_policy(spec, *table_, delays_.static_period_ps);
    const dta::DelayTable& table = *table_;
    const auto& keys = trace_->stage_keys;
    const ReplayKernels& kernels = *kernels_;
    const double* unit = delays_.unit->unit_required_period_ps.data();
    const double scale = delays_.delay_scale;

    // --- The policy's requested-period fill, built once for every variant.
    // A fill that is a pure gather/max over per-stage value rows (LUT,
    // ex-only, the class-select mask) is just the descriptor
    // stages[0, stage_count); every other fill is the `fill` closure, which
    // may gather first. The value rows live in `rows` or effective_rows_
    // and outlive the block loop.
    std::array<std::array<double, kKeys>, kStages> rows{};
    std::array<GatherStage, kStages> stages{};
    int stage_count = 0;
    std::function<void(std::size_t, std::size_t, double*)> fill;
    const auto gather = [&](std::size_t begin, std::size_t end, double* out) {
        kernels.gather_max(stages.data(), stage_count, begin, end - begin, out);
    };
    // Stage-major SoA max (paper eq. 2): one gather/max pass per stage over
    // the block's key row, into the fallback-resolved effective rows.
    const auto gather_lut = [&] {
        for (std::size_t s = 0; s < kStages; ++s) {
            stages[s] = {keys[s].data(), effective_rows_[s].data()};
        }
        stage_count = sim::kStageCount;
    };
    // Two-class family (two-class, dual-cycle): a cycle runs at the slow
    // period when any stage holds a slow-class or uncharacterized entry.
    // Mask kernel: each stage gets a select row (slow ? slow : fast) and
    // the fill is a pure gather/max — exact because slow >= fast >= 0 makes
    // "max over per-stage selects" and "any stage slow" the same function.
    // The guard always holds: every entry is clamped to the static period
    // (so two-class's fast period is at most its slow, static one) and the
    // dual-cycle stretch is >= 1.
    const auto class_select = [&](double fast, double slow) {
        check(slow >= fast && fast >= 0.0, "class-select periods need slow >= fast >= 0");
        for (std::size_t s = 0; s < kStages; ++s) {
            for (std::size_t key = 0; key < kKeys; ++key) {
                const auto occ = static_cast<OccKey>(key);
                const bool is_slow = TwoClassPolicy::is_slow_key(occ) ||
                                     !table.characterized(occ, static_cast<Stage>(s));
                rows[s][key] = is_slow ? slow : fast;
            }
            stages[s] = {keys[s].data(), rows[s].data()};
        }
        stage_count = sim::kStageCount;
    };

    switch (spec.kind) {
        case PolicyKind::kStatic: {
            const double period = delays_.static_period_ps;
            fill = [period](std::size_t begin, std::size_t end, double* out) {
                std::fill(out, out + (end - begin), period);
            };
            break;
        }
        case PolicyKind::kGenie:
            // The oracle requests exactly the cycle requirement: the unit
            // row scaled to the operating point.
            fill = [&](std::size_t begin, std::size_t end, double* out) {
                kernels.scale(unit + begin, scale, end - begin, out);
            };
            break;
        case PolicyKind::kInstructionLut: gather_lut(); break;
        case PolicyKind::kApproxLut: {
            const auto* approx = dynamic_cast<const ApproximateLutPolicy*>(policy.get());
            check(approx != nullptr, "approx-lut policy kind produced an unexpected type");
            const double approx_scale = approx->scale();
            // The LUT max, then one compression multiply per cycle — the
            // same fl order as the live cycle_period_ps(record) * scale.
            gather_lut();
            fill = [&, approx_scale](std::size_t begin, std::size_t end, double* out) {
                gather(begin, end, out);
                kernels.scale(out, approx_scale, end - begin, out);
            };
            break;
        }
        case PolicyKind::kExOnly: {
            const auto* ex_only = dynamic_cast<const ExOnlyPolicy*>(policy.get());
            check(ex_only != nullptr, "ex-only policy kind produced an unexpected policy type");
            const double floor = ex_only->floor_ps();
            // The floor folded into a single-stage value row: a one-stage
            // gather/max (identical doubles — the max with the floor is
            // precomputed per key).
            const auto ex = static_cast<std::size_t>(Stage::kEx);
            for (std::size_t key = 0; key < kKeys; ++key) {
                rows[0][key] = std::max(effective_rows_[ex][key], floor);
            }
            stages[0] = {keys[ex].data(), rows[0].data()};
            stage_count = 1;
            break;
        }
        case PolicyKind::kTwoClass: {
            const auto* two_class = dynamic_cast<const TwoClassPolicy*>(policy.get());
            check(two_class != nullptr, "two-class policy kind produced an unexpected type");
            class_select(two_class->fast_period_ps(), table.static_period_ps());
            break;
        }
        case PolicyKind::kDualCycle: {
            const auto* dual = dynamic_cast<const DualCyclePolicy*>(policy.get());
            check(dual != nullptr, "dual-cycle policy kind produced an unexpected type");
            const double fast = dual->fast_period_ps();
            class_select(fast, dual->stretch() * fast);
            break;
        }
    }
    const bool pure_gather = fill == nullptr;
    check(!pure_gather || stage_count > 0, "unknown policy kind");
    if (pure_gather) fill = gather;

    // --- One block loop. Each variant keeps private accumulators and
    // consumes the shared block in the live engine's per-cycle order: the
    // ideal generator's grants are the requests themselves, a quantized
    // generator's grants are computed inside the quantize_reduce kernel,
    // and any other generator grants the block in one grant_block call;
    // the grants then take the block reduction — strict-order time
    // integral, order-free violation figures — so every variant is
    // bit-identical to a live run at any block size. The required period
    // is the same fl(unit * scale) double the live calculator produces
    // (positive-constant multiplication is monotone under IEEE rounding,
    // so it commutes with the per-stage max).
    struct Variant {
        clocking::ClockGenerator* generator;
        std::optional<TapLadder> ladder;  ///< set for a QuantizedClockGenerator
        double total_time_ps = 0;
        std::uint64_t violations = 0;
        double worst_violation_ps = 0;
    };
    std::vector<Variant> variants;
    variants.reserve(generators.size());
    bool any_granting = false;
    for (clocking::ClockGenerator* generator : generators) {
        std::optional<TapLadder> ladder;
        if (generator != nullptr) {
            generator->reset();
            if (const auto* quantized =
                    dynamic_cast<const clocking::QuantizedClockGenerator*>(generator)) {
                ladder.emplace(*quantized);
            } else {
                any_granting = true;
            }
        }
        variants.push_back(Variant{generator, std::move(ladder)});
    }
    // A lone ideal variant over a pure-gather fill takes the fused kernel:
    // gather, integrate and safety-check in one pass with no scratch
    // round-trip, so the independent gather chains overlap the serial
    // time-integral adds. Same figures as fill-then-reduce.
    const bool fused_ideal =
        pure_gather && variants.size() == 1 && variants.front().generator == nullptr;

    const std::size_t cycles = trace_->cycles();
    const std::size_t block = static_cast<std::size_t>(options_.block_cycles);
    std::vector<double> requested(scratch_cycles());
    std::vector<double> granted(any_granting ? scratch_cycles() : 0);

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

    for (std::size_t begin = 0; begin < cycles; begin += block) {
        // Block-boundary cancellation check; the cycle loops stay token-free
        // (see the cost note on ReplayOptions::cancel).
        if (options_.cancel != nullptr) options_.cancel->throw_if_cancelled();
        const std::size_t end = std::min(cycles, begin + block);
        const std::size_t count = end - begin;
        if (fused_ideal) {
            Variant& v = variants.front();
            kernels.gather_reduce_ideal(stages.data(), stage_count, unit, scale,
                                        kViolationTolerancePs, begin, count, &v.total_time_ps,
                                        &v.violations, &v.worst_violation_ps);
            continue;
        }
        fill(begin, end, requested.data());
        for (Variant& v : variants) {
            if (v.ladder) {
                kernels.quantize_reduce(requested.data(), *v.ladder, unit, scale,
                                        kViolationTolerancePs, begin, count, &v.total_time_ps,
                                        &v.violations, &v.worst_violation_ps);
                continue;
            }
            const double* grants = requested.data();
            if (v.generator != nullptr) {
                v.generator->grant_block(requested.data(), count, granted.data());
                grants = granted.data();
            }
            kernels.reduce_ideal(grants, unit, scale, kViolationTolerancePs, begin, count,
                                 &v.total_time_ps, &v.violations, &v.worst_violation_ps);
        }
    }

#ifndef FOCS_OBS_COMPILE_OUT
    if (instrumented) {
        const std::uint64_t blocks = (cycles + block - 1) / block;
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
        for (const Variant& v : variants) {
            metrics.add(ids.runs);
            metrics.add(ids.blocks, blocks);
            metrics.add(ids.cycles, cycles);
            metrics.add(ids.violations, v.violations);
            if (cycles > 0) {
                metrics.observe(ids.avg_period, v.total_time_ps / static_cast<double>(cycles));
            }
        }
        span.arg("blocks", static_cast<std::int64_t>(blocks));
    }
#endif

    std::vector<DcaRunResult> results;
    results.reserve(variants.size());
    for (const Variant& v : variants) {
        DcaRunResult result = finish_run(
            policy->name(),
            v.generator != nullptr ? v.generator->name() : clocking::IdealClockGenerator().name(),
            cycles, v.total_time_ps, delays_.static_period_ps, v.violations,
            v.worst_violation_ps);
        result.guest = trace_->guest;
        results.push_back(std::move(result));
    }
    return results;
}

}  // namespace focs::core
