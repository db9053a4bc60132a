#include "core/replay_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

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
    const ReplayKernels* simd = options_.force_scalar ? nullptr : simd_replay_kernels();
    kernels_ = simd != nullptr ? simd : &scalar_replay_kernels();
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
    // called — the requests below are the devirtualized equivalents over
    // the trace's key tuples.
    const auto policy = make_policy(spec, *table_, delays_.static_period_ps);
    const dta::DelayTable& table = *table_;
    const std::vector<sim::StageKeyTuple>& tuples = trace_->tuples;
    const std::uint32_t* tuple_ids = trace_->tuple_ids.data();
    const ReplayKernels& kernels = *kernels_;
    const double* unit = delays_.unit->unit_required_period_ps.data();
    const double scale = delays_.delay_scale;

    // --- The policy's requests. Every policy but genie requests a pure
    // function of the cycle's key tuple, computed once per distinct tuple
    // into `tuple_request` (cycle c requests tuple_request[ids[c]]); genie
    // requests the cycle's own requirement, the unit row scaled to the
    // operating point.
    const bool per_cycle = spec.kind == PolicyKind::kGenie;
    std::vector<double> tuple_request(per_cycle ? 0 : tuples.size());
    // Paper eq. 2 per tuple: a running max over the stages in ascending
    // order from 0.0 — the same doubles and compares as the live
    // per-cycle max, so every tuple's value is the one a live cycle with
    // that tuple requests.
    const auto set_stage_max = [&](const auto& stage_value) {
        for (std::size_t t = 0; t < tuples.size(); ++t) {
            double period = 0.0;
            for (std::size_t s = 0; s < sim::kStageCount; ++s) {
                const double d = stage_value(tuples[t][s], static_cast<Stage>(s));
                if (d > period) period = d;
            }
            tuple_request[t] = period;
        }
    };
    const auto lut_entry = [&table](OccKey key, Stage stage) {
        return table.effective(key, stage);
    };
    // Two-class family (two-class, dual-cycle): a cycle runs at the slow
    // period when any stage holds a slow-class or uncharacterized entry.
    // The max over per-stage selects (slow ? slow : fast) is that
    // function exactly while slow >= fast >= 0, which always holds: every
    // entry is clamped to the static period (so two-class's fast period is
    // at most its slow, static one) and the dual-cycle stretch is >= 1.
    const auto class_select = [&](double fast, double slow) {
        check(slow >= fast && fast >= 0.0, "class-select periods need slow >= fast >= 0");
        set_stage_max([&](OccKey key, Stage stage) {
            return TwoClassPolicy::is_slow_key(key) || !table.characterized(key, stage) ? slow
                                                                                        : fast;
        });
    };

    switch (spec.kind) {
        case PolicyKind::kStatic:
            std::fill(tuple_request.begin(), tuple_request.end(), delays_.static_period_ps);
            break;
        case PolicyKind::kGenie: break;
        case PolicyKind::kInstructionLut: set_stage_max(lut_entry); break;
        case PolicyKind::kApproxLut: {
            const auto* approx = dynamic_cast<const ApproximateLutPolicy*>(policy.get());
            check(approx != nullptr, "approx-lut policy kind produced an unexpected type");
            // The LUT max, then one compression multiply — the same fl
            // order as the live cycle_period_ps(record) * scale.
            set_stage_max(lut_entry);
            for (double& request : tuple_request) request = request * approx->scale();
            break;
        }
        case PolicyKind::kExOnly: {
            const auto* ex_only = dynamic_cast<const ExOnlyPolicy*>(policy.get());
            check(ex_only != nullptr, "ex-only policy kind produced an unexpected policy type");
            const double floor = ex_only->floor_ps();
            // Only the EX entry counts, floored; every other stage adds a
            // 0.0, which the running max from 0.0 absorbs.
            set_stage_max([&](OccKey key, Stage stage) {
                return stage == Stage::kEx ? std::max(table.effective(key, stage), floor) : 0.0;
            });
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
        default: check(false, "unknown policy kind");
    }

    // --- The variants' grants. The ideal generator grants the requests
    // themselves. A quantized generator is stateless, so over a per-tuple
    // request it grants once per tuple (quantize_grant) into a tap row;
    // over genie's per-cycle requests it grants each block with the
    // quantize kernel. Any other generator is stateful and grants each
    // block of per-cycle requests in one grant_block call. Every variant's
    // grants then take the one multi-variant reduce per block — strict-
    // order time integral per variant, order-free violation figures — so
    // every variant is bit-identical to a live run at any block size. The
    // required period is the same fl(unit * scale) double the live
    // calculator produces (positive-constant multiplication is monotone
    // under IEEE rounding, so it commutes with the per-stage max).
    struct Variant {
        clocking::ClockGenerator* generator = nullptr;
        std::optional<TapLadder> ladder;  ///< set for a per-cycle quantized generator
        std::vector<double> grants;       ///< tap row or block grants, when owned
    };
    const std::size_t cycles = trace_->cycles();
    const std::size_t block = static_cast<std::size_t>(options_.block_cycles);
    std::vector<double> requested;
    const auto block_requests = [&] {
        if (requested.empty()) requested.resize(scratch_cycles());
        return requested.data();
    };
    std::vector<Variant> variants(generators.size());
    std::vector<ReduceVariant> sums(generators.size());
    for (std::size_t i = 0; i < generators.size(); ++i) {
        Variant& v = variants[i];
        ReduceVariant& sum = sums[i];
        v.generator = generators[i];
        const auto* quantized =
            dynamic_cast<const clocking::QuantizedClockGenerator*>(v.generator);
        if (v.generator != nullptr) v.generator->reset();
        if (v.generator == nullptr) {
            sum.grants = per_cycle ? block_requests() : tuple_request.data();
            sum.per_tuple = !per_cycle;
        } else if (quantized != nullptr && !per_cycle) {
            const TapLadder ladder(*quantized);
            v.grants.resize(tuples.size());
            for (std::size_t t = 0; t < tuples.size(); ++t) {
                v.grants[t] = quantize_grant(ladder, tuple_request[t]);
            }
            sum.grants = v.grants.data();
            sum.per_tuple = true;
        } else {
            if (quantized != nullptr) v.ladder.emplace(*quantized);
            block_requests();
            v.grants.resize(scratch_cycles());
            sum.grants = v.grants.data();
        }
    }
    // Per-cycle requests exist only when genie or a block-granting
    // generator reads them; a table-driven policy under ideal and
    // quantized generators is reduced straight from its per-tuple rows.
    const bool fill_requests = !requested.empty();

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
        const std::size_t count = std::min(cycles, begin + block) - begin;
        if (fill_requests) {
            if (per_cycle) {
                kernels.scale(unit + begin, scale, count, requested.data());
            } else {
                gather(tuple_request.data(), tuple_ids, begin, count, requested.data());
            }
        }
        for (std::size_t i = 0; i < variants.size(); ++i) {
            Variant& v = variants[i];
            if (v.ladder) {
                kernels.quantize(requested.data(), *v.ladder, count, v.grants.data());
            } else if (v.generator != nullptr && !sums[i].per_tuple) {
                v.generator->grant_block(requested.data(), count, v.grants.data());
            }
        }
        kernels.reduce(sums.data(), sums.size(), tuple_ids, tuples.size(), unit, scale,
                       kViolationTolerancePs, begin, count);
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
        for (const ReduceVariant& sum : sums) {
            metrics.add(ids.runs);
            metrics.add(ids.blocks, blocks);
            metrics.add(ids.cycles, cycles);
            metrics.add(ids.violations, sum.violations);
            if (cycles > 0) {
                metrics.observe(ids.avg_period, sum.total_time_ps / static_cast<double>(cycles));
            }
        }
        span.arg("blocks", static_cast<std::int64_t>(blocks));
    }
#endif

    std::vector<DcaRunResult> results;
    results.reserve(variants.size());
    for (std::size_t i = 0; i < variants.size(); ++i) {
        const clocking::ClockGenerator* generator = variants[i].generator;
        const ReduceVariant& sum = sums[i];
        DcaRunResult result = finish_run(
            policy->name(),
            generator != nullptr ? generator->name() : clocking::IdealClockGenerator().name(),
            cycles, sum.total_time_ps, delays_.static_period_ps, sum.violations,
            sum.worst_violation_ps);
        result.guest = trace_->guest;
        results.push_back(std::move(result));
    }
    return results;
}

}  // namespace focs::core
