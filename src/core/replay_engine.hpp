// Batched policy-replay engine over recorded pipeline traces.
//
// Scores clocking schemes against one canonical PipelineTrace without
// re-simulating the guest. The trace is a dictionary of distinct stage-key
// tuples plus one tuple id per cycle, and the per-cycle request of every
// table-driven PolicyKind (static, lut, approx-lut, ex-only, two-class,
// dual-cycle) is a pure function of the cycle's tuple: it is evaluated
// once per tuple, with the same IEEE operations as the live per-cycle
// request, and a cycle's request is one indexed load (no virtual
// dispatch, no CycleRecord reconstruction). Genie requests the cycle's
// own requirement. The grant/integrate/safety-check pass is a block
// operation over every generator variant of a column at once: a quantized
// clock generator grants a table-driven policy once per tuple (a tap row)
// and genie's per-cycle requests through the quantize kernel; any other
// stateful generator grants a whole block in one
// ClockGenerator::grant_block call; then one multi-variant reduce kernel
// integrates every variant, each variant's time integral summed in strict
// cycle order. The required-period ground truth is consumed as a
// ScaledTraceDelays view — the trace's voltage-free unit array plus the
// operating point's delay scale — so every voltage point of a sweep
// shares one resident array and the safety check is one multiply per
// cycle. Every PolicySpec (parameterized approx-lut and dual-cycle
// included) produces DcaRunResults byte-identical to a live
// DcaEngine::run of the same cell at any block size; a custom ClockPolicy
// object is evaluated live.
//
// There is one request builder and one block loop (run_fused; run() is
// its single-variant case). Fills and reductions dispatch through a
// kernel table (replay_kernels.hpp): explicit SIMD (AVX2/NEON) when
// compiled in and supported, the portable scalar table otherwise or under
// ReplayOptions::force_scalar. The scalar table is the SIMD kernels'
// reference; the live DcaEngine is the reference of the engine as a whole.
#pragma once

#include <cstddef>
#include <vector>

#include "common/cancel.hpp"
#include "core/dca_engine.hpp"
#include "core/policies.hpp"
#include "core/replay_kernels.hpp"
#include "dta/delay_table.hpp"
#include "sim/trace_recorder.hpp"
#include "timing/trace_delays.hpp"

namespace focs::core {

/// How a replay call resolves its instrumentation. The decision is one
/// runtime branch per call, taken before the block loop; the span and the
/// metrics are recorded after it, so the loop itself never checks a flag.
enum class ReplayObsMode {
    /// Follow the global observability switches (--metrics / --trace-out).
    kAuto,
    /// Never instrument, whatever the global switches say: no span and no
    /// metrics, as in a -DFOCS_OBS_COMPILE_OUT build (which drops the
    /// per-call branch as well). bench_sim_throughput's overhead series
    /// uses it as the compiled-out baseline.
    kForceOff,
    /// Always instrument, regardless of the global switches (so the bench
    /// can measure the enabled path without flipping process-global
    /// state).
    kForceOn,
};

struct ReplayOptions {
    /// Cycles per request block. Any value >= 1 produces identical results;
    /// the default keeps the request buffer L1/L2-resident.
    int block_cycles = 4096;
    /// Instrumentation of the block loop (never affects results).
    ReplayObsMode obs = ReplayObsMode::kAuto;
    /// Pin the portable scalar kernel table (CLI --no-simd) instead of the
    /// SIMD table the CPU supports. Results are byte-identical either way —
    /// this is the escape hatch and the reference side of the SIMD==scalar
    /// tests.
    bool force_scalar = false;
    /// Optional cooperative cancellation, polled once per block (never per
    /// cycle — a dormant token costs one relaxed load per block_cycles): a
    /// fired token throws CancelledError at the next block boundary.
    const CancellationToken* cancel = nullptr;
};

/// One (policy, generator) cell of a replay batch. A null generator means
/// the ideal (continuously tunable) clock generator.
struct ReplayRequest {
    PolicySpec policy = PolicyKind::kInstructionLut;
    clocking::ClockGenerator* generator = nullptr;
};

class ReplayEvaluationEngine {
public:
    /// `trace` and `table` are borrowed read-only and must outlive the
    /// engine; `delays` (held by value — it shares the unit array) must
    /// view unit delays computed from `trace` with the design variant and
    /// voltage `table` was characterized for.
    ReplayEvaluationEngine(const sim::PipelineTrace& trace, timing::ScaledTraceDelays delays,
                           const dta::DelayTable& table, ReplayOptions options = {});

    /// Replays one bundled policy through its devirtualized fill: the
    /// single-variant case of run_fused. The spec's parameter (approx-lut
    /// scale, dual-cycle stretch) is threaded into the fill constants; a
    /// bare PolicyKind converts implicitly and gets the kind's default
    /// parameter.
    DcaRunResult run(const PolicySpec& spec, clocking::ClockGenerator* generator = nullptr) const;

    /// Replays a whole policy x generator batch over the shared trace.
    /// Consecutive requests sharing a policy are fused (see run_fused).
    std::vector<DcaRunResult> run_batch(const std::vector<ReplayRequest>& requests) const;

    /// Fused multi-generator replay: scores one policy across all generator
    /// variants of a sweep column (nullptr = ideal) in a single pass over
    /// the trace. The requests depend only on the policy, never on the
    /// generator, so one per-tuple evaluation serves every variant; each
    /// block then takes the variants' own grants (a per-tuple tap row for
    /// a QuantizedClockGenerator over a table-driven policy) and one
    /// multi-variant reduce. Every variant's figures are the ones a live
    /// run of that cell produces.
    std::vector<DcaRunResult> run_fused(
        const PolicySpec& spec, const std::vector<clocking::ClockGenerator*>& generators) const;

    const sim::PipelineTrace& trace() const { return *trace_; }
    const timing::ScaledTraceDelays& delays() const { return delays_; }

    /// True when this engine dispatches through an ISA-specific kernel
    /// table (compiled in, supported by the CPU, not forced scalar).
    bool simd_active() const { return kernels_ != &scalar_replay_kernels(); }
    /// "scalar", "avx2" or "neon".
    const char* kernels_name() const { return kernels_->name; }

private:
    /// One block's worth of per-cycle scratch, clamped to the trace length
    /// — the single sizing rule for the per-cycle request and grant
    /// buffers, so block-size-1 runs allocate exactly one element each.
    /// Never zero: .data() must stay dereferenceable on empty traces.
    std::size_t scratch_cycles() const;

    const sim::PipelineTrace* trace_;
    timing::ScaledTraceDelays delays_;
    const dta::DelayTable* table_;
    ReplayOptions options_;
    /// Kernel table of the block fills and reductions: SIMD when available
    /// and not forced scalar, the portable scalar table otherwise.
    const ReplayKernels* kernels_;
};

}  // namespace focs::core
