// Batched policy-replay engine over recorded pipeline traces.
//
// Scores clocking schemes against one canonical PipelineTrace without
// re-simulating the guest. The per-cycle requested period of every bundled
// PolicyKind is a pure function of the trace's stage-major occupancy-key
// rows and the delay table, so each kind gets a devirtualized kernel that
// fills whole trace blocks of requests with plain indexed loads (no
// virtual dispatch, no CycleRecord reconstruction). The grant/integrate/
// safety-check pass is a block operation too: a stateful clock generator
// grants a whole block in one ClockGenerator::grant_block call, and the
// grants go through the same block reduction the ideal generator uses,
// which sums the time integral in strict cycle order. The required-period
// ground truth is consumed as a ScaledTraceDelays view — the trace's
// voltage-free unit array plus the operating point's delay scale — so every
// voltage point of a sweep shares one resident array and the safety check
// is one multiply per cycle. Custom ClockPolicy objects fall back to the
// generic DcaEngine::replay walk. Every path produces DcaRunResults
// byte-identical to a live DcaEngine::run of the same cell at any block
// size.
//
// The block fills and reductions dispatch through a kernel table
// (replay_kernels.hpp): explicit SIMD (AVX2/NEON) when compiled in and
// supported, a portable scalar table otherwise, and — under
// ReplayOptions::force_scalar — the original handwritten per-cycle
// reference loops. All of these are byte-identity-preserving;
// force_scalar exists as the escape hatch and as the baseline the tests
// diff against.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "core/dca_engine.hpp"
#include "core/policies.hpp"
#include "core/replay_kernels.hpp"
#include "dta/delay_table.hpp"
#include "sim/trace_recorder.hpp"
#include "timing/trace_delays.hpp"

namespace focs::core {

/// How the replay hot loop resolves its instrumentation. The enabled check
/// is hoisted out of the cycle loop entirely: the engine selects one of two
/// template instantiations per run, so the uninstrumented path contains no
/// flag check and no instrumentation code at all.
enum class ReplayObsMode {
    /// Follow the global observability switches (--metrics / --trace-out):
    /// one branch per run, then the matching instantiation.
    kAuto,
    /// Always the uninstrumented instantiation — the exact code a
    /// -DFOCS_OBS_COMPILE_OUT build always runs. Lets one binary measure
    /// the compiled-out baseline (bench_sim_throughput's overhead series).
    kForceOff,
    /// Always the instrumented instantiation, regardless of the global
    /// switches (so the bench can measure the enabled path without
    /// flipping process-global state).
    kForceOn,
};

struct ReplayOptions {
    /// Cycles per request block. Any value >= 1 produces identical results;
    /// the default keeps the request buffer L1/L2-resident.
    int block_cycles = 4096;
    /// Instrumentation of the block loop (never affects results).
    ReplayObsMode obs = ReplayObsMode::kAuto;
    /// Pin the handwritten scalar reference path (CLI --no-simd): no SIMD
    /// kernel table, no branch-free mask kernel, no block grant call (the
    /// generator is asked cycle by cycle). Results are byte-identical either way — this is the
    /// escape hatch and the baseline the scalar==SIMD tests diff against.
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

    /// Replays one bundled policy through its devirtualized kernel. The
    /// spec's parameter (approx-lut scale, dual-cycle stretch) is threaded
    /// into the kernel constants; a bare PolicyKind converts implicitly and
    /// gets the kind's default parameter.
    DcaRunResult run(const PolicySpec& spec, clocking::ClockGenerator* generator = nullptr) const;

    /// Replays a whole policy x generator batch over the shared trace.
    /// Consecutive requests sharing a policy are fused (see run_fused).
    std::vector<DcaRunResult> run_batch(const std::vector<ReplayRequest>& requests) const;

    /// Fused multi-generator replay: scores one policy across all generator
    /// variants of a sweep column (nullptr = ideal) in a single pass over
    /// the trace. The requested-period array of a block depends only on the
    /// policy, never on the generator, so one block fill serves every
    /// variant; each variant then pays only its own grant/integrate/safety
    /// walk. Results are byte-identical to per-variant run() calls — a
    /// G-variant column costs one gather/max fill instead of G.
    std::vector<DcaRunResult> run_fused(
        const PolicySpec& spec, const std::vector<clocking::ClockGenerator*>& generators) const;

    const sim::PipelineTrace& trace() const { return *trace_; }
    const timing::ScaledTraceDelays& delays() const { return delays_; }

    /// True when this engine dispatches through an ISA-specific kernel
    /// table (compiled in, supported by the CPU, not forced scalar).
    bool simd_active() const { return kernels_ != nullptr && kernels_ != &scalar_replay_kernels(); }
    /// "reference" (force_scalar), "scalar", "avx2" or "neon".
    const char* kernels_name() const { return kernels_ != nullptr ? kernels_->name : "reference"; }

private:
    /// Running figures of one (policy, generator) replay.
    struct RunTotals {
        double total_time_ps = 0;
        std::uint64_t violations = 0;
        double worst_violation_ps = 0;
    };

    /// Grant/integrate/safety pass of one generator over one filled block
    /// (requests of cycles [begin, end)), shared by replay_blocks_impl and
    /// run_fused. On the kernel-table path a stateful generator grants the
    /// block into `granted` (block scratch; unused for the ideal generator)
    /// and the grants take the kernel table's reduce_ideal; under
    /// force_scalar it is the per-cycle reference loop.
    void walk_block(clocking::ClockGenerator* generator, const double* requested,
                    double* granted, std::size_t begin, std::size_t end,
                    RunTotals& totals) const;

    /// Packs one replay's totals into the live engine's result shape.
    DcaRunResult finish(const std::string& policy_name,
                        const clocking::ClockGenerator* generator,
                        const RunTotals& totals) const;

    /// Dispatches to replay_blocks_impl<true/false> per ReplayObsMode (one
    /// branch per run; the cycle loop itself is branch-free either way).
    /// `gather_stages` (optional) describes a fill that is a pure
    /// gather/max over those stage rows; ideal-generator blocks then take
    /// the fused gather_reduce_ideal kernel — one pass, no scratch
    /// round-trip — instead of fill-then-reduce. Same figures either way.
    template <typename FillBlock>
    DcaRunResult replay_blocks(const ClockPolicy& policy, clocking::ClockGenerator* generator,
                               FillBlock&& fill, const GatherStage* gather_stages = nullptr,
                               int gather_stage_count = 0) const;

    template <bool kObs, typename FillBlock>
    DcaRunResult replay_blocks_impl(const ClockPolicy& policy, clocking::ClockGenerator* generator,
                                    FillBlock&& fill, const GatherStage* gather_stages,
                                    int gather_stage_count) const;

    /// Shared kernel of the two-class family (two-class, dual-cycle). On
    /// the kernel-table path the slow-bitmap select is restructured into a
    /// branch-free mask kernel: each stage gets a kKeyCount select row
    /// (slow-or-uncharacterized ? slow_period : fast_period) and the block
    /// fill is the same gather/max-reduce the LUT kernel uses — valid
    /// because slow >= fast makes "any stage slow" and "max over per-stage
    /// selects" the same function. The reference path keeps the hoisted
    /// bitmap + stage-major OR-reduction + two-way select.
    DcaRunResult replay_class_select(const ClockPolicy& policy,
                                     clocking::ClockGenerator* generator, double fast_period_ps,
                                     double slow_period_ps) const;

    /// One block's worth of per-cycle scratch, clamped to the trace length
    /// — the single sizing rule for every scratch buffer (requested- and
    /// granted-period blocks, reference-path any_slow), so block-size-1 runs allocate
    /// exactly one element per buffer. Never zero: .data() must stay
    /// dereferenceable on empty traces.
    std::size_t scratch_cycles() const;

    const sim::PipelineTrace* trace_;
    timing::ScaledTraceDelays delays_;
    const dta::DelayTable* table_;
    ReplayOptions options_;
    /// Kernel table of the block fills: SIMD when available, the portable
    /// scalar table otherwise; nullptr iff force_scalar (the handwritten
    /// reference path).
    const ReplayKernels* kernels_ = nullptr;
    /// Stage-major transpose of the fallback-resolved delay table
    /// (DelayTable::effective is key-major) so each gather reads one
    /// contiguous per-stage value row.
    std::array<std::array<double, dta::kKeyCount>, sim::kStageCount> effective_rows_{};
};

}  // namespace focs::core
