// Block primitives of the replay engine, as a dispatchable kernel table:
// one scalar implementation (the portable fallback) plus, when FOCS_SIMD
// is compiled in and the running CPU supports it, one explicit SIMD
// implementation (AVX2 on x86-64, NEON on aarch64).
//
// A table-driven policy's request is a function of the cycle's stage-key
// tuple, so the engine evaluates it once per distinct tuple of the trace
// (sim::PipelineTrace) and the kernels read per-tuple rows through the
// trace's per-cycle tuple ids: a per-cycle value is the single load
// row[ids[c]]. Every implementation is elementwise byte-identical to the
// scalar reference by construction: the per-element operations are the
// same IEEE doubles in the same per-element order (gather, multiply,
// compare), and the only cross-element reductions — the violation count
// and the worst-violation max — are order-free (integer addition and max
// are associative and commutative over the NaN-free inputs the engine
// feeds them). The one order-sensitive figure, each variant's integrated
// total time, is the strict-cycle-order FP sum in every implementation:
// the reduce kernel runs the totals of several generator variants as
// independent interleaved chains, which reorders nothing within a chain,
// and the AVX2 reduce sums a group of per-tuple rows as exact integer
// steps on each total's ulp grid, falling back to FP adds wherever the
// steps could differ from them.
// The quantized clock generator's grants of per-cycle requests are a
// kernel too (quantize): a vector lane keeps its computed tap only when a
// compare proves it is lower_bound's tap, so a lane is exact or recomputed
// by the scalar quantize_grant. tests/test_replay.cpp pins the identity
// per policy kind, generator, block size and voltage and the reduce per
// variant count; tests/test_clock.cpp pins quantize against lower_bound;
// CI's simd-parity job byte-diffs whole sweeps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "clock/clock_generator.hpp"

namespace focs::core {

/// A QuantizedClockGenerator's taps as the quantize kernels read them,
/// copied once per replay call. The copy starts with a -inf sentinel, so
/// taps()[-1] is readable: the AVX2 kernel loads (taps[k - 1], taps[k]) as
/// one pair for every tap index k, k = 0 included.
class TapLadder {
public:
    explicit TapLadder(const clocking::QuantizedClockGenerator& generator);

    const double* taps() const { return padded_.data() + 1; }  ///< ascending
    std::size_t count() const { return padded_.size() - 1; }   ///< >= 1
    double inv_step() const { return inv_step_; }  ///< 1 / tap spacing; 0 for one tap

private:
    std::vector<double> padded_;  ///< -inf, then the taps
    double inv_step_;
};

/// The quantized generator's grant for one request without a search:
/// k = ceil((r - taps[0]) * inv_step) clamped to [0, count - 1], then
/// compares against taps[k - 1] and taps[k] correct the rounding of that
/// estimate; r above the slowest tap is granted verbatim (stretch).
/// Bit-identical to QuantizedClockGenerator::grant_period_ps (lower_bound)
/// for every double, NaN and infinities included. The one copy of the
/// index estimate: replay grants each trace tuple's request with it, the
/// scalar quantize kernel calls it per cycle, and the SIMD kernels call it
/// for a quad whose vector check fails.
double quantize_grant(const TapLadder& ladder, double requested);

/// Most generator variants one reduce pass interleaves; a longer variant
/// list is reduced in consecutive groups of at most this many.
inline constexpr std::size_t kReduceGroup = 4;

/// One generator variant of a multi-variant reduce: where its grants come
/// from and its running figures, carried from block to block.
struct ReduceVariant {
    /// A per-tuple grant row when `per_tuple` (the grant of cycle c is
    /// grants[ids[c]]), else the block's per-cycle grants (the grant of
    /// cycle begin + i is grants[i]).
    const double* grants = nullptr;
    bool per_tuple = false;
    double total_time_ps = 0;
    std::uint64_t violations = 0;
    double worst_violation_ps = 0;
};

/// Calls group(std::integral_constant<std::size_t, G>{}, first) for each
/// consecutive group of G <= kReduceGroup variants of `variants`, so a
/// reduce implementation keeps one group's accumulators in registers.
template <typename Group>
void for_each_reduce_group(ReduceVariant* variants, std::size_t count, Group&& group) {
    std::size_t v = 0;
    for (; v + kReduceGroup <= count; v += kReduceGroup) {
        group(std::integral_constant<std::size_t, kReduceGroup>{}, variants + v);
    }
    switch (count - v) {
        case 1: group(std::integral_constant<std::size_t, 1>{}, variants + v); break;
        case 2: group(std::integral_constant<std::size_t, 2>{}, variants + v); break;
        case 3: group(std::integral_constant<std::size_t, 3>{}, variants + v); break;
        default: break;
    }
}

/// out[i] = values[ids[begin + i]] for i in [0, count): a per-tuple row
/// as the block's per-cycle values (the requests a stateful generator
/// grants cycle by cycle). The same plain loads serve every ISA, so it is
/// not a kernel table entry.
inline void gather(const double* values, const std::uint32_t* ids, std::size_t begin,
                   std::size_t count, double* out) {
    for (std::size_t i = 0; i < count; ++i) out[i] = values[ids[begin + i]];
}

/// Kernel table resolved once per ReplayEvaluationEngine.
struct ReplayKernels {
    /// out[i] = fl(in[i] * factor), elementwise (genie's requests, the
    /// unit row scaled to the operating point); `in` may alias `out`.
    void (*scale)(const double* in, double factor, std::size_t count, double* out);
    /// out[i] = quantize_grant(ladder, requested[i]): a quantized
    /// generator's grants of per-cycle requests (genie's; a table-driven
    /// policy's taps are granted once per tuple instead). The AVX2 version
    /// estimates four tap indices at once and keeps a lane's tap only when
    /// taps[k - 1] < r <= taps[k] (or r is above the slowest tap); a quad
    /// with any other lane (degenerate spacing, NaN, -inf) is granted by
    /// quantize_grant.
    void (*quantize)(const double* requested, const TapLadder& ladder, std::size_t count,
                     double* out);
    /// Integrate/safety reduction of one block for every generator variant
    /// of a column: per cycle, required = fl(unit[begin + i] * scale) once
    /// per interleave group; each variant's total_time_ps accumulates its
    /// grant in strict cycle order, and a violation counts whenever
    /// fl(grant + tolerance) < required, with worst_violation_ps maxed over
    /// the violating fl(required - grant) deltas. A per-tuple row holds
    /// `tuples` grants, one per id. The totals of a group run as
    /// independent chains (AVX2: a group of per-tuple rows as integer steps
    /// on each total's ulp grid). Bitwise the same figures as a per-variant
    /// scalar loop over the cycles, at any block size and variant count.
    void (*reduce)(ReduceVariant* variants, std::size_t variant_count, const std::uint32_t* ids,
                   std::size_t tuples, const double* unit, double scale, double tolerance,
                   std::size_t begin, std::size_t count);
    /// "scalar" | "avx2" | "neon" — surfaced in the bench artifact.
    const char* name;
};

/// The portable scalar table (plain loops, no intrinsics): the reference
/// the SIMD tables are diffed against, and what force_scalar pins.
const ReplayKernels& scalar_replay_kernels();

/// The SIMD table when FOCS_SIMD was compiled in, the target ISA has an
/// implementation, and (on x86) the running CPU reports AVX2; nullptr
/// otherwise — callers fall back to scalar_replay_kernels().
const ReplayKernels* simd_replay_kernels();

}  // namespace focs::core
