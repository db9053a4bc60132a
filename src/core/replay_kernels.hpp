// Block-fill primitives of the replay engine, as a dispatchable kernel
// table: one scalar implementation (the portable fallback) plus, when
// FOCS_SIMD is compiled in and the running CPU supports it, one explicit
// SIMD implementation (AVX2 on x86-64, NEON on aarch64).
//
// Every implementation is elementwise byte-identical to the scalar
// reference by construction: the per-element operations are the same IEEE
// doubles in the same per-element order (gather, multiply, compare), and
// the only cross-element reductions — the per-cycle max over stages, the
// violation count, and the worst-violation max — are order-free (max and
// integer addition are associative and commutative over the NaN-free
// inputs the engine feeds them). The one order-sensitive figure, the
// integrated total time, is summed in strict cycle order by every
// implementation. The quantized clock generator's grants are a kernel
// too (quantize_reduce): a vector lane keeps its computed tap only when a
// compare proves it is lower_bound's tap, so a lane is exact or recomputed
// by the scalar quantize_grant. tests/test_replay.cpp pins the identity
// per policy kind, generator, block size and voltage, tests/test_clock.cpp
// pins quantize_reduce against lower_bound; CI's simd-parity job
// byte-diffs whole sweeps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "clock/clock_generator.hpp"
#include "dta/delay_table.hpp"

namespace focs::core {

/// One stage's contribution to a gather/max fill: the stage's full-trace
/// occupancy-key row (indexed by absolute cycle) and a kKeyCount-entry
/// value row. The value row is what makes the kernel shared: the LUT fill
/// gathers fallback-resolved delays, the ex-only fill a floor-folded
/// single-stage row, and the two-class/dual-cycle mask kernel a per-stage
/// select row (slow ? slow_period : fast_period) — turning the slow-bitmap
/// OR-reduction into the same branch-free gather/max.
struct GatherStage {
    const dta::OccKey* keys = nullptr;
    const double* values = nullptr;
};

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
/// index estimate: the scalar quantize_reduce inlines it, and the SIMD
/// kernels call it for a quad whose vector check fails.
double quantize_grant(const TapLadder& ladder, double requested);

/// Kernel table resolved once per ReplayEvaluationEngine.
struct ReplayKernels {
    /// out[i] = max over s of stages[s].values[stages[s].keys[begin + i]]
    /// for i in [0, count). Zero-initialized accumulator, stages maxed in
    /// ascending order per element (order-free: max commutes).
    void (*gather_max)(const GatherStage* stages, int stage_count, std::size_t begin,
                       std::size_t count, double* out);
    /// out[i] = fl(in[i] * factor), elementwise; `in` may alias `out`
    /// (the genie fill and the approx-lut compression multiply).
    void (*scale)(const double* in, double factor, std::size_t count, double* out);
    /// Integrate/safety reduction of one block of granted periods (the
    /// requests themselves for the ideal generator, a stateful generator's
    /// grant_block output otherwise): *total accumulates granted[i] in
    /// strict cycle order; a violation whenever fl(granted[i] + tolerance)
    /// < fl(unit[begin+i] * scale), with *worst maxed over the violating
    /// fl(required - granted) deltas. Bitwise the same figures as the
    /// scalar per-cycle loop at any block size.
    void (*reduce_ideal)(const double* granted, const double* unit, double scale,
                         double tolerance, std::size_t begin, std::size_t count, double* total,
                         std::uint64_t* violations, double* worst);
    /// Fused gather_max + reduce_ideal in one pass, for ideal-generator
    /// blocks whose fill is a pure gather (LUT, ex-only, the two-class
    /// mask select): per element the gathered max feeds the strict-order
    /// total and the safety check directly, with no scratch round-trip.
    /// Identical figures to gather_max into a buffer followed by
    /// reduce_ideal — same per-element operations in the same order — but
    /// the independent gather chains overlap the serial FADD chain of the
    /// time integral instead of running as a separate memory pass.
    void (*gather_reduce_ideal)(const GatherStage* stages, int stage_count, const double* unit,
                                double scale, double tolerance, std::size_t begin,
                                std::size_t count, double* total, std::uint64_t* violations,
                                double* worst);
    /// A quantized generator's grants fused with reduce_ideal in one call:
    /// each requested[i] is ceiled to its tap and the grant takes the
    /// strict-order total and the safety check, with no block-sized grant
    /// array in between. Identical figures to quantize_grant per cycle into
    /// a buffer followed by reduce_ideal. The AVX2 version estimates four
    /// tap indices at once and keeps a lane's tap only when
    /// taps[k - 1] < r <= taps[k] (or r is above the slowest tap); a quad
    /// with any other lane (degenerate spacing, NaN, -inf) is granted by
    /// quantize_grant.
    void (*quantize_reduce)(const double* requested, const TapLadder& ladder, const double* unit,
                            double scale, double tolerance, std::size_t begin, std::size_t count,
                            double* total, std::uint64_t* violations, double* worst);
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
