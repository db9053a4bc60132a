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
// implementation. tests/test_replay.cpp pins the identity per policy kind,
// block size and voltage; CI's simd-parity job byte-diffs whole sweeps.
#pragma once

#include <cstddef>
#include <cstdint>

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
