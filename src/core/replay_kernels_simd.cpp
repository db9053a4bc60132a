// Explicit SIMD implementations of the replay kernel table.
//
// This translation unit is the only one built with ISA-specific flags
// (CMake applies -mavx2 as a source-file property on x86-64; aarch64 has
// NEON in its baseline), so vector codegen never leaks into TUs that must
// run on the portable baseline. Selection is layered:
//   compile time — FOCS_SIMD_ENABLED (the FOCS_SIMD CMake option) plus the
//     ISA predicate (__AVX2__ / __aarch64__); anything else compiles this
//     TU down to a nullptr-returning stub, which is what the CI simd-parity
//     job byte-diffs against the default build;
//   run time — on x86 the AVX2 table is handed out only when the running
//     CPU reports AVX2 (__builtin_cpu_supports), so a generic binary is
//     safe on older cores;
//   per engine — ReplayOptions::force_scalar (CLI --no-simd) skips this
//     table and pins the portable scalar table, the reference these
//     kernels are diffed against.
//
// Byte-identity with the scalar kernels (the contract in
// replay_kernels.hpp) holds lane by lane: gathers read the same doubles,
// _mm256_max_pd / vmaxq_f64 over NaN-free non-negative inputs equals the
// reference's compare-and-replace, multiplies and the tolerance add are
// the same IEEE ops, and the violation count / worst-delta reductions are
// order-free. The integrated total is summed in strict cycle order from
// the same requested[] values the vector lanes see. The AVX2 quantizer
// keeps a lane's tap only after proving it is lower_bound's (see
// quantize_reduce_avx2); any other quad is granted by the scalar
// quantize_grant.
#include "core/replay_kernels.hpp"

#if defined(FOCS_SIMD_ENABLED) && defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>

namespace focs::core {
namespace {

// Four-key gather from one stage's value row, built from scalar loads:
// vgatherdpd is microcoded on the AMD cores this project benches on
// (several times the cost of four plain loads), while four vmovsd plus
// three shuffles sustain the load-port throughput on every AVX2 core.
// Identical lane values either way — these are the same doubles the
// scalar reference reads.
inline __m256d gather4_pd(const double* values, const dta::OccKey* row) {
    return _mm256_set_pd(values[static_cast<std::size_t>(row[3])],
                         values[static_cast<std::size_t>(row[2])],
                         values[static_cast<std::size_t>(row[1])],
                         values[static_cast<std::size_t>(row[0])]);
}

void gather_max_avx2(const GatherStage* stages, int stage_count, std::size_t begin,
                     std::size_t count, double* out) {
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
        __m256d acc = _mm256_setzero_pd();
        for (int s = 0; s < stage_count; ++s) {
            acc = _mm256_max_pd(acc, gather4_pd(stages[s].values, stages[s].keys + begin + i));
        }
        _mm256_storeu_pd(out + i, acc);
    }
    for (; i < count; ++i) {
        double m = 0.0;
        for (int s = 0; s < stage_count; ++s) {
            const double d = stages[s].values[static_cast<std::size_t>(stages[s].keys[begin + i])];
            if (d > m) m = d;
        }
        out[i] = m;
    }
}

void scale_avx2(const double* in, double factor, std::size_t count, double* out) {
    const __m256d vfactor = _mm256_set1_pd(factor);
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
        _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_loadu_pd(in + i), vfactor));
    }
    for (; i < count; ++i) out[i] = in[i] * factor;
}

void reduce_ideal_avx2(const double* requested, const double* unit, double scale,
                       double tolerance, std::size_t begin, std::size_t count, double* total,
                       std::uint64_t* violations, double* worst) {
    double total_time_ps = *total;
    std::uint64_t violation_count = *violations;
    double worst_violation_ps = *worst;
    const __m256d vscale = _mm256_set1_pd(scale);
    const __m256d vtol = _mm256_set1_pd(tolerance);
    // Worst-violation lanes accumulate by max and merge at the end
    // (order-free); seeding with the carried-in worst keeps the merge a
    // plain horizontal max.
    __m256d vworst = _mm256_set1_pd(worst_violation_ps);
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
        const __m256d granted = _mm256_loadu_pd(requested + i);
        const __m256d required =
            _mm256_mul_pd(_mm256_loadu_pd(unit + begin + i), vscale);
        const __m256d mask =
            _mm256_cmp_pd(_mm256_add_pd(granted, vtol), required, _CMP_LT_OQ);
        const int bits = _mm256_movemask_pd(mask);
        if (bits != 0) {
            violation_count += static_cast<unsigned>(__builtin_popcount(static_cast<unsigned>(bits)));
            // Violating lanes contribute required - granted; others 0.0,
            // absorbed by the max (worst is never negative).
            vworst = _mm256_max_pd(
                vworst, _mm256_and_pd(mask, _mm256_sub_pd(required, granted)));
        }
        // The integrated time is the one order-sensitive reduction: strict
        // cycle order, same as the scalar reference.
        total_time_ps += requested[i];
        total_time_ps += requested[i + 1];
        total_time_ps += requested[i + 2];
        total_time_ps += requested[i + 3];
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, vworst);
    worst_violation_ps = std::max(std::max(lanes[0], lanes[1]), std::max(lanes[2], lanes[3]));
    for (; i < count; ++i) {
        const double granted = requested[i];
        total_time_ps += granted;
        const double required = unit[begin + i] * scale;
        if (granted + tolerance < required) {
            ++violation_count;
            worst_violation_ps = std::max(worst_violation_ps, required - granted);
        }
    }
    *total = total_time_ps;
    *violations = violation_count;
    *worst = worst_violation_ps;
}

void gather_reduce_ideal_avx2(const GatherStage* stages, int stage_count, const double* unit,
                              double scale, double tolerance, std::size_t begin,
                              std::size_t count, double* total, std::uint64_t* violations,
                              double* worst) {
    double total_time_ps = *total;
    std::uint64_t violation_count = *violations;
    double worst_violation_ps = *worst;
    const __m256d vscale = _mm256_set1_pd(scale);
    const __m256d vtol = _mm256_set1_pd(tolerance);
    __m256d vworst = _mm256_set1_pd(worst_violation_ps);
    // Strict cycle order for the time integral: extract the lanes with
    // register shuffles (no store/reload round-trip) and chain the adds
    // serially — same values in the same order as the scalar reference.
    const auto add_lanes_in_order = [&total_time_ps](__m256d v) {
        const __m128d lo = _mm256_castpd256_pd128(v);
        const __m128d hi = _mm256_extractf128_pd(v, 1);
        total_time_ps += _mm_cvtsd_f64(lo);
        total_time_ps += _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo));
        total_time_ps += _mm_cvtsd_f64(hi);
        total_time_ps += _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi));
    };
    std::size_t i = 0;
    // 8-wide main loop (two independent accumulators): the serial add
    // chain is the latency bound, and a deeper iteration gives the
    // out-of-order core eight elements' worth of independent gathers,
    // maxes and compares to retire under it.
    for (; i + 8 <= count; i += 8) {
        __m256d g0 = _mm256_setzero_pd();
        __m256d g1 = _mm256_setzero_pd();
        for (int s = 0; s < stage_count; ++s) {
            const dta::OccKey* row = stages[s].keys + begin + i;
            const double* values = stages[s].values;
            g0 = _mm256_max_pd(g0, gather4_pd(values, row));
            g1 = _mm256_max_pd(g1, gather4_pd(values, row + 4));
        }
        const __m256d r0 = _mm256_mul_pd(_mm256_loadu_pd(unit + begin + i), vscale);
        const __m256d r1 = _mm256_mul_pd(_mm256_loadu_pd(unit + begin + i + 4), vscale);
        const __m256d m0 = _mm256_cmp_pd(_mm256_add_pd(g0, vtol), r0, _CMP_LT_OQ);
        const __m256d m1 = _mm256_cmp_pd(_mm256_add_pd(g1, vtol), r1, _CMP_LT_OQ);
        const int bits =
            _mm256_movemask_pd(m0) | (_mm256_movemask_pd(m1) << 4);
        if (bits != 0) {
            violation_count += static_cast<unsigned>(__builtin_popcount(static_cast<unsigned>(bits)));
            vworst = _mm256_max_pd(vworst, _mm256_and_pd(m0, _mm256_sub_pd(r0, g0)));
            vworst = _mm256_max_pd(vworst, _mm256_and_pd(m1, _mm256_sub_pd(r1, g1)));
        }
        add_lanes_in_order(g0);
        add_lanes_in_order(g1);
    }
    for (; i + 4 <= count; i += 4) {
        __m256d granted = _mm256_setzero_pd();
        for (int s = 0; s < stage_count; ++s) {
            granted =
                _mm256_max_pd(granted, gather4_pd(stages[s].values, stages[s].keys + begin + i));
        }
        const __m256d required =
            _mm256_mul_pd(_mm256_loadu_pd(unit + begin + i), vscale);
        const __m256d mask =
            _mm256_cmp_pd(_mm256_add_pd(granted, vtol), required, _CMP_LT_OQ);
        const int bits = _mm256_movemask_pd(mask);
        if (bits != 0) {
            violation_count += static_cast<unsigned>(__builtin_popcount(static_cast<unsigned>(bits)));
            vworst = _mm256_max_pd(
                vworst, _mm256_and_pd(mask, _mm256_sub_pd(required, granted)));
        }
        add_lanes_in_order(granted);
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, vworst);
    worst_violation_ps = std::max(std::max(lanes[0], lanes[1]), std::max(lanes[2], lanes[3]));
    for (; i < count; ++i) {
        double granted = 0.0;
        for (int s = 0; s < stage_count; ++s) {
            const double d = stages[s].values[static_cast<std::size_t>(stages[s].keys[begin + i])];
            if (d > granted) granted = d;
        }
        total_time_ps += granted;
        const double required = unit[begin + i] * scale;
        if (granted + tolerance < required) {
            ++violation_count;
            worst_violation_ps = std::max(worst_violation_ps, required - granted);
        }
    }
    *total = total_time_ps;
    *violations = violation_count;
    *worst = worst_violation_ps;
}

void quantize_reduce_avx2(const double* requested, const TapLadder& ladder, const double* unit,
                          double scale, double tolerance, std::size_t begin, std::size_t count,
                          double* total, std::uint64_t* violations, double* worst) {
    double total_time_ps = *total;
    std::uint64_t violation_count = *violations;
    double worst_violation_ps = *worst;
    const double* taps = ladder.taps();
    const __m256d vlo = _mm256_set1_pd(taps[0]);
    const __m256d vhi = _mm256_set1_pd(taps[ladder.count() - 1]);
    const __m256d vinv_step = _mm256_set1_pd(ladder.inv_step());
    const __m256d vlast = _mm256_set1_pd(static_cast<double>(ladder.count() - 1));
    const __m256d vzero = _mm256_setzero_pd();
    const __m256d vscale = _mm256_set1_pd(scale);
    const __m256d vtol = _mm256_set1_pd(tolerance);
    __m256d vworst = _mm256_set1_pd(worst_violation_ps);
    // Two passes per chunk of quads. The grant pass has no loop-carried
    // dependency, so the long estimate -> index -> load chains of many
    // quads overlap; fed straight into the serial time-integral adds they
    // would stall it. The reduce pass is reduce_ideal's, over the chunk.
    constexpr std::size_t kChunk = 32;
    alignas(32) double grants[kChunk];
    const std::size_t vector_end = count & ~std::size_t{3};
    std::size_t i = 0;
    while (i < vector_end) {
        const std::size_t n = std::min(kChunk, vector_end - i);
        for (std::size_t j = 0; j < n; j += 4) {
            const __m256d r = _mm256_loadu_pd(requested + i + j);
            // quantize_grant's estimate: ceil, then clamp to [0, count - 1]
            // (max_pd returns its second operand for a NaN, so NaN goes
            // to 0).
            const __m256d estimate =
                _mm256_round_pd(_mm256_mul_pd(_mm256_sub_pd(r, vlo), vinv_step),
                                _MM_FROUND_TO_POS_INF | _MM_FROUND_NO_EXC);
            const __m128i k =
                _mm256_cvttpd_epi32(_mm256_min_pd(_mm256_max_pd(estimate, vzero), vlast));
            // One 16-byte load per lane reads the pair (taps[k - 1],
            // taps[k]); taps[-1] is the -inf sentinel. Two unpacks
            // transpose the pairs into `below` and `at`.
            const __m256d pairs02 = _mm256_insertf128_pd(
                _mm256_castpd128_pd256(_mm_loadu_pd(taps + _mm_cvtsi128_si32(k) - 1)),
                _mm_loadu_pd(taps + _mm_extract_epi32(k, 2) - 1), 1);
            const __m256d pairs13 = _mm256_insertf128_pd(
                _mm256_castpd128_pd256(_mm_loadu_pd(taps + _mm_extract_epi32(k, 1) - 1)),
                _mm_loadu_pd(taps + _mm_extract_epi32(k, 3) - 1), 1);
            const __m256d below = _mm256_unpacklo_pd(pairs02, pairs13);
            const __m256d at = _mm256_unpackhi_pd(pairs02, pairs13);
            // A lane is exact when it stretches (r above the slowest tap) or
            // taps[k - 1] < r <= taps[k] — lower_bound's tap, whatever the
            // rounding of the estimate. NaN fails both.
            const __m256d stretch = _mm256_cmp_pd(r, vhi, _CMP_GT_OQ);
            const __m256d on_tap = _mm256_and_pd(_mm256_cmp_pd(below, r, _CMP_LT_OQ),
                                                 _mm256_cmp_pd(r, at, _CMP_LE_OQ));
            _mm256_store_pd(grants + j, _mm256_blendv_pd(at, r, stretch));
            if (_mm256_movemask_pd(_mm256_or_pd(stretch, on_tap)) != 0xF) {
                for (std::size_t l = j; l < j + 4; ++l) {
                    grants[l] = quantize_grant(ladder, requested[i + l]);
                }
            }
        }
        for (std::size_t j = 0; j < n; j += 4) {
            const __m256d granted = _mm256_load_pd(grants + j);
            const __m256d required =
                _mm256_mul_pd(_mm256_loadu_pd(unit + begin + i + j), vscale);
            const __m256d mask =
                _mm256_cmp_pd(_mm256_add_pd(granted, vtol), required, _CMP_LT_OQ);
            const int bits = _mm256_movemask_pd(mask);
            if (bits != 0) {
                violation_count +=
                    static_cast<unsigned>(__builtin_popcount(static_cast<unsigned>(bits)));
                vworst =
                    _mm256_max_pd(vworst, _mm256_and_pd(mask, _mm256_sub_pd(required, granted)));
            }
            total_time_ps += grants[j];
            total_time_ps += grants[j + 1];
            total_time_ps += grants[j + 2];
            total_time_ps += grants[j + 3];
        }
        i += n;
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, vworst);
    worst_violation_ps = std::max(std::max(lanes[0], lanes[1]), std::max(lanes[2], lanes[3]));
    for (; i < count; ++i) {
        const double granted = quantize_grant(ladder, requested[i]);
        total_time_ps += granted;
        const double required = unit[begin + i] * scale;
        if (granted + tolerance < required) {
            ++violation_count;
            worst_violation_ps = std::max(worst_violation_ps, required - granted);
        }
    }
    *total = total_time_ps;
    *violations = violation_count;
    *worst = worst_violation_ps;
}

constexpr ReplayKernels kAvx2Kernels = {
    &gather_max_avx2,
    &scale_avx2,
    &reduce_ideal_avx2,
    &gather_reduce_ideal_avx2,
    &quantize_reduce_avx2,
    "avx2",
};

}  // namespace

const ReplayKernels* simd_replay_kernels() {
    static const bool supported = __builtin_cpu_supports("avx2") != 0;
    return supported ? &kAvx2Kernels : nullptr;
}

}  // namespace focs::core

#elif defined(FOCS_SIMD_ENABLED) && defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>

namespace focs::core {
namespace {

void gather_max_neon(const GatherStage* stages, int stage_count, std::size_t begin,
                     std::size_t count, double* out) {
    std::size_t i = 0;
    for (; i + 2 <= count; i += 2) {
        float64x2_t acc = vdupq_n_f64(0.0);
        for (int s = 0; s < stage_count; ++s) {
            const dta::OccKey* row = stages[s].keys + begin + i;
            const double* values = stages[s].values;
            // No hardware gather on NEON: two scalar loads per vector.
            float64x2_t v = vdupq_n_f64(values[static_cast<std::size_t>(row[0])]);
            v = vsetq_lane_f64(values[static_cast<std::size_t>(row[1])], v, 1);
            acc = vmaxq_f64(acc, v);
        }
        vst1q_f64(out + i, acc);
    }
    for (; i < count; ++i) {
        double m = 0.0;
        for (int s = 0; s < stage_count; ++s) {
            const double d = stages[s].values[static_cast<std::size_t>(stages[s].keys[begin + i])];
            if (d > m) m = d;
        }
        out[i] = m;
    }
}

void scale_neon(const double* in, double factor, std::size_t count, double* out) {
    const float64x2_t vfactor = vdupq_n_f64(factor);
    std::size_t i = 0;
    for (; i + 2 <= count; i += 2) {
        vst1q_f64(out + i, vmulq_f64(vld1q_f64(in + i), vfactor));
    }
    for (; i < count; ++i) out[i] = in[i] * factor;
}

void reduce_ideal_neon(const double* requested, const double* unit, double scale,
                       double tolerance, std::size_t begin, std::size_t count, double* total,
                       std::uint64_t* violations, double* worst) {
    double total_time_ps = *total;
    std::uint64_t violation_count = *violations;
    double worst_violation_ps = *worst;
    const float64x2_t vscale = vdupq_n_f64(scale);
    const float64x2_t vtol = vdupq_n_f64(tolerance);
    float64x2_t vworst = vdupq_n_f64(worst_violation_ps);
    std::size_t i = 0;
    for (; i + 2 <= count; i += 2) {
        const float64x2_t granted = vld1q_f64(requested + i);
        const float64x2_t required = vmulq_f64(vld1q_f64(unit + begin + i), vscale);
        const uint64x2_t mask = vcltq_f64(vaddq_f64(granted, vtol), required);
        if ((vgetq_lane_u64(mask, 0) | vgetq_lane_u64(mask, 1)) != 0) {
            violation_count += (vgetq_lane_u64(mask, 0) >> 63) + (vgetq_lane_u64(mask, 1) >> 63);
            const float64x2_t delta = vreinterpretq_f64_u64(
                vandq_u64(mask, vreinterpretq_u64_f64(vsubq_f64(required, granted))));
            vworst = vmaxq_f64(vworst, delta);
        }
        total_time_ps += requested[i];
        total_time_ps += requested[i + 1];
    }
    worst_violation_ps = std::max(vgetq_lane_f64(vworst, 0), vgetq_lane_f64(vworst, 1));
    for (; i < count; ++i) {
        const double granted = requested[i];
        total_time_ps += granted;
        const double required = unit[begin + i] * scale;
        if (granted + tolerance < required) {
            ++violation_count;
            worst_violation_ps = std::max(worst_violation_ps, required - granted);
        }
    }
    *total = total_time_ps;
    *violations = violation_count;
    *worst = worst_violation_ps;
}

void gather_reduce_ideal_neon(const GatherStage* stages, int stage_count, const double* unit,
                              double scale, double tolerance, std::size_t begin,
                              std::size_t count, double* total, std::uint64_t* violations,
                              double* worst) {
    double total_time_ps = *total;
    std::uint64_t violation_count = *violations;
    double worst_violation_ps = *worst;
    const float64x2_t vscale = vdupq_n_f64(scale);
    const float64x2_t vtol = vdupq_n_f64(tolerance);
    float64x2_t vworst = vdupq_n_f64(worst_violation_ps);
    std::size_t i = 0;
    for (; i + 2 <= count; i += 2) {
        float64x2_t granted = vdupq_n_f64(0.0);
        for (int s = 0; s < stage_count; ++s) {
            const dta::OccKey* row = stages[s].keys + begin + i;
            const double* values = stages[s].values;
            float64x2_t v = vdupq_n_f64(values[static_cast<std::size_t>(row[0])]);
            v = vsetq_lane_f64(values[static_cast<std::size_t>(row[1])], v, 1);
            granted = vmaxq_f64(granted, v);
        }
        const float64x2_t required = vmulq_f64(vld1q_f64(unit + begin + i), vscale);
        const uint64x2_t mask = vcltq_f64(vaddq_f64(granted, vtol), required);
        if ((vgetq_lane_u64(mask, 0) | vgetq_lane_u64(mask, 1)) != 0) {
            violation_count += (vgetq_lane_u64(mask, 0) >> 63) + (vgetq_lane_u64(mask, 1) >> 63);
            const float64x2_t delta = vreinterpretq_f64_u64(
                vandq_u64(mask, vreinterpretq_u64_f64(vsubq_f64(required, granted))));
            vworst = vmaxq_f64(vworst, delta);
        }
        total_time_ps += vgetq_lane_f64(granted, 0);
        total_time_ps += vgetq_lane_f64(granted, 1);
    }
    worst_violation_ps = std::max(worst_violation_ps,
                                  std::max(vgetq_lane_f64(vworst, 0), vgetq_lane_f64(vworst, 1)));
    for (; i < count; ++i) {
        double granted = 0.0;
        for (int s = 0; s < stage_count; ++s) {
            const double d = stages[s].values[static_cast<std::size_t>(stages[s].keys[begin + i])];
            if (d > granted) granted = d;
        }
        total_time_ps += granted;
        const double required = unit[begin + i] * scale;
        if (granted + tolerance < required) {
            ++violation_count;
            worst_violation_ps = std::max(worst_violation_ps, required - granted);
        }
    }
    *total = total_time_ps;
    *violations = violation_count;
    *worst = worst_violation_ps;
}

}  // namespace

const ReplayKernels* simd_replay_kernels() {
    // No NEON quantizer: quantize_reduce is the scalar table's kernel.
    static const ReplayKernels kNeonKernels = {
        &gather_max_neon,
        &scale_neon,
        &reduce_ideal_neon,
        &gather_reduce_ideal_neon,
        scalar_replay_kernels().quantize_reduce,
        "neon",
    };
    return &kNeonKernels;
}

}  // namespace focs::core

#else  // FOCS_SIMD disabled or no SIMD implementation for this target.

namespace focs::core {

const ReplayKernels* simd_replay_kernels() { return nullptr; }

}  // namespace focs::core

#endif
