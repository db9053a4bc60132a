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
// replay_kernels.hpp) holds lane by lane: lanes read the same doubles,
// multiplies and the tolerance add are the same IEEE ops, and the
// violation count / worst-delta reductions are order-free. Each variant's
// integrated total is the strict-cycle-order FP sum of the same grant
// values the vector lanes see: summed by FP adds in cycle order, or (AVX2,
// groups of per-tuple rows) as integer steps on the total's ulp grid that
// provably land on the same double (see reduce_group_avx2). The AVX2
// quantizer keeps a lane's tap only after proving it is lower_bound's (see
// quantize_avx2); any other quad is granted by the scalar quantize_grant.
#include "core/replay_kernels.hpp"

#if defined(FOCS_SIMD_ENABLED) && defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

namespace focs::core {
namespace {

void scale_avx2(const double* in, double factor, std::size_t count, double* out) {
    const __m256d vfactor = _mm256_set1_pd(factor);
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
        _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_loadu_pd(in + i), vfactor));
    }
    for (; i < count; ++i) out[i] = in[i] * factor;
}

void quantize_avx2(const double* requested, const TapLadder& ladder, std::size_t count,
                   double* out) {
    const double* taps = ladder.taps();
    const __m256d vlo = _mm256_set1_pd(taps[0]);
    const __m256d vhi = _mm256_set1_pd(taps[ladder.count() - 1]);
    const __m256d vinv_step = _mm256_set1_pd(ladder.inv_step());
    const __m256d vlast = _mm256_set1_pd(static_cast<double>(ladder.count() - 1));
    const __m256d vzero = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
        const __m256d r = _mm256_loadu_pd(requested + i);
        // quantize_grant's estimate: ceil, then clamp to [0, count - 1]
        // (max_pd returns its second operand for a NaN, so NaN goes to 0).
        const __m256d estimate =
            _mm256_round_pd(_mm256_mul_pd(_mm256_sub_pd(r, vlo), vinv_step),
                            _MM_FROUND_TO_POS_INF | _MM_FROUND_NO_EXC);
        const __m128i k =
            _mm256_cvttpd_epi32(_mm256_min_pd(_mm256_max_pd(estimate, vzero), vlast));
        // One 16-byte load per lane reads the pair (taps[k - 1], taps[k]);
        // taps[-1] is the -inf sentinel. Two unpacks transpose the pairs
        // into `below` and `at`.
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
        _mm256_storeu_pd(out + i, _mm256_blendv_pd(at, r, stretch));
        if (_mm256_movemask_pd(_mm256_or_pd(stretch, on_tap)) != 0xF) {
            for (std::size_t l = i; l < i + 4; ++l) out[l] = quantize_grant(ladder, requested[l]);
        }
    }
    for (; i < count; ++i) out[i] = quantize_grant(ladder, requested[i]);
}

/// Cycles per chunk of the ulp-step integration in reduce_group_avx2: a
/// chunk pays one horizontal sum per variant, and a chunk that fails its
/// check is summed again by FP adds (on a lone LUT replay, 128 beat 32, 64
/// and 256).
constexpr std::size_t kChunkCycles = 128;
/// A variant's tuple cache is (re)built for a binade of its total only when
/// the binade is expected to serve this many cycles per tuple of the row
/// (1, 2, 8 and 16 measured no better).
constexpr double kRebuildCyclesPerTuple = 4.0;
constexpr std::uint64_t kMantissaMask = (std::uint64_t{1} << 52) - 1;
constexpr std::uint64_t kHiddenBit = std::uint64_t{1} << 52;
/// The cached step of a grant that has no exact step on the current grid
/// (a tie, or not in [0, 2^51) ulps, NaN included): one of them pushes a
/// chunk's step sum to 2^53 or past, failing its check, and a chunk of them
/// still sums below 2^64.
constexpr std::uint64_t kNoStep = kHiddenBit << 1;
static_assert(kChunkCycles <= ~std::uint64_t{0} / kNoStep);

/// The ulp grid of a running total T in [2^e, 2^(e+1)): T = n * ulp with
/// ulp = 2^(e - 52) and n in [2^52, 2^53). While a sum stays in that
/// binade, fl(T + g) for g >= 0 is (n + rne(g / ulp)) * ulp: an integer
/// step that does not depend on n, unless g / ulp sits exactly halfway
/// between two integers (the tie goes to the even result, which does).
/// `exact` is false for a total this path does not take (zero, negative,
/// subnormal, huge, NaN or infinite).
struct UlpGrid {
    UlpGrid() = default;
    explicit UlpGrid(double total) : exact(total >= 0x1p-900 && total < 0x1p1000) {
        if (!exact) return;
        const auto bits = std::bit_cast<std::uint64_t>(total);
        binade = bits & ~kMantissaMask;
        n = (bits & kMantissaMask) | kHiddenBit;
    }
    /// 1 / ulp = 2^(52 - e): biased exponent 2098 - biased(e).
    double inv_ulp() const { return std::bit_cast<double>((std::uint64_t{2098} << 52) - binade); }
    /// The exact step of grant g (inv_ulp() passed in), or kNoStep.
    static std::uint64_t step(double g, double inv_ulp) {
        const double x = g * inv_ulp;  // exact: a power-of-two scaling
        // x + 2^52 rounds x to an integer (ties to even) in the low
        // mantissa bits, for x in [0, 2^51).
        const double shifted = x + 0x1p52;
        const double frac = x - (shifted - 0x1p52);
        const bool exact = x >= 0.0 && x < 0x1p51 && frac != 0.5 && frac != -0.5;
        return exact ? std::bit_cast<std::uint64_t>(shifted) - std::bit_cast<std::uint64_t>(0x1p52)
                     : kNoStep;
    }
    /// The total n_end * ulp; needs n_end in [2^52, 2^53).
    double at(std::uint64_t n_end) const {
        return std::bit_cast<double>(binade | (n_end - kHiddenBit));
    }

    bool exact = false;
    std::uint64_t binade = 0;  ///< T's exponent bits; never 0 when exact
    std::uint64_t n = 0;
};

/// pairs[2t] = grants[t], pairs[2t + 1] = the bits of UlpGrid::step(grants[t]),
/// four tuples per vector step.
void build_step_pairs(const double* grants, std::size_t tuples, double inv_ulp, double* pairs) {
    const __m256d vinv_ulp = _mm256_set1_pd(inv_ulp);
    const __m256d vzero = _mm256_setzero_pd();
    const __m256d vtwo51 = _mm256_set1_pd(0x1p51);
    const __m256d vtwo52 = _mm256_set1_pd(0x1p52);
    const __m256d vhalf = _mm256_set1_pd(0.5);
    const __m256d vabs = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
    const __m256i vno_step = _mm256_set1_epi64x(static_cast<long long>(kNoStep));
    std::size_t t = 0;
    for (; t + 4 <= tuples; t += 4) {
        const __m256d g = _mm256_loadu_pd(grants + t);
        const __m256d x = _mm256_mul_pd(g, vinv_ulp);
        const __m256d shifted = _mm256_add_pd(x, vtwo52);
        const __m256d frac = _mm256_and_pd(_mm256_sub_pd(x, _mm256_sub_pd(shifted, vtwo52)), vabs);
        const __m256d exact = _mm256_and_pd(
            _mm256_and_pd(_mm256_cmp_pd(x, vzero, _CMP_GE_OQ),
                          _mm256_cmp_pd(x, vtwo51, _CMP_LT_OQ)),
            _mm256_cmp_pd(frac, vhalf, _CMP_NEQ_UQ));
        const __m256i step =
            _mm256_sub_epi64(_mm256_castpd_si256(shifted), _mm256_castpd_si256(vtwo52));
        const __m256d steps = _mm256_castsi256_pd(
            _mm256_blendv_epi8(vno_step, step, _mm256_castpd_si256(exact)));
        // Interleave (g0 s0 g1 s1 | g2 s2 g3 s3).
        const __m256d lo = _mm256_unpacklo_pd(g, steps);  // g0 s0 | g2 s2
        const __m256d hi = _mm256_unpackhi_pd(g, steps);  // g1 s1 | g3 s3
        _mm256_storeu_pd(pairs + 2 * t, _mm256_permute2f128_pd(lo, hi, 0x20));
        _mm256_storeu_pd(pairs + 2 * t + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
    }
    for (; t < tuples; ++t) {
        pairs[2 * t] = grants[t];
        pairs[2 * t + 1] = std::bit_cast<double>(UlpGrid::step(grants[t], inv_ulp));
    }
}

/// Four cycles' grants of a per-tuple row with a tuple cache: one 16-byte
/// load per cycle reads (grant, step), two unpacks transpose the pairs into
/// the grants (returned) and the steps (added to `vsteps`).
inline __m256d load_stepped_quad(const double* pairs, const std::uint32_t* id, __m256i& vsteps) {
    const __m256d pairs02 = _mm256_insertf128_pd(
        _mm256_castpd128_pd256(_mm_loadu_pd(pairs + 2 * std::size_t{id[0]})),
        _mm_loadu_pd(pairs + 2 * std::size_t{id[2]}), 1);
    const __m256d pairs13 = _mm256_insertf128_pd(
        _mm256_castpd128_pd256(_mm_loadu_pd(pairs + 2 * std::size_t{id[1]})),
        _mm_loadu_pd(pairs + 2 * std::size_t{id[3]}), 1);
    vsteps = _mm256_add_epi64(vsteps, _mm256_castpd_si256(_mm256_unpackhi_pd(pairs02, pairs13)));
    return _mm256_unpacklo_pd(pairs02, pairs13);
}

/// The safety check of four cycles: a lane violates when
/// fl(granted + tolerance) < required.
inline void check_quad(__m256d granted, __m256d required, __m256d vtol,
                       std::uint64_t& violations, __m256d& vworst) {
    const __m256d mask = _mm256_cmp_pd(_mm256_add_pd(granted, vtol), required, _CMP_LT_OQ);
    const int bits = _mm256_movemask_pd(mask);
    if (bits != 0) {
        violations += static_cast<unsigned>(__builtin_popcount(static_cast<unsigned>(bits)));
        // Violating lanes contribute required - granted; others 0.0,
        // absorbed by the max (worst is never negative).
        vworst = _mm256_max_pd(vworst, _mm256_and_pd(mask, _mm256_sub_pd(required, granted)));
    }
}

/// One interleave group of G variants, four cycles per step: the
/// requirement quad is computed once for the group, each variant's four
/// grants are plain loads (at the tuple ids, or from the block's
/// per-cycle grants) and compared as one vector.
///
/// The time integral is the one order-sensitive figure. As FP adds, a
/// variant's total is one dependent chain, bound by the add latency, and
/// the chains of a group are interleaved. A group whose variants all read
/// per-tuple rows can leave the chains altogether (a group that keeps one
/// chain, for per-cycle grants, is bound by it whatever the others do):
/// each total is summed as integer steps on its ulp grid (UlpGrid). A
/// tuple cache, scratch of this call, holds each tuple's (grant, step)
/// pair for the total's current binade, one 16-byte load per cycle reads
/// both, and a chunk of kChunkCycles sums its steps as independent 64-bit
/// lanes. When n + sum < 2^53 every partial sum n_k + g_k / ulp stays
/// below 2^53, so each strict-order FP add would have rounded in the same
/// binade to n_k + step_k: the chunk's total is (n + sum) * ulp, the
/// strict-order FP sum bit for bit. A variant whose chunk fails the check
/// (the total crosses into the next binade, or a tuple has no exact step)
/// sums it again by FP adds in cycle order, as in the scalar reference. A
/// chunk where some variant's binade (or the rest of the call) is too
/// short to pay for building its cache is summed by FP adds throughout.
template <std::size_t G>
void reduce_group_avx2(ReduceVariant* group, const std::uint32_t* ids, std::size_t tuples,
                       const double* unit, double scale, double tolerance, std::size_t begin,
                       std::size_t count) {
    std::array<const double*, G> grants{};
    std::array<bool, G> per_tuple{};
    std::array<double, G> total{};
    std::array<std::uint64_t, G> violations{};
    __m256d vworst[G];
    for (std::size_t g = 0; g < G; ++g) {
        grants[g] = group[g].grants;
        per_tuple[g] = group[g].per_tuple;
        total[g] = group[g].total_time_ps;
        violations[g] = group[g].violations;
        // Worst-violation lanes accumulate by max and merge at the end
        // (order-free); seeding with the carried-in worst keeps the merge a
        // plain horizontal max.
        vworst[g] = _mm256_set1_pd(group[g].worst_violation_ps);
    }
    const auto grant_at = [&](std::size_t g, std::size_t t) {
        return grants[g][per_tuple[g] ? ids[begin + t] : t];
    };
    const __m256d vscale = _mm256_set1_pd(scale);
    const __m256d vtol = _mm256_set1_pd(tolerance);
    // Cycles [from, to), a whole number of quads, by FP adds.
    const auto add_quads = [&](std::size_t from, std::size_t to) {
        for (std::size_t q = from; q < to; q += 4) {
            const __m256d required = _mm256_mul_pd(_mm256_loadu_pd(unit + begin + q), vscale);
            const std::uint32_t* id = ids + begin + q;
            for (std::size_t g = 0; g < G; ++g) {
                const double* row = grants[g];
                double g0, g1, g2, g3;
                if (per_tuple[g]) {
                    g0 = row[id[0]];
                    g1 = row[id[1]];
                    g2 = row[id[2]];
                    g3 = row[id[3]];
                } else {
                    g0 = row[q];
                    g1 = row[q + 1];
                    g2 = row[q + 2];
                    g3 = row[q + 3];
                }
                check_quad(_mm256_set_pd(g3, g2, g1, g0), required, vtol, violations[g],
                           vworst[g]);
                total[g] += g0;
                total[g] += g1;
                total[g] += g2;
                total[g] += g3;
            }
        }
    };
    const std::size_t quads_end = count / 4 * 4;
    // The group's tuple caches: 2 * tuples doubles per variant, grown once
    // per thread and only for a call long enough to build one. A cache
    // holds the binade cache_binade[g] (0: none) and lives for this call.
    const double min_cycles = kRebuildCyclesPerTuple * static_cast<double>(tuples);
    bool rows = static_cast<double>(count) >= min_cycles;
    for (std::size_t g = 0; g < G; ++g) rows = rows && per_tuple[g];
    if (!rows) {
        add_quads(0, quads_end);
    } else {
        thread_local std::vector<double> scratch;
        if (scratch.size() < 2 * G * tuples) scratch.resize(2 * G * tuples);
        std::array<double*, G> pairs{};
        for (std::size_t g = 0; g < G; ++g) pairs[g] = scratch.data() + 2 * g * tuples;
        std::array<std::uint64_t, G> cache_binade{};
        // Whether variant g can sum the chunk at cycle begin + i as cached
        // steps on `grid`: the cache already holds the grid's binade, or the
        // binade and the call should both last long enough to pay for
        // building it. The engine's totals start at 0 on cycle 0, so
        // total / cycles is the mean grant so far and the binade lasts
        // about (2^53 - n) / n * cycles more cycles.
        const auto use_cache = [&](std::size_t g, const UlpGrid& grid, std::size_t i) {
            if (!grid.exact) return false;
            if (cache_binade[g] == grid.binade) return true;
            const double n = static_cast<double>(grid.n);
            const double binade_cycles = (0x1p53 - n) / n * static_cast<double>(begin + i);
            if (std::min(binade_cycles, static_cast<double>(count - i)) < min_cycles) return false;
            build_step_pairs(grants[g], tuples, grid.inv_ulp(), pairs[g]);
            cache_binade[g] = grid.binade;
            return true;
        };
        for (std::size_t i = 0; i < quads_end;) {
            const std::size_t end = std::min(i + kChunkCycles, quads_end);
            std::array<UlpGrid, G> grid;
            bool stepped = true;
            for (std::size_t g = 0; g < G; ++g) {
                grid[g] = UlpGrid(total[g]);
                stepped = stepped && use_cache(g, grid[g], i);
            }
            if (!stepped) {
                add_quads(i, end);
                i = end;
                continue;
            }
            __m256i vsteps[G];
            for (std::size_t g = 0; g < G; ++g) vsteps[g] = _mm256_setzero_si256();
            for (std::size_t q = i; q < end; q += 4) {
                const __m256d required = _mm256_mul_pd(_mm256_loadu_pd(unit + begin + q), vscale);
                const std::uint32_t* id = ids + begin + q;
                for (std::size_t g = 0; g < G; ++g) {
                    check_quad(load_stepped_quad(pairs[g], id, vsteps[g]), required, vtol,
                               violations[g], vworst[g]);
                }
            }
            for (std::size_t g = 0; g < G; ++g) {
                alignas(32) std::uint64_t lanes[4];
                _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vsteps[g]);
                const std::uint64_t steps = lanes[0] + lanes[1] + lanes[2] + lanes[3];
                if (grid[g].n + steps < 2 * kHiddenBit) {
                    total[g] = grid[g].at(grid[g].n + steps);
                } else {
                    for (std::size_t t = i; t < end; ++t) total[g] += grant_at(g, t);
                }
            }
            i = end;
        }
    }
    for (std::size_t g = 0; g < G; ++g) {
        alignas(32) double lanes[4];
        _mm256_store_pd(lanes, vworst[g]);
        double worst = std::max(std::max(lanes[0], lanes[1]), std::max(lanes[2], lanes[3]));
        for (std::size_t t = quads_end; t < count; ++t) {
            const double granted = grant_at(g, t);
            total[g] += granted;
            const double required = unit[begin + t] * scale;
            if (granted + tolerance < required) {
                ++violations[g];
                worst = std::max(worst, required - granted);
            }
        }
        group[g].total_time_ps = total[g];
        group[g].violations = violations[g];
        group[g].worst_violation_ps = worst;
    }
}

void reduce_avx2(ReduceVariant* variants, std::size_t variant_count, const std::uint32_t* ids,
                 std::size_t tuples, const double* unit, double scale, double tolerance,
                 std::size_t begin, std::size_t count) {
    for_each_reduce_group(variants, variant_count, [&](auto size, ReduceVariant* group) {
        reduce_group_avx2<decltype(size)::value>(group, ids, tuples, unit, scale, tolerance,
                                                 begin, count);
    });
}

}  // namespace

const ReplayKernels* simd_replay_kernels() {
    static const bool supported = __builtin_cpu_supports("avx2") != 0;
    static const ReplayKernels kAvx2Kernels = {
        &scale_avx2,
        &quantize_avx2,
        &reduce_avx2,
        "avx2",
    };
    return supported ? &kAvx2Kernels : nullptr;
}

}  // namespace focs::core

#elif defined(FOCS_SIMD_ENABLED) && defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>
#include <array>

namespace focs::core {
namespace {

void scale_neon(const double* in, double factor, std::size_t count, double* out) {
    const float64x2_t vfactor = vdupq_n_f64(factor);
    std::size_t i = 0;
    for (; i + 2 <= count; i += 2) {
        vst1q_f64(out + i, vmulq_f64(vld1q_f64(in + i), vfactor));
    }
    for (; i < count; ++i) out[i] = in[i] * factor;
}

/// One interleave group of G variants, two cycles per step (see
/// reduce_group_avx2 for the shape).
template <std::size_t G>
void reduce_group_neon(ReduceVariant* group, const std::uint32_t* ids, const double* unit,
                       double scale, double tolerance, std::size_t begin, std::size_t count) {
    std::array<const double*, G> grants{};
    std::array<bool, G> per_tuple{};
    std::array<double, G> total{};
    std::array<std::uint64_t, G> violations{};
    float64x2_t vworst[G];
    for (std::size_t g = 0; g < G; ++g) {
        grants[g] = group[g].grants;
        per_tuple[g] = group[g].per_tuple;
        total[g] = group[g].total_time_ps;
        violations[g] = group[g].violations;
        vworst[g] = vdupq_n_f64(group[g].worst_violation_ps);
    }
    const float64x2_t vscale = vdupq_n_f64(scale);
    const float64x2_t vtol = vdupq_n_f64(tolerance);
    std::size_t i = 0;
    for (; i + 2 <= count; i += 2) {
        const float64x2_t required = vmulq_f64(vld1q_f64(unit + begin + i), vscale);
        const std::uint32_t* id = ids + begin + i;
        for (std::size_t g = 0; g < G; ++g) {
            const double* row = grants[g];
            const bool by_id = per_tuple[g];
            const double g0 = row[by_id ? id[0] : i];
            const double g1 = row[by_id ? id[1] : i + 1];
            // No hardware gather on NEON: two scalar loads per vector.
            const float64x2_t granted = vsetq_lane_f64(g1, vdupq_n_f64(g0), 1);
            const uint64x2_t mask = vcltq_f64(vaddq_f64(granted, vtol), required);
            if ((vgetq_lane_u64(mask, 0) | vgetq_lane_u64(mask, 1)) != 0) {
                violations[g] += (vgetq_lane_u64(mask, 0) >> 63) + (vgetq_lane_u64(mask, 1) >> 63);
                const float64x2_t delta = vreinterpretq_f64_u64(
                    vandq_u64(mask, vreinterpretq_u64_f64(vsubq_f64(required, granted))));
                vworst[g] = vmaxq_f64(vworst[g], delta);
            }
            total[g] += g0;
            total[g] += g1;
        }
    }
    for (std::size_t g = 0; g < G; ++g) {
        double worst = std::max(vgetq_lane_f64(vworst[g], 0), vgetq_lane_f64(vworst[g], 1));
        for (std::size_t t = i; t < count; ++t) {
            const double granted = grants[g][per_tuple[g] ? ids[begin + t] : t];
            total[g] += granted;
            const double required = unit[begin + t] * scale;
            if (granted + tolerance < required) {
                ++violations[g];
                worst = std::max(worst, required - granted);
            }
        }
        group[g].total_time_ps = total[g];
        group[g].violations = violations[g];
        group[g].worst_violation_ps = worst;
    }
}

void reduce_neon(ReduceVariant* variants, std::size_t variant_count, const std::uint32_t* ids,
                 std::size_t /*tuples*/, const double* unit, double scale, double tolerance,
                 std::size_t begin, std::size_t count) {
    for_each_reduce_group(variants, variant_count, [&](auto size, ReduceVariant* group) {
        reduce_group_neon<decltype(size)::value>(group, ids, unit, scale, tolerance, begin,
                                                 count);
    });
}

}  // namespace

const ReplayKernels* simd_replay_kernels() {
    // No NEON quantizer: quantize is the scalar table's kernel.
    static const ReplayKernels kNeonKernels = {
        &scale_neon,
        scalar_replay_kernels().quantize,
        &reduce_neon,
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
