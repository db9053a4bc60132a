// Portable scalar implementation of the replay kernel table. These loops
// are the reference shapes: the SIMD implementations in
// replay_kernels_simd.cpp must be elementwise byte-identical to them (see
// the header for the argument, tests/test_replay.cpp for the proof).
#include "core/replay_kernels.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>

namespace focs::core {
namespace {

void scale_scalar(const double* in, double factor, std::size_t count, double* out) {
    for (std::size_t i = 0; i < count; ++i) out[i] = in[i] * factor;
}

void quantize_scalar(const double* requested, const TapLadder& ladder, std::size_t count,
                     double* out) {
    for (std::size_t i = 0; i < count; ++i) out[i] = quantize_grant(ladder, requested[i]);
}

/// One interleave group of G variants: the totals, counts and worst
/// deltas live in locals, so the G strict-order add chains are
/// independent registers the core retires side by side.
template <std::size_t G>
void reduce_group_scalar(ReduceVariant* group, const std::uint32_t* ids, const double* unit,
                         double scale, double tolerance, std::size_t begin, std::size_t count) {
    std::array<const double*, G> grants{};
    std::array<bool, G> per_tuple{};
    std::array<double, G> total{};
    std::array<std::uint64_t, G> violations{};
    std::array<double, G> worst{};
    for (std::size_t g = 0; g < G; ++g) {
        grants[g] = group[g].grants;
        per_tuple[g] = group[g].per_tuple;
        total[g] = group[g].total_time_ps;
        violations[g] = group[g].violations;
        worst[g] = group[g].worst_violation_ps;
    }
    for (std::size_t i = 0; i < count; ++i) {
        const double required = unit[begin + i] * scale;
        const std::size_t id = ids[begin + i];
        for (std::size_t g = 0; g < G; ++g) {
            const double granted = grants[g][per_tuple[g] ? id : i];
            total[g] += granted;
            if (granted + tolerance < required) {
                ++violations[g];
                worst[g] = std::max(worst[g], required - granted);
            }
        }
    }
    for (std::size_t g = 0; g < G; ++g) {
        group[g].total_time_ps = total[g];
        group[g].violations = violations[g];
        group[g].worst_violation_ps = worst[g];
    }
}

void reduce_scalar(ReduceVariant* variants, std::size_t variant_count, const std::uint32_t* ids,
                   std::size_t /*tuples*/, const double* unit, double scale, double tolerance,
                   std::size_t begin, std::size_t count) {
    for_each_reduce_group(variants, variant_count, [&](auto size, ReduceVariant* group) {
        reduce_group_scalar<decltype(size)::value>(group, ids, unit, scale, tolerance, begin,
                                                   count);
    });
}

constexpr ReplayKernels kScalarKernels = {
    &scale_scalar,
    &quantize_scalar,
    &reduce_scalar,
    "scalar",
};

}  // namespace

TapLadder::TapLadder(const clocking::QuantizedClockGenerator& generator)
    : inv_step_(generator.inv_step()) {
    padded_.reserve(generator.taps().size() + 1);
    padded_.push_back(-std::numeric_limits<double>::infinity());
    padded_.insert(padded_.end(), generator.taps().begin(), generator.taps().end());
}

double quantize_grant(const TapLadder& ladder, double requested) {
    const double* taps = ladder.taps();
    const std::size_t last = ladder.count() - 1;
    const double r = requested;
    if (r > taps[last]) return r;  // beyond slowest tap: stretch
    // The taps are equally spaced up to rounding, so the estimate is the
    // answer or one tap off. The clamp to [0, last] comes before the
    // conversion, so NaN, infinities and requests below the fastest tap
    // (all sent to index 0, as lower_bound does) never reach it; then
    // ceil is the truncation plus one for a fractional part, with no
    // std::ceil call (a branchy sequence at the x86-64 baseline).
    double x = (r - taps[0]) * ladder.inv_step();
    x = x > 0.0 ? x : 0.0;
    const auto top = static_cast<double>(last);
    x = x < top ? x : top;
    const auto truncated = static_cast<std::int64_t>(x);
    std::size_t k = static_cast<std::size_t>(truncated) +
                    static_cast<std::size_t>(x > static_cast<double>(truncated));
    // One compare each way settles the rounding; the loops only run
    // further when the spacing is within a few ulps of the tap values.
    // They stop at taps[k - 1] < r <= taps[k], which is lower_bound's
    // answer (r <= the slowest tap keeps k in range).
    while (k > 0 && taps[k - 1] >= r) --k;
    while (taps[k] < r) ++k;
    return taps[k];
}

const ReplayKernels& scalar_replay_kernels() { return kScalarKernels; }

}  // namespace focs::core
