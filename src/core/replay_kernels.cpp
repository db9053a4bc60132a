// Portable scalar implementation of the replay kernel table. These loops
// are the reference shapes: the SIMD implementations in
// replay_kernels_simd.cpp must be elementwise byte-identical to them (see
// the header for the argument, tests/test_replay.cpp for the proof).
#include "core/replay_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/cycle_record.hpp"

namespace focs::core {
namespace {

void gather_max_scalar(const GatherStage* stages, int stage_count, std::size_t begin,
                       std::size_t count, double* out) {
    std::fill(out, out + count, 0.0);
    for (int s = 0; s < stage_count; ++s) {
        const dta::OccKey* row = stages[s].keys + begin;
        const double* values = stages[s].values;
        for (std::size_t i = 0; i < count; ++i) {
            const double d = values[static_cast<std::size_t>(row[i])];
            if (d > out[i]) out[i] = d;
        }
    }
}

void scale_scalar(const double* in, double factor, std::size_t count, double* out) {
    for (std::size_t i = 0; i < count; ++i) out[i] = in[i] * factor;
}

void reduce_ideal_scalar(const double* requested, const double* unit, double scale,
                         double tolerance, std::size_t begin, std::size_t count, double* total,
                         std::uint64_t* violations, double* worst) {
    double total_time_ps = *total;
    std::uint64_t violation_count = *violations;
    double worst_violation_ps = *worst;
    for (std::size_t i = 0; i < count; ++i) {
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

void gather_reduce_ideal_scalar(const GatherStage* stages, int stage_count, const double* unit,
                                double scale, double tolerance, std::size_t begin,
                                std::size_t count, double* total, std::uint64_t* violations,
                                double* worst) {
    double total_time_ps = *total;
    std::uint64_t violation_count = *violations;
    double worst_violation_ps = *worst;
    for (std::size_t i = 0; i < count; ++i) {
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

void quantize_reduce_scalar(const double* requested, const TapLadder& ladder,
                            const double* unit, double scale, double tolerance, std::size_t begin,
                            std::size_t count, double* total, std::uint64_t* violations,
                            double* worst) {
    double total_time_ps = *total;
    std::uint64_t violation_count = *violations;
    double worst_violation_ps = *worst;
    for (std::size_t i = 0; i < count; ++i) {
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

constexpr ReplayKernels kScalarKernels = {
    &gather_max_scalar,
    &scale_scalar,
    &reduce_ideal_scalar,
    &gather_reduce_ideal_scalar,
    &quantize_reduce_scalar,
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
    // answer or one tap off; the clamp also sends NaN and requests below
    // the fastest tap to index 0, as lower_bound does.
    const double estimate = std::ceil((r - taps[0]) * ladder.inv_step());
    std::size_t k = 0;
    if (estimate >= static_cast<double>(last)) {
        k = last;
    } else if (estimate > 0) {
        k = static_cast<std::size_t>(estimate);
    }
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
