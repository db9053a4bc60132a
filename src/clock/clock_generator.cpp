#include "clock/clock_generator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"

namespace focs::clocking {

void ClockGenerator::grant_block(const double* requested, std::size_t n, double* out) {
    for (std::size_t i = 0; i < n; ++i) out[i] = grant_period_ps(requested[i]);
}

QuantizedClockGenerator::QuantizedClockGenerator(double min_period_ps, double max_period_ps,
                                                 int num_taps) {
    check(num_taps >= 1, "need at least one tap");
    check(min_period_ps > 0 && max_period_ps >= min_period_ps, "invalid tap range");
    taps_.reserve(static_cast<std::size_t>(num_taps));
    if (num_taps == 1) {
        taps_.push_back(max_period_ps);
    } else {
        const double step = (max_period_ps - min_period_ps) / (num_taps - 1);
        for (int i = 0; i < num_taps; ++i) taps_.push_back(min_period_ps + step * i);
        inv_step_ = 1.0 / step;
    }
}

QuantizedClockGenerator QuantizedClockGenerator::for_static_period(double static_period_ps,
                                                                   int num_taps) {
    return QuantizedClockGenerator(0.5 * static_period_ps, static_period_ps, num_taps);
}

double QuantizedClockGenerator::grant_period_ps(double requested_ps) {
    const auto it = std::lower_bound(taps_.begin(), taps_.end(), requested_ps);
    if (it == taps_.end()) return requested_ps;  // beyond slowest tap: stretch
    return *it;
}

void QuantizedClockGenerator::grant_block(const double* requested, std::size_t n, double* out) {
    const double* taps = taps_.data();
    const double lo = taps_.front();
    const double hi = taps_.back();
    const double inv_step = inv_step_;
    const double last = static_cast<double>(taps_.size() - 1);
    for (std::size_t i = 0; i < n; ++i) {
        const double r = requested[i];
        if (r > hi) {  // beyond slowest tap: stretch
            out[i] = r;
            continue;
        }
        // The taps are equally spaced up to rounding, so the estimate is
        // the answer or one tap off; the clamp also sends NaN and requests
        // below the fastest tap to index 0, as lower_bound does.
        const double estimate = std::ceil((r - lo) * inv_step);
        std::size_t k = 0;
        if (estimate >= last) {
            k = static_cast<std::size_t>(last);
        } else if (estimate > 0) {
            k = static_cast<std::size_t>(estimate);
        }
        // One compare each way settles the rounding; the loops only run
        // further when the spacing is within a few ulps of the tap values.
        // They stop at taps[k - 1] < r <= taps[k], which is lower_bound's
        // answer (r <= hi keeps k in range).
        while (k > 0 && taps[k - 1] >= r) --k;
        while (taps[k] < r) ++k;
        out[i] = taps[k];
    }
}

std::string QuantizedClockGenerator::name() const {
    char buf[48];
    std::snprintf(buf, sizeof buf, "ring-osc/%zu-taps", taps_.size());
    return buf;
}

PllBankClockGenerator::PllBankClockGenerator(std::vector<double> periods_ps, int min_dwell_cycles)
    : periods_(std::move(periods_ps)), min_dwell_cycles_(min_dwell_cycles) {
    check(!periods_.empty(), "PLL bank needs at least one source");
    check(min_dwell_cycles >= 0, "negative dwell");
    std::sort(periods_.begin(), periods_.end());
}

void PllBankClockGenerator::reset() {
    current_ = 0;
    dwell_ = 0;
    started_ = false;
}

void PllBankClockGenerator::grant_block(const double* requested, std::size_t n, double* out) {
    for (std::size_t i = 0; i < n; ++i) out[i] = grant(requested[i]);
}

double PllBankClockGenerator::grant(double requested_ps) {
    // Smallest source covering the request; beyond the slowest source we
    // stretch the slowest one.
    std::size_t want = periods_.size() - 1;
    double want_period = requested_ps;
    const auto it = std::lower_bound(periods_.begin(), periods_.end(), requested_ps);
    if (it != periods_.end()) {
        want = static_cast<std::size_t>(it - periods_.begin());
        want_period = *it;
    } else {
        want_period = std::max(requested_ps, periods_.back());
    }

    if (!started_) {
        started_ = true;
        current_ = want;
        dwell_ = 1;
        return want_period;
    }

    if (want >= current_) {
        // Slower or equal: always allowed.
        if (want != current_) dwell_ = 0;
        current_ = want;
        ++dwell_;
        return std::max(want_period, periods_[current_]);
    }
    // Faster: only after the dwell requirement is met.
    if (dwell_ >= min_dwell_cycles_) {
        current_ = want;
        dwell_ = 1;
        return want_period;
    }
    ++dwell_;
    return periods_[current_];
}

std::string PllBankClockGenerator::name() const {
    char buf[48];
    std::snprintf(buf, sizeof buf, "pll-bank/%zu-sources", periods_.size());
    return buf;
}

}  // namespace focs::clocking
