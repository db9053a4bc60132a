#include "clock/clock_generator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/error.hpp"

namespace focs::clocking {

void ClockGenerator::grant_block(const double* requested, std::size_t n, double* out) {
    for (std::size_t i = 0; i < n; ++i) out[i] = grant_period_ps(requested[i]);
}

QuantizedClockGenerator::QuantizedClockGenerator(double min_period_ps, double max_period_ps,
                                                 int num_taps) {
    check(num_taps >= 1 && num_taps <= kMaxTaps, "tap count out of range");
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

std::string QuantizedClockGenerator::name() const {
    char buf[48];
    std::snprintf(buf, sizeof buf, "ring-osc/%zu-taps", taps_.size());
    return buf;
}

PllBankClockGenerator::PllBankClockGenerator(std::vector<double> periods_ps, int min_dwell_cycles)
    : periods_(std::move(periods_ps)), min_dwell_cycles_(min_dwell_cycles) {
    check(!periods_.empty(), "PLL bank needs at least one source");
    check(min_dwell_cycles >= 0, "negative dwell");
    for (const double period : periods_) {
        check(std::isfinite(period) && period > 0, "PLL periods must be finite and positive");
    }
    std::sort(periods_.begin(), periods_.end());
}

void PllBankClockGenerator::reset() {
    current_ = 0;
    dwell_ = 0;
    started_ = false;
}

void PllBankClockGenerator::grant_block(const double* requested, std::size_t n, double* out) {
    std::size_t i = 0;
    while (i < n) {
        if (started_) {
            // Hold run: while lower_bound would pick the held source itself
            // (periods_[current_ - 1] < r <= periods_[current_]), grant()
            // takes its want == current_ branch — keep the source, grant its
            // period, count the dwell. On the slowest source that branch
            // also stretches any request above it. NaN and every other
            // request fail the compares and take the state machine below.
            const double held = periods_[current_];
            const double below =
                current_ > 0 ? periods_[current_ - 1] : -std::numeric_limits<double>::infinity();
            const std::size_t run_begin = i;
            if (current_ + 1 == periods_.size()) {
                for (; i < n && below < requested[i]; ++i) {
                    out[i] = requested[i] > held ? requested[i] : held;
                }
            } else {
                for (; i < n && below < requested[i] && requested[i] <= held; ++i) out[i] = held;
            }
            dwell_ += static_cast<int>(i - run_begin);
            if (i == n) break;
        }
        out[i] = grant(requested[i]);
        ++i;
    }
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
