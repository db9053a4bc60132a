#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "common/rng.hpp"

namespace perfbench {

Percentile percentile(std::vector<double> values, double q) {
    Percentile out;
    out.samples = values.size();
    if (values.empty()) return out;
    std::sort(values.begin(), values.end());
    const double n = static_cast<double>(values.size());
    auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    out.value = values[rank - 1];
    out.beyond = values.size() - rank;
    return out;
}

double median(std::vector<double> values) {
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

std::vector<double> poisson_schedule(double rate_per_s, std::size_t count, std::uint64_t seed) {
    focs::Rng rng(seed);
    std::vector<double> times;
    times.reserve(count);
    double t = 0;
    for (std::size_t i = 0; i < count; ++i) {
        // next_double() is in [0, 1), so the log argument is positive.
        t += -std::log(1.0 - rng.next_double()) / rate_per_s * 1000.0;
        times.push_back(t);
    }
    return times;
}

bool backlog_grows(const std::vector<Sent>& run, int connections) {
    if (run.size() < 8) return false;
    std::vector<Sent> order = run;
    std::sort(order.begin(), order.end(),
              [](const Sent& a, const Sent& b) { return a.scheduled_ms < b.scheduled_ms; });
    std::vector<double> done;
    done.reserve(order.size());
    for (const Sent& s : order) done.push_back(s.done_ms);
    std::sort(done.begin(), done.end());
    std::vector<double> backlog;
    backlog.reserve(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        const auto answered = static_cast<std::size_t>(
            std::upper_bound(done.begin(), done.end(), order[i].scheduled_ms) - done.begin());
        backlog.push_back(static_cast<double>(i) - static_cast<double>(std::min(answered, i)));
    }
    const std::size_t quarter = backlog.size() / 4;
    const auto mean = [&](std::size_t begin) {
        return std::accumulate(backlog.begin() + begin, backlog.begin() + begin + quarter, 0.0) /
               static_cast<double>(quarter);
    };
    return mean(backlog.size() - quarter) > mean(0) + connections;
}

RungVerdict judge_rung(const std::vector<Sent>& run, double limit_ms, int connections) {
    RungVerdict verdict;
    std::vector<double> latencies;
    latencies.reserve(run.size());
    for (const Sent& s : run) {
        if (!s.ok) ++verdict.failed;
        latencies.push_back(s.ok ? latency_ms(s) : INFINITY);
    }
    verdict.p99 = percentile(std::move(latencies), 99);
    verdict.backlog_grew = backlog_grows(run, connections);
    verdict.pass = !run.empty() && verdict.failed == 0 && verdict.p99.value <= limit_ms &&
                   !verdict.backlog_grew;
    return verdict;
}

int highest_passing(int rungs, const std::function<bool(int)>& passes) {
    int lo = 0, hi = rungs - 1, best = -1;
    while (lo <= hi) {
        const int mid = lo + (hi - lo) / 2;
        if (passes(mid)) {
            best = mid;
            lo = mid + 1;
        } else {
            hi = mid - 1;
        }
    }
    return best;
}

std::map<std::string, double> self_time_ms(const std::vector<focs::obs::SpanEvent>& events) {
    std::map<std::uint32_t, std::vector<const focs::obs::SpanEvent*>> by_tid;
    for (const auto& e : events) {
        if (!e.instant) by_tid[e.tid].push_back(&e);
    }
    std::map<std::string, double> self;
    for (auto& [tid, spans] : by_tid) {
        // Parents sort before their children: earlier start first, and on
        // ties the longer (enclosing) span first.
        std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
            return a->start_us != b->start_us ? a->start_us < b->start_us
                                              : a->duration_us > b->duration_us;
        });
        struct Open {
            const focs::obs::SpanEvent* span;
            double covered_until;  ///< end of the child coverage merged so far
            double covered;        ///< union length of direct children
        };
        std::vector<Open> stack;
        const auto close = [&self](const Open& o) {
            self[o.span->name] += std::max(0.0, o.span->duration_us - o.covered) / 1000.0;
        };
        for (const auto* span : spans) {
            const double start = span->start_us;
            while (!stack.empty() &&
                   start >= stack.back().span->start_us + stack.back().span->duration_us) {
                close(stack.back());
                stack.pop_back();
            }
            if (!stack.empty()) {
                Open& parent = stack.back();
                const double parent_end = parent.span->start_us + parent.span->duration_us;
                const double end = std::min(start + span->duration_us, parent_end);
                const double from = std::max(start, parent.covered_until);
                if (end > from) parent.covered += end - from;
                parent.covered_until = std::max(parent.covered_until, end);
            }
            stack.push_back({span, start, 0});
        }
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) close(*it);
    }
    return self;
}

double total_ms(const std::vector<focs::obs::SpanEvent>& events, const std::string& name) {
    double total = 0;
    for (const auto& e : events) {
        if (!e.instant && e.name == name) total += e.duration_us / 1000.0;
    }
    return total;
}

double calibration_rate_mops() {
    // Best of several short repeats: a preempted repeat reads slow, while
    // a host whose clock really dropped reads slow on every repeat.
    constexpr std::uint64_t kIterations = 1'000'000;
    constexpr int kRepeats = 7;
    double best = 0;
    for (int r = 0; r < kRepeats; ++r) {
        volatile std::uint64_t sink = 0;
        std::uint64_t x = 0x2545f4914f6cdd1dULL + static_cast<std::uint64_t>(r);
        const auto start = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < kIterations; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        sink = x;
        (void)sink;
        const double s =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        best = std::max(best, static_cast<double>(kIterations) / s / 1e6);
    }
    return best;
}

double drift(const std::vector<double>& rates) {
    if (rates.empty()) return 0;
    const auto [lo, hi] = std::minmax_element(rates.begin(), rates.end());
    return *lo > 0 ? *hi / *lo - 1 : 0;
}

}  // namespace perfbench
