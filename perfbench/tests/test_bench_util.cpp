#include <gtest/gtest.h>

#include <cmath>

#include "bench_util.hpp"

namespace {

using perfbench::Sent;

std::vector<double> one_to(int n) {
    std::vector<double> v;
    for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
    return v;
}

TEST(Percentile, NearestRankCarriesItsSampleCount) {
    const auto p99 = perfbench::percentile(one_to(1000), 99);
    EXPECT_EQ(p99.value, 990);
    EXPECT_EQ(p99.samples, 1000u);
    EXPECT_EQ(p99.beyond, 10u);  // enough samples beyond p99 to report it

    const auto p50 = perfbench::percentile(one_to(1000), 50);
    EXPECT_EQ(p50.value, 500);
    EXPECT_EQ(p50.beyond, 500u);

    // Too few samples: p99 of 50 is the maximum, with nothing beyond it.
    const auto thin = perfbench::percentile(one_to(50), 99);
    EXPECT_EQ(thin.value, 50);
    EXPECT_EQ(thin.beyond, 0u);

    const auto empty = perfbench::percentile({}, 99);
    EXPECT_EQ(empty.samples, 0u);
    EXPECT_EQ(empty.value, 0);
}

TEST(Percentile, MedianOfEvenAndOddCounts) {
    EXPECT_EQ(perfbench::median({3, 1, 2}), 2);
    EXPECT_EQ(perfbench::median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(perfbench::median({}), 0);
}

TEST(OpenLoop, LateSendIsTimedFromItsScheduledTime) {
    const Sent late{10, 15, 20, true};
    EXPECT_EQ(perfbench::latency_ms(late), 10);  // not 5: the 5 ms stall counts
    EXPECT_EQ(perfbench::lag_ms(late), 5);

    const Sent on_time{10, 10, 12, true};
    EXPECT_EQ(perfbench::latency_ms(on_time), 2);
    EXPECT_EQ(perfbench::lag_ms(on_time), 0);
}

TEST(OpenLoop, PoissonScheduleIsSeededAndHoldsItsRate) {
    const auto a = perfbench::poisson_schedule(500, 5000, 7);
    const auto b = perfbench::poisson_schedule(500, 5000, 7);
    const auto c = perfbench::poisson_schedule(500, 5000, 8);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    const double rate = 5000 / (a.back() / 1000.0);
    EXPECT_NEAR(rate, 500, 25);
}

/// Requests arriving every `gap` ms, served one at a time taking
/// `service` ms each.
std::vector<Sent> serial_server(int n, double gap, double service) {
    std::vector<Sent> run;
    double free_at = 0;
    for (int i = 0; i < n; ++i) {
        const double due = i * gap;
        const double start = std::max(due, free_at);
        free_at = start + service;
        run.push_back({due, due, free_at, true});
    }
    return run;
}

TEST(MaxRps, BacklogRule) {
    // Keeping up: every request is answered before the next is due.
    EXPECT_FALSE(perfbench::backlog_grows(serial_server(1000, 1.0, 0.5), 4));
    // Overloaded: service takes twice the arrival gap, the queue grows.
    EXPECT_TRUE(perfbench::backlog_grows(serial_server(1000, 1.0, 2.0), 4));
    // A brief burst that drains does not count as growth.
    auto burst = serial_server(1000, 1.0, 0.5);
    for (int i = 100; i < 110; ++i) burst[i].done_ms += 20;
    EXPECT_FALSE(perfbench::backlog_grows(burst, 4));
}

TEST(MaxRps, RungVerdict) {
    const auto steady = serial_server(1000, 1.0, 0.5);
    EXPECT_TRUE(perfbench::judge_rung(steady, 1.0, 4).pass);
    EXPECT_FALSE(perfbench::judge_rung(steady, 0.25, 4).pass);  // p99 over the limit

    auto refused = steady;
    refused[500].ok = false;  // a refused request misses any limit
    const auto verdict = perfbench::judge_rung(refused, 1.0, 4);
    EXPECT_FALSE(verdict.pass);
    EXPECT_EQ(verdict.failed, 1u);

    const auto overloaded = perfbench::judge_rung(serial_server(1000, 1.0, 2.0), 1e9, 4);
    EXPECT_TRUE(overloaded.backlog_grew);
    EXPECT_FALSE(overloaded.pass);
}

TEST(MaxRps, HighestPassingRungByBisection) {
    int probes = 0;
    const auto upto = [&probes](int limit) {
        return [&probes, limit](int rung) {
            ++probes;
            return rung <= limit;
        };
    };
    EXPECT_EQ(perfbench::highest_passing(15, upto(9)), 9);
    EXPECT_LE(probes, 4);
    EXPECT_EQ(perfbench::highest_passing(15, upto(-1)), -1);
    EXPECT_EQ(perfbench::highest_passing(15, upto(20)), 14);
    EXPECT_EQ(perfbench::highest_passing(0, upto(3)), -1);
}

focs::obs::SpanEvent span(const char* name, std::uint32_t tid, double start, double dur) {
    focs::obs::SpanEvent e;
    e.name = name;
    e.tid = tid;
    e.start_us = start;
    e.duration_us = dur;
    return e;
}

TEST(SpanSelfTime, ParentMinusCoveredChildInterval) {
    const std::vector<focs::obs::SpanEvent> events = {
        span("parent", 1, 0, 1000),
        span("child", 1, 100, 200),      // 100..300
        span("child", 1, 500, 100),      // 500..600
        span("grandchild", 1, 520, 50),  // inside the second child
        span("other", 2, 0, 1000),       // another thread: covers nothing of parent
    };
    const auto self = perfbench::self_time_ms(events);
    EXPECT_DOUBLE_EQ(self.at("parent"), 0.7);
    EXPECT_DOUBLE_EQ(self.at("child"), 0.25);  // 0.2 + (0.1 - 0.05)
    EXPECT_DOUBLE_EQ(self.at("grandchild"), 0.05);
    EXPECT_DOUBLE_EQ(self.at("other"), 1.0);
    EXPECT_DOUBLE_EQ(perfbench::total_ms(events, "child"), 0.3);
}

TEST(SpanSelfTime, SequentialSiblingsAndInstantEvents) {
    auto instant = span("mark", 1, 50, 0);
    instant.instant = true;
    const std::vector<focs::obs::SpanEvent> events = {
        span("a", 1, 0, 100), span("b", 1, 100, 100), instant};
    const auto self = perfbench::self_time_ms(events);
    EXPECT_DOUBLE_EQ(self.at("a"), 0.1);  // b starts where a ends: not a child
    EXPECT_DOUBLE_EQ(self.at("b"), 0.1);
    EXPECT_EQ(self.count("mark"), 0u);
}

TEST(HostDrift, SpreadOfCalibrationRates) {
    EXPECT_NEAR(perfbench::drift({100, 110, 105}), 0.1, 1e-12);
    EXPECT_EQ(perfbench::drift({}), 0);
    EXPECT_GT(perfbench::calibration_rate_mops(), 0);
}

}  // namespace
