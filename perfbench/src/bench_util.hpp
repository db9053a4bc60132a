// Measurement helpers of the repository benchmark: percentiles that carry
// their sample count, open-loop request accounting, the max_rps rung rule,
// span self time and the host-drift calibration loop. Kept free of any
// workload logic so tests/test_bench_util.cpp can pin each rule down.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/span_tracer.hpp"

namespace perfbench {

/// A nearest-rank percentile together with the samples behind it: a
/// percentile is only worth reporting when `beyond` (samples strictly above
/// its rank) is at least ten.
struct Percentile {
    double value = 0;
    std::size_t samples = 0;
    std::size_t beyond = 0;
};

/// Nearest-rank percentile, q in (0, 100]: the ceil(q/100 * n)-th smallest
/// sample. An empty input yields {0, 0, 0}.
Percentile percentile(std::vector<double> values, double q);

double median(std::vector<double> values);

/// One request of an open-loop run; times are ms since the run started.
struct Sent {
    double scheduled_ms = 0;  ///< when the schedule said to send it
    double sent_ms = 0;       ///< when a connection actually sent it
    double done_ms = 0;       ///< when its response was complete
    bool ok = false;          ///< HTTP 200 with a parseable result
};

/// Open-loop latency: timed from the scheduled send time, so a stalled
/// generator charges the wait to every request it delayed.
inline double latency_ms(const Sent& s) { return s.done_ms - s.scheduled_ms; }

/// How late the generator sent a request (never negative).
inline double lag_ms(const Sent& s) { return s.sent_ms > s.scheduled_ms ? s.sent_ms - s.scheduled_ms : 0; }

/// Poisson arrivals: `count` send times (ms from start) at `rate_per_s`,
/// fully determined by `seed`.
std::vector<double> poisson_schedule(double rate_per_s, std::size_t count, std::uint64_t seed);

/// Backlog rule of a rung. The backlog seen by request i is the number of
/// earlier-scheduled requests still unanswered at its scheduled time. The
/// backlog grows when its mean over the last quarter of the run exceeds
/// its mean over the first quarter by more than `connections` (more than
/// every connection's worth of requests piled up meanwhile).
bool backlog_grows(const std::vector<Sent>& run, int connections);

struct RungVerdict {
    bool pass = false;
    Percentile p99;
    bool backlog_grew = false;
    std::size_t failed = 0;
};

/// A rung passes when every request succeeded, the p99 latency is within
/// `limit_ms` and the backlog did not grow. A failed request counts as
/// missing the latency limit.
RungVerdict judge_rung(const std::vector<Sent>& run, double limit_ms, int connections);

/// Index of the highest passing rung of a ladder of `rungs` ascending
/// rates, found by bisection (passing is assumed monotone in the rate);
/// -1 when even the lowest rung fails.
int highest_passing(int rungs, const std::function<bool(int)>& passes);

/// Per-span-name self time in ms: each span's duration minus the part of
/// its interval covered by its direct children on the same thread.
/// Instant events are ignored.
std::map<std::string, double> self_time_ms(const std::vector<focs::obs::SpanEvent>& events);

/// Total duration in ms of the spans named `name`.
double total_ms(const std::vector<focs::obs::SpanEvent>& events, const std::string& name);

/// Runs a fixed integer loop and returns its rate in million iterations
/// per second. Wall time and core clock diverge under frequency scaling or
/// a contended host; comparing this rate across a run exposes that.
double calibration_rate_mops();

/// Relative spread (max / min - 1) of a run's calibration rates.
double drift(const std::vector<double>& rates);

}  // namespace perfbench
