// daemon_small: an in-process SweepServer serving small specs.
//
// Every request is a small spec over artifacts the warm-up already built,
// so per-request costs (HTTP framing, spec parsing, engine start-up,
// to_json) weigh heavily and nothing is built: the `service` and `runtime`
// counterweight to the two sweep workloads. The timed run sends closed-loop
// batches; the traced run adds a seeded Poisson open loop at a fixed rate
// and a rate ladder, whose latencies swing too much on a shared host to
// carry a regression bound.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <set>
#include <thread>

#include "bench.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "runtime/result_io.hpp"
#include "service/client.hpp"
#include "service/sweep_server.hpp"

namespace perfbench {

using focs::runtime::ArtifactCache;
using focs::runtime::ArtifactClass;
using focs::runtime::SweepEngine;
using focs::runtime::SweepResult;
using focs::runtime::SweepSpec;
using Clock = std::chrono::steady_clock;

namespace {

constexpr const char* kPolicies[] = {"static", "two-class",  "dual-cycle", "ex-only",
                                     "lut",    "approx-lut", "genie"};
constexpr const char* kGenerators[] = {"ideal", "taps:8", "pll:1300/1500:4"};
constexpr const char* kVoltages[] = {"0.60", "0.65", "0.70", "0.75", "0.80"};
constexpr int kSetupReps = 5;
/// Requests per closed-loop batch of the timed run.
constexpr std::size_t kBatchRequests = 399;  // 7 rounds of the 57 kernel x generator pairs
/// Requests of the traced run's per-request layer sample.
constexpr std::size_t kLayerSample = 200;

/// The warm-up grid: every kernel, policy, generator and voltage the mix
/// can draw (the same grid as sweep_cold).
std::string warmup_grid() {
    std::string kernels, policies, generators, voltages;
    for (const auto& k : suite_kernels()) kernels += (kernels.empty() ? "" : ", ") + k;
    for (const char* p : kPolicies) policies += (policies.empty() ? "" : ", ") + std::string(p);
    for (const char* g : kGenerators) generators += (generators.empty() ? "" : ", ") + std::string(g);
    for (const char* v : kVoltages) voltages += (voltages.empty() ? "" : ", ") + std::string(v);
    return "kernels = " + kernels + "\npolicies = " + policies + "\ngenerators = " + generators +
           "\nvoltages = " + voltages + "\n";
}

/// Seeded request mix: 1 kernel, 1-3 policies, 1 generator, 1-2 voltages.
/// Kernel x generator pairs are dealt round-robin before the seeded
/// shuffle, so every batch carries the same share of the heavy kernels and
/// of the taps/pll walk whatever the seed; the seed draws the policies,
/// the voltages and the order.
std::vector<std::string> draw_requests(std::size_t count, std::uint64_t seed) {
    const auto kernels = suite_kernels();
    focs::Rng rng(seed);
    // Picks `n` distinct indices below `size`, returned in ascending order.
    const auto pick = [&rng](std::size_t n, std::size_t size) {
        std::set<std::size_t> chosen;
        while (chosen.size() < n) chosen.insert(rng.next_below(size));
        return chosen;
    };
    const std::size_t generators = std::size(kGenerators);
    std::vector<std::string> specs;
    specs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t pair = i % (kernels.size() * generators);
        std::string text = "kernels = " + kernels[pair / generators] + "\npolicies = ";
        std::string sep;
        for (const std::size_t p : pick(1 + rng.next_below(3), std::size(kPolicies))) {
            text += sep + kPolicies[p];
            sep = ", ";
        }
        text += std::string("\ngenerators = ") + kGenerators[pair % generators] + "\nvoltages = ";
        sep.clear();
        for (const std::size_t v : pick(1 + rng.next_below(2), std::size(kVoltages))) {
            text += sep + kVoltages[v];
            sep = ", ";
        }
        specs.push_back(text + "\n");
    }
    for (std::size_t i = specs.size(); i > 1; --i) std::swap(specs[i - 1], specs[rng.next_below(i)]);
    return specs;
}

struct DaemonConfig {
    double rate_rps = 0;            ///< the fixed open-loop rate
    std::vector<double> ladder_rps;  ///< ascending rates probed for max_rps
    double latency_limit_ms = 0;    ///< p99 limit of a passing rung
    std::size_t min_requests = 1000;  ///< per phase, so >= 10 lie beyond p99
};

DaemonConfig daemon_config(const Options& options) {
    const auto it = options.config.find("daemon");
    if (it == options.config.end()) throw std::runtime_error("config has no \"daemon\" block");
    const auto& d = it->second.object();
    DaemonConfig config;
    config.rate_rps = focs::json::field(d, "rate_rps").number();
    for (const auto& v : focs::json::field(d, "ladder_rps").array()) {
        config.ladder_rps.push_back(v.number());
    }
    config.latency_limit_ms = focs::json::field(d, "latency_limit_ms").number();
    config.min_requests =
        static_cast<std::size_t>(focs::json::field(d, "min_requests").number());
    if (config.rate_rps <= 0 || config.ladder_rps.empty() || config.latency_limit_ms <= 0 ||
        !std::is_sorted(config.ladder_rps.begin(), config.ladder_rps.end())) {
        throw std::runtime_error("bad \"daemon\" block in config");
    }
    return config;
}

std::unique_ptr<focs::service::SweepServer> start_server() {
    focs::service::ServerConfig config;
    config.max_inflight = 2;
    config.jobs = 1;
    auto server = std::make_unique<focs::service::SweepServer>(config);
    server->start();
    return server;
}

struct LoadRun {
    std::vector<Sent> sent;
    std::vector<int> statuses;
    std::vector<std::string> bodies;  ///< kept only when asked for
};

/// Open loop: request i is due at schedule[i] ms after the start; up to
/// `connections` requests are in flight at once. A request whose
/// connection is still busy at its due time is sent late, and its latency
/// still counts from the due time.
LoadRun open_loop(int port, const std::vector<std::string>& specs,
                  const std::vector<double>& schedule, int connections, bool keep_bodies,
                  focs::obs::SpanTracer* tracer) {
    LoadRun run;
    run.sent.resize(specs.size());
    run.statuses.resize(specs.size());
    if (keep_bodies) run.bodies.resize(specs.size());
    std::atomic<std::size_t> next{0};
    const auto start = Clock::now() + std::chrono::milliseconds(20);
    const auto worker = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= specs.size()) return;
            std::this_thread::sleep_until(
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(schedule[i])));
            Sent& s = run.sent[i];
            s.scheduled_ms = schedule[i];
            s.sent_ms = ms_since(start);
            focs::obs::Span span;
            if (tracer != nullptr) span = tracer->span("service.request");
            try {
                auto response = focs::service::post_sweep(port, specs[i]);
                run.statuses[i] = response.status;
                if (keep_bodies) run.bodies[i] = std::move(response.body);
            } catch (const std::exception&) {
                run.statuses[i] = 0;  // transport failure
            }
            span.finish();
            s.done_ms = ms_since(start);
            s.ok = run.statuses[i] == 200;
        }
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < connections; ++c) threads.emplace_back(worker);
    for (auto& t : threads) t.join();
    return run;
}

/// The header's wall_ms of a result document (the first "wall_ms" key:
/// the header precedes the cells).
double body_wall_ms(const std::string& body) {
    const auto at = body.find("\"wall_ms\": ");
    return at == std::string::npos ? 0 : std::strtod(body.c_str() + at + 11, nullptr);
}

/// Percentile of a latency histogram, interpolated inside its bucket.
double histogram_percentile(const std::vector<double>& bounds,
                            const std::vector<std::uint64_t>& buckets, double q) {
    std::uint64_t total = 0;
    for (const auto b : buckets) total += b;
    if (total == 0) return 0;
    const double target = q / 100.0 * static_cast<double>(total);
    double seen = 0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        if (seen + static_cast<double>(buckets[b]) >= target && buckets[b] > 0) {
            const double lo = b == 0 ? 0 : bounds[b - 1];
            const double hi = b < bounds.size() ? bounds[b] : bounds.back();
            return lo + (hi - lo) * (target - seen) / static_cast<double>(buckets[b]);
        }
        seen += static_cast<double>(buckets[b]);
    }
    return bounds.back();
}

std::vector<std::uint64_t> request_ms_buckets(const focs::service::SweepServer& server,
                                              std::vector<double>* bounds) {
    const auto snapshot = server.metrics_snapshot();
    const auto* h = snapshot.find_histogram("server.request_ms");
    if (h == nullptr) return {};
    if (bounds != nullptr) *bounds = h->bounds;
    return h->buckets;
}

struct BuildCounters {
    std::uint64_t characterizations, traces, unit_passes;
    bool operator==(const BuildCounters&) const = default;
};

BuildCounters build_counters(const ArtifactCache& cache) {
    return {cache.characterizations_built(), cache.traces_recorded(), cache.unit_delay_passes()};
}

/// Closed loop: `connections` clients send `specs` back to back, each
/// waiting for its reply. Returns the wall time in ms.
double closed_batch(int port, const std::vector<std::string>& specs, int connections,
                    std::vector<int>& statuses, std::vector<std::string>* bodies) {
    statuses.assign(specs.size(), 0);
    if (bodies != nullptr) bodies->assign(specs.size(), "");
    std::atomic<std::size_t> next{0};
    const auto start = Clock::now();
    const auto worker = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < specs.size();) {
            try {
                auto response = focs::service::post_sweep(port, specs[i]);
                statuses[i] = response.status;
                if (bodies != nullptr) (*bodies)[i] = std::move(response.body);
            } catch (const std::exception&) {
                statuses[i] = 0;  // transport failure
            }
        }
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < connections; ++c) threads.emplace_back(worker);
    for (auto& t : threads) t.join();
    return ms_since(start);
}

std::uint64_t non_200(const std::vector<int>& statuses) {
    return static_cast<std::uint64_t>(
        std::count_if(statuses.begin(), statuses.end(), [](int status) { return status != 200; }));
}

struct Setup {
    std::unique_ptr<focs::service::SweepServer> server;
    std::vector<double> setup_s, cold_ms;
    std::string grid = warmup_grid();
    std::string canonical_body;  ///< canonical response of the last warm-up
};

/// One set-up: drains the previous server, if any, then starts a fresh one
/// and warms it with one full-grid request, which runs on a fresh cache
/// (the daemon's cold sweep). The first set-up is timed from process start.
void set_up(const Options& options, Report& report, Setup& setup) {
    const auto start = setup.server ? Clock::now() : options.process_start;
    if (setup.server) {
        setup.server->request_drain();
        setup.server->wait();
    }
    setup.server = start_server();
    const auto t = Clock::now();
    auto cold = focs::service::post_sweep(setup.server->port(), setup.grid, 0, true);
    setup.cold_ms.push_back(ms_since(t));
    setup.setup_s.push_back(ms_since(start) / 1000.0);
    report.ops(1, cold.status != 200, "full-grid warm-up request");
    setup.canonical_body = std::move(cold.body);
}

/// Highest ladder rate meeting the latency limit without failures or a
/// growing backlog, by bisection; each probed rung runs `rung_seconds`
/// (at least min_requests requests). 0 when even the lowest rung fails.
double ladder_max_rps(const Options& options, Report& report, const DaemonConfig& config,
                      int port, double rung_seconds) {
    const int connections = options.jobs;
    std::uint64_t probe_failures = 0, probe_requests = 0;
    const int best = highest_passing(static_cast<int>(config.ladder_rps.size()), [&](int rung) {
        const double rate = config.ladder_rps[static_cast<std::size_t>(rung)];
        const std::size_t count =
            std::max(config.min_requests, static_cast<std::size_t>(rate * rung_seconds));
        const std::uint64_t seed = options.seed * 1000003ULL + static_cast<std::uint64_t>(rung);
        const LoadRun run = open_loop(port, draw_requests(count, seed),
                                      poisson_schedule(rate, count, seed), connections, false,
                                      nullptr);
        // Shedding (503) past capacity is what a rung measures; any other
        // non-200 reply is a failure.
        for (const int status : run.statuses) probe_failures += status != 200 && status != 503;
        probe_requests += count;
        const RungVerdict verdict = judge_rung(run.sent, config.latency_limit_ms, connections);
        report.note("rung " + std::to_string(rate) + " req/s: p99 " +
                    std::to_string(verdict.p99.value) + " ms over " +
                    std::to_string(verdict.p99.samples) + ", failed " +
                    std::to_string(verdict.failed) + ", backlog " +
                    (verdict.backlog_grew ? "grew" : "steady") +
                    (verdict.pass ? " -> pass" : " -> fail"));
        report.calibrate();
        return verdict.pass;
    });
    report.ops(probe_requests, probe_failures, "ladder requests (non-200, non-503)");
    return best >= 0 ? config.ladder_rps[static_cast<std::size_t>(best)] : 0;
}

void traced_daemon(const Options& options, Report& report, const DaemonConfig& config) {
    Setup setup;
    set_up(options, report, setup);
    auto& server = *setup.server;
    auto& cache = *server.cache();
    report.calibrate();
    focs::obs::SpanTracer tracer(true);
    const int connections = options.jobs;
    const std::size_t n = std::max(
        config.min_requests, static_cast<std::size_t>(config.rate_rps * options.seconds * 0.4));
    const auto specs = draw_requests(n, options.seed);
    const auto schedule = poisson_schedule(config.rate_rps, n, options.seed);
    const BuildCounters builds_before = build_counters(cache);

    std::vector<double> bounds;
    const auto buckets_before = request_ms_buckets(server, &bounds);
    const auto stats_before = server.stats();
    const focs::runtime::ArtifactClass classes[] = {ArtifactClass::kProgram,
                                                     ArtifactClass::kDelayTable,
                                                     ArtifactClass::kTrace,
                                                     ArtifactClass::kUnitDelays};
    std::vector<focs::runtime::ArtifactClassCounters> lookups_before;
    std::uint64_t retried_before = 0;
    for (const auto cls : classes) {
        lookups_before.push_back(cache.class_counters(cls));
        retried_before += cache.build_stats(cls).retried;
    }

    const LoadRun run = open_loop(server.port(), specs, schedule, connections, true, &tracer);

    auto buckets = request_ms_buckets(server, nullptr);
    for (std::size_t b = 0; b < buckets.size() && b < buckets_before.size(); ++b) {
        buckets[b] -= buckets_before[b];
    }
    const auto stats = server.stats();
    report.metric("service.server_ms_p50", histogram_percentile(bounds, buckets, 50), n);
    report.metric("service.server_ms_p99", histogram_percentile(bounds, buckets, 99), n);
    std::vector<double> transport, lag, client_ms, latencies;
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Sent& s = run.sent[i];
        lag.push_back(lag_ms(s));
        if (!s.ok) {
            ++failed;
            continue;
        }
        latencies.push_back(latency_ms(s));
        client_ms.push_back(s.done_ms - s.sent_ms);
        transport.push_back(s.done_ms - s.sent_ms - body_wall_ms(run.bodies[i]));
    }
    report.ops(n, failed, "fixed-rate requests");
    const auto p50 = percentile(latencies, 50);
    const auto p99 = percentile(latencies, 99);
    report.metric("service.request_p50_ms", p50.value, p50.samples);
    report.metric("service.request_p99_ms", p99.value, p99.samples);
    report.check(p99.beyond >= 10, "fewer than 10 fixed-rate requests beyond p99");
    report.metric("service.transport_ms_p50", median(transport), transport.size());
    report.metric("service.accepted", static_cast<double>(stats.accepted - stats_before.accepted));
    report.metric("service.shed", static_cast<double>(stats.shed - stats_before.shed));
    const auto snapshot = server.metrics_snapshot();
    for (const auto& gauge : snapshot.gauges) {
        if (gauge.name == "server.queue.depth") {
            report.metric("service.queue_depth_max", static_cast<double>(gauge.max));
        }
    }
    report.metric("loadgen.lag_p99_ms", percentile(lag, 99).value, lag.size());
    report.metric("loadgen.sent", static_cast<double>(n));
    std::uint64_t retried = 0;
    for (std::size_t c = 0; c < std::size(classes); ++c) {
        const auto now = cache.class_counters(classes[c]);
        const auto hits = now.served() - lookups_before[c].served();
        const auto total = hits + now.miss - lookups_before[c].miss;
        const std::string name = focs::runtime::artifact_class_name(classes[c]);
        report.metric("runtime.cache_hit_ratio." + name,
                      total ? static_cast<double>(hits) / static_cast<double>(total) : 0, 1);
        report.metric("runtime.cache_wait." + name,
                      static_cast<double>(now.wait - lookups_before[c].wait));
        retried += cache.build_stats(classes[c]).retried;
    }
    report.metric("runtime.build_retried", static_cast<double>(retried - retried_before));
    report.metric("service.max_rps",
                  ladder_max_rps(options, report, config, server.port(), options.seconds * 0.6 /
                                     std::ceil(std::log2(config.ladder_rps.size() + 1.0))),
                  1);
    report.check(build_counters(cache) == builds_before,
                 "the open-loop phase built artifacts (characterizations, traces or unit delays)");

    // Per-request runtime costs on a sample of the same requests, run
    // in-process on the server's warm cache.
    const std::size_t sample = std::min(kLayerSample, n);
    std::vector<SweepSpec> sample_specs;
    std::vector<SweepResult> results;
    std::vector<double> parse_us, engine_ms, overhead_ms, to_json_ms, bytes;
    double busy_total = 0, wall_total = 0;
    for (std::size_t i = 0; i < sample; ++i) {
        auto t = Clock::now();
        sample_specs.push_back(SweepSpec::parse(specs[i]));
        parse_us.push_back(ms_since(t) * 1000.0);
        t = Clock::now();
        results.push_back(SweepEngine(1, server.cache()).run(sample_specs.back()));
        const double wall = ms_since(t);
        const double busy =
            column_busy_ms(results.back(), sample_specs.back().resolved().generators.size());
        engine_ms.push_back(wall);
        overhead_ms.push_back(wall - busy);
        busy_total += busy;
        wall_total += wall;
        t = Clock::now();
        bytes.push_back(static_cast<double>(focs::runtime::to_json(results.back(), true).size()));
        to_json_ms.push_back(ms_since(t));
    }
    report.metric("runtime.spec_parse_us", median(parse_us), sample);
    report.metric("runtime.engine_overhead_ms", median(overhead_ms), sample);
    report.metric("runtime.to_json_ms", median(to_json_ms), sample);
    report.metric("runtime.json_bytes", median(bytes), sample);
    report.metric("runtime.parallel_efficiency", wall_total > 0 ? busy_total / wall_total : 0,
                  sample);

    const LayerTimes layers = run_layered(sample_specs, cache, tracer, results, report);
    report_layers(report, layers, wall_total, sample);
    for (const auto& [name, kind] :
         {std::pair{"ideal", focs::runtime::GeneratorSpec::Kind::kIdeal},
          std::pair{"taps", focs::runtime::GeneratorSpec::Kind::kQuantized},
          std::pair{"pll", focs::runtime::GeneratorSpec::Kind::kPllBank}}) {
        report.metric(std::string("core.replay_cycles_per_s.") + name,
                      replay_rate(sample_specs, cache, kind), 1);
    }

    // Per-request split: service = what the client waits beyond the
    // server's parse + engine + serialization; runtime = parse +
    // serialization + engine overhead + column assembly; core = replay.
    const double per_request = static_cast<double>(sample);
    const double runtime_ms = median(parse_us) / 1000.0 + median(to_json_ms) +
                              median(overhead_ms) + layers.column_ms / per_request;
    const double service_ms =
        median(client_ms) - median(parse_us) / 1000.0 - median(engine_ms) - median(to_json_ms);
    const double core_ms = layers.core_ms / per_request;
    const char* top = service_ms >= runtime_ms && service_ms >= core_ms ? "service"
                      : runtime_ms >= core_ms                              ? "runtime"
                                                                           : "core";
    report.note("per-request split (ms): service=" + std::to_string(service_ms) +
                " runtime=" + std::to_string(runtime_ms) + " core=" + std::to_string(core_ms) +
                "; dominant layer: " + top + " (predicted service/runtime: " +
                (std::string(top) != "core" ? "confirmed" : "MISMATCH") + ")");
    write_trace(options, tracer, cache);
    report.calibrate();
    server.request_drain();
    server.wait();
}

void timed_daemon(const Options& options, Report& report) {
    Setup setup;
    for (int rep = 0; rep < kSetupReps; ++rep) set_up(options, report, setup);
    auto& server = *setup.server;
    report.calibrate();
    const BuildCounters before = build_counters(*server.cache());

    // Warm sweep through the daemon: one batch of small mix requests sent
    // back to back over min(nproc, 4) connections, repeated for the run.
    const auto specs = draw_requests(kBatchRequests, options.seed);
    std::vector<double> batch_ms;
    std::vector<int> statuses;
    std::vector<std::string> bodies;
    const auto deadline = Clock::now() + std::chrono::duration<double>(options.seconds);
    for (int it = 0; it < 5 || Clock::now() < deadline; ++it) {
        batch_ms.push_back(closed_batch(server.port(), specs, options.jobs, statuses,
                                        it == 0 ? &bodies : nullptr));
        report.ops(statuses.size(), non_200(statuses), "batch requests");
        report.calibrate();
    }
    const bool built = !(build_counters(*server.cache()) == before);

    const SweepResult grid = focs::runtime::from_json(setup.canonical_body);
    report.metric("sweep_cold_ms", median(setup.cold_ms), setup.cold_ms.size());
    report.metric("sweep_warm_ms", median(batch_ms), batch_ms.size());
    report.metric("mean_speedup", mean_lut_speedup({grid}), 1);
    report.metric("setup_s", median(setup.setup_s), setup.setup_s.size());

    // Correctness gate.
    report.check(!built,
                 "the timed batches built artifacts (characterizations, traces or unit delays)");
    const std::string expected = expected_digest(options, "daemon_small");
    const std::string digest =
        focs::runtime::stable_text_hash(focs::runtime::to_json(grid, false));
    if (expected.empty()) report.note("daemon_small has no stored digest; computed " + digest);
    report.check(digest == expected, "warm-up grid digest " + digest + " != stored " + expected);
    check_result(report, grid, "daemon_small warm-up grid");
    // Every response of the first batch equals the same spec run in-process.
    std::map<std::string, std::string> canonical;
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (bodies[i].empty()) continue;
        auto [it, inserted] = canonical.try_emplace(specs[i]);
        if (inserted) {
            it->second = focs::runtime::to_json(
                SweepEngine(1, server.cache()).run(SweepSpec::parse(specs[i])), false);
        }
        const SweepResult served = focs::runtime::from_json(bodies[i]);
        if (focs::runtime::to_json(served, false) != it->second) ++mismatched;
        check_result(report, served, "daemon response");
    }
    report.check(mismatched == 0,
                 std::to_string(mismatched) + " daemon responses differ from in-process runs");
    check_live_oracle(report, {SweepSpec::parse(setup.grid)}, {grid}, server.cache(),
                      options.seed, kOracleCells);
    server.request_drain();
    server.wait();
}

}  // namespace

void run_daemon_small(const Options& options, Report& report) {
    if (options.trace) {
        traced_daemon(options, report, daemon_config(options));
    } else {
        timed_daemon(options, report);
    }
}

}  // namespace perfbench
