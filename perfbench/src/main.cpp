// perfbench: the focs repository benchmark.
//
//   perfbench --workload sweep_cold|design_space|daemon_small --seed N
//             --seconds S --trace 0|1 --config perfbench/expected.json
//             [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics, --trace 1 runs the traced
// per-layer pass. Either way the correctness gate runs after the timed
// work, a table of every metric is printed, and the last stdout line is
// one JSON object {"correct", "attempted", "failed", "metrics"}. Exits
// non-zero without that line when the run itself cannot proceed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "bench_util.hpp"
#include "runtime/result_io.hpp"

namespace {

using perfbench::Metric;

struct MetricDef {
    const char* name;
    const char* unit;
};

// Mirrors BENCHMARK.json: every run prints every metric of its list.
constexpr MetricDef kEndToEnd[] = {
    {"sweep_cold_ms", "ms"}, {"sweep_warm_ms", "ms"}, {"mean_speedup", "x"},
    {"setup_s", "s"},        {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"asm.assemble_ms", "ms"},
    {"asm.programs", "count"},
    {"dta.characterize_ms", "ms"},
    {"dta.characterizations", "count"},
    {"dta.char_cycles_per_s", "1/s"},
    {"sim.record_trace_ms", "ms"},
    {"sim.trace_cycles", "count"},
    {"sim.trace_cycles_per_s", "1/s"},
    {"timing.unit_delays_ms", "ms"},
    {"timing.unit_delay_cycles_per_s", "1/s"},
    {"core.replay_ms", "ms"},
    {"core.replayed_cycles", "count"},
    {"core.replay_cycles_per_s.ideal", "1/s"},
    {"core.replay_cycles_per_s.taps", "1/s"},
    {"core.replay_cycles_per_s.pll", "1/s"},
    {"runtime.column_ms", "ms"},
    {"runtime.parallel_efficiency", "ratio"},
    {"runtime.cache_hit_ratio.program", "ratio"},
    {"runtime.cache_hit_ratio.delay_table", "ratio"},
    {"runtime.cache_hit_ratio.trace", "ratio"},
    {"runtime.cache_hit_ratio.unit_delays", "ratio"},
    {"runtime.cache_wait.program", "count"},
    {"runtime.cache_wait.delay_table", "count"},
    {"runtime.cache_wait.trace", "count"},
    {"runtime.cache_wait.unit_delays", "count"},
    {"runtime.build_retried", "count"},
    {"runtime.to_json_ms", "ms"},
    {"runtime.json_bytes", "B"},
    {"runtime.spec_parse_us", "us"},
    {"runtime.engine_overhead_ms", "ms"},
    {"runtime.unattributed_ms", "ms"},
    {"service.server_ms_p50", "ms"},
    {"service.server_ms_p99", "ms"},
    {"service.transport_ms_p50", "ms"},
    {"service.accepted", "count"},
    {"service.shed", "count"},
    {"service.queue_depth_max", "count"},
    {"service.request_p50_ms", "ms"},
    {"service.request_p99_ms", "ms"},
    {"service.max_rps", "1/s"},
    {"loadgen.lag_p99_ms", "ms"},
    {"loadgen.sent", "count"},
    {"bench.tracing_overhead", "x"},
    {"host.calib_mops", "Mops/s"},
    {"host.drift", "ratio"},
};

/// Host-drift tolerance: calibration rates of one run further apart than
/// this flag the run. An idle 4-vCPU VM already spreads ~14% between
/// sub-second samples, so the flag is set above that floor.
constexpr double kDriftTolerance = 0.20;

perfbench::Options parse_args(int argc, char** argv) {
    perfbench::Options options;
    options.process_start = std::chrono::steady_clock::now();
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
            throw std::runtime_error("usage: perfbench --workload W --seed N --seconds S "
                                     "--trace 0|1 --config FILE [--trace-out FILE]");
        }
        args[key.substr(2)] = argv[++i];
    }
    const auto need = [&](const char* key) {
        const auto it = args.find(key);
        if (it == args.end()) throw std::runtime_error(std::string("missing --") + key);
        return it->second;
    };
    options.workload = need("workload");
    options.seed = std::stoull(need("seed"));
    options.seconds = std::stod(need("seconds"));
    options.trace = need("trace") == "1";
    options.config_path = need("config");
    options.trace_out = args.count("trace-out") ? args["trace-out"]
                                                : "perfbench-" + options.workload + ".trace.json";
    if (options.seconds <= 0) throw std::runtime_error("--seconds wants > 0");
    std::ifstream in(options.config_path);
    if (!in) throw std::runtime_error("cannot read " + options.config_path);
    std::stringstream text;
    text << in.rdbuf();
    options.config = focs::json::parse(text.str()).object();
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    options.jobs = static_cast<int>(std::min(hw, 4u));
    return options;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::Options options;
    perfbench::Report report;
    try {
        options = parse_args(argc, argv);
        if (options.workload == "sweep_cold") {
            perfbench::run_sweep_cold(options, report);
        } else if (options.workload == "design_space") {
            perfbench::run_design_space(options, report);
        } else if (options.workload == "daemon_small") {
            perfbench::run_daemon_small(options, report);
        } else {
            throw std::runtime_error("unknown workload '" + options.workload + "'");
        }
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }

    const double drift = perfbench::drift(report.calibrations());
    report.note("host calibration: median " + std::to_string(perfbench::median(report.calibrations())) +
                " Mops/s, drift " + std::to_string(drift) + " over " +
                std::to_string(report.calibrations().size()) + " samples");
    if (drift > kDriftTolerance) {
        report.note("HOST DRIFT: calibration rate varied by " + std::to_string(drift * 100) +
                    "% within this run; compare its timings with care");
    }
    if (options.trace) {
        report.metric("host.calib_mops", perfbench::median(report.calibrations()));
        report.metric("host.drift", drift);
    } else {
        report.metric("peak_rss_mb", perfbench::peak_rss_mib());
    }

    // Every metric of the run's list, in BENCHMARK.json order. A layer the
    // workload does not exercise reads 0 (e.g. service.* on the sweeps).
    std::map<std::string, const Metric*> measured;
    for (const Metric& m : report.metrics()) measured[m.name] = &m;
    std::vector<Metric> out;
    const auto emit = [&](const MetricDef& def) {
        const auto it = measured.find(def.name);
        Metric m{def.name, 0, def.unit, 0};
        if (it != measured.end()) {
            m.value = it->second->value;
            m.samples = it->second->samples;
            measured.erase(it);
        }
        if (!std::isfinite(m.value)) {
            report.check(false, std::string("metric ") + def.name + " is not finite");
            m.value = 0;
        }
        out.push_back(m);
    };
    if (options.trace) {
        for (const MetricDef& def : kPerLayer) emit(def);
    } else {
        for (const MetricDef& def : kEndToEnd) emit(def);
    }
    for (const auto& [name, metric] : measured) {
        (void)metric;
        std::cerr << "perfbench: internal error: metric '" << name << "' is not declared\n";
        return 3;
    }

    for (const std::string& line : report.notes()) std::cout << "# " << line << "\n";
    std::printf("%-36s %16s %-6s %8s\n", "metric", "value", "unit", "samples");
    for (const Metric& m : out) {
        std::printf("%-36s %16.6g %-6s %8zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                    m.samples);
    }
    std::printf("%-36s %16.6g %-6s %8llu\n", "error_rate",
                report.attempted() ? static_cast<double>(report.failed()) /
                                         static_cast<double>(report.attempted())
                                   : 0.0,
                "ratio", static_cast<unsigned long long>(report.attempted()));

    std::string json = "{\"correct\": ";
    json += report.correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted());
    json += ", \"failed\": " + std::to_string(report.failed());
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (i) json += ", ";
        json += focs::runtime::json_string(out[i].name) +
                ": {\"value\": " + focs::runtime::json_number(out[i].value) +
                ", \"unit\": " + focs::runtime::json_string(out[i].unit) + "}";
    }
    json += "}}";
    std::cout << json << std::endl;
    return 0;
}
