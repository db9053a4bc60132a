#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "bench.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "runtime/result_io.hpp"
#include "workloads/kernel.hpp"

namespace perfbench {

using focs::runtime::SweepCell;
using focs::runtime::SweepResult;
using focs::runtime::SweepSpec;

void Report::metric(const std::string& name, double value, std::size_t samples) {
    metrics_.push_back({name, value, "", samples});
}

void Report::ops(std::uint64_t n, std::uint64_t failed, const std::string& what) {
    attempted_ += n;
    failed_ += failed;
    if (failed) std::cerr << "perfbench: " << failed << " of " << n << " failed: " << what << "\n";
}

void Report::check(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    correct_ = false;
    std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::calibrate() { calibrations_.push_back(calibration_rate_mops()); }

std::string expected_digest(const Options& options, const std::string& key) {
    const auto digests = options.config.find("digests");
    if (digests == options.config.end() || !digests->second.is_object()) return "";
    const auto& table = digests->second.object();
    const auto it = table.find(key);
    return it != table.end() && it->second.is_string() ? it->second.string() : "";
}

double ms_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
        .count();
}

double peak_rss_mib() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::vector<double> column_walls_ms(const SweepResult& result, std::size_t generators) {
    std::vector<double> walls;
    for (std::size_t i = 0; i < result.cells.size(); i += std::max<std::size_t>(1, generators)) {
        walls.push_back(result.cells[i].wall_ms);
    }
    return walls;
}

double column_busy_ms(const SweepResult& result, std::size_t generators) {
    double busy = 0;
    for (const double wall : column_walls_ms(result, generators)) busy += wall;
    return busy;
}

void check_result(Report& report, const SweepResult& result, const std::string& where) {
    report.ops(result.cells.size(), result.cells_failed + result.cells_cancelled,
               "cells of " + where);
    if (focs::runtime::SweepSpec::parse(result.spec_text).lut_guard_ps == 0) return;
    std::uint64_t violating = 0;
    for (const SweepCell& cell : result.cells) {
        if (cell.ok() && cell.policy.rfind("approx-lut", 0) != 0 &&
            cell.result.timing_violations != 0) {
            ++violating;
        }
    }
    report.check(violating == 0, std::to_string(violating) +
                                     " non-approx-lut cells with timing violations in " + where);
}

namespace {

/// A cell serialized alone, without its run-dependent timing: two cells
/// with equal documents are byte-identical results.
std::string cell_doc(const SweepCell& cell) {
    SweepResult single;
    single.cells.push_back(cell);
    single.cells.back().wall_ms = 0;
    single.cells.back().queue_wait_ms = 0;
    return focs::runtime::to_json(single, false);
}

}  // namespace

bool same_cell(const SweepCell& a, const SweepCell& b) { return cell_doc(a) == cell_doc(b); }

void check_live_oracle(Report& report, const std::vector<SweepSpec>& specs,
                       const std::vector<SweepResult>& results,
                       const std::shared_ptr<focs::runtime::ArtifactCache>& cache,
                       std::uint64_t seed, std::size_t samples) {
    std::vector<std::pair<std::size_t, std::size_t>> all;
    for (std::size_t s = 0; s < results.size(); ++s) {
        for (std::size_t c = 0; c < results[s].cells.size(); ++c) all.emplace_back(s, c);
    }
    // Seeded partial Fisher-Yates over every (spec, cell) pair.
    focs::Rng rng(seed);
    samples = std::min(samples, all.size());
    const focs::runtime::SweepEngine live(1, cache, focs::runtime::EvalMode::kLive);
    for (std::size_t i = 0; i < samples; ++i) {
        std::swap(all[i], all[i + rng.next_below(all.size() - i)]);
        const auto [s, c] = all[i];
        const SweepCell& cell = results[s].cells[c];
        SweepSpec single = specs[s].resolved();
        single.kernels = {cell.kernel};
        single.policies = {focs::core::PolicySpec::parse(cell.policy)};
        single.generators = {focs::runtime::GeneratorSpec::parse(cell.generator)};
        single.voltages_v = {cell.voltage_v};
        const SweepResult oracle = live.run(single);
        report.check(oracle.cells.size() == 1 && same_cell(oracle.cells[0], cell),
                     "live oracle disagrees with replay on " + cell.kernel + "/" + cell.policy +
                         "/" + cell.generator + "@" + std::to_string(cell.voltage_v));
    }
}

std::vector<std::string> suite_kernels() {
    std::vector<std::string> names;
    for (const auto& kernel : focs::workloads::benchmark_suite()) names.push_back(kernel.name);
    return names;
}

void write_trace(const Options& options, const focs::obs::SpanTracer& tracer,
                 const focs::runtime::ArtifactCache& cache) {
    const focs::obs::MetricsSnapshot metrics = cache.metrics_snapshot();
    std::ofstream out(options.trace_out);
    out << tracer.export_chrome_json(&metrics);
    if (!out) throw std::runtime_error("cannot write " + options.trace_out);
}

}  // namespace perfbench
