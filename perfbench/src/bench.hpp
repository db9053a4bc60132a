// Shared plumbing of the benchmark's workloads: run options, the metric
// and check ledger every workload fills, and the layer-by-layer executor
// the traced runs use.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/span_tracer.hpp"
#include "runtime/artifact_cache.hpp"
#include "runtime/sweep_engine.hpp"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string config_path;  ///< perfbench/expected.json
    std::string trace_out;    ///< where a traced run writes its span file
    focs::json::Object config;
    int jobs = 1;  ///< min(nproc, 4)
    std::chrono::steady_clock::time_point process_start;
};

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    std::size_t samples = 0;  ///< measurements behind the value (0: a count)
};

/// Everything one run reports: metrics (units come from the declared
/// metric lists in main.cpp), the operation and check ledger behind
/// `attempted` / `failed`, host calibration samples and notes for the log.
class Report {
public:
    void metric(const std::string& name, double value, std::size_t samples = 0);
    /// Counts `n` operations of which `failed` failed; logs `what` on any.
    void ops(std::uint64_t n, std::uint64_t failed, const std::string& what);
    /// A correctness check: counts as an operation and, when it fails,
    /// as a failed one that also clears `correct`.
    void check(bool ok, const std::string& what);
    void note(const std::string& line);
    /// Records one host calibration sample (see calibration_rate_mops).
    void calibrate();

    const std::vector<Metric>& metrics() const { return metrics_; }
    const std::vector<std::string>& notes() const { return notes_; }
    const std::vector<double>& calibrations() const { return calibrations_; }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    bool correct() const { return correct_; }

private:
    std::vector<Metric> metrics_;
    std::vector<std::string> notes_;
    std::vector<double> calibrations_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool correct_ = true;
};

/// Stored digest of a workload's canonical results (expected.json), or "".
std::string expected_digest(const Options& options, const std::string& key);

/// Wall time in ms since `start`.
double ms_since(std::chrono::steady_clock::time_point start);

/// Peak resident set of this process in MiB.
double peak_rss_mib();

/// Busy time of one sweep: cells of a fused column share the column's wall
/// time, so this sums one wall per column.
double column_busy_ms(const focs::runtime::SweepResult& result, std::size_t generators);

/// Wall times in ms of every column (one per `generators` adjacent cells).
std::vector<double> column_walls_ms(const focs::runtime::SweepResult& result,
                                    std::size_t generators);

/// Checks shared by every workload on one sweep result: every cell ok and
/// zero timing violations outside approx-lut (the paper's invariant). The
/// invariant needs the LUT guard band: a design point with guard_ps = 0
/// builds its LUT from bare observed maxima and its lut cells do violate,
/// so those points are held to their stored digest instead.
void check_result(Report& report, const focs::runtime::SweepResult& result,
                  const std::string& where);

/// True when two cells hold byte-identical results (timing ignored).
bool same_cell(const focs::runtime::SweepCell& a, const focs::runtime::SweepCell& b);

/// Cells the live oracle re-evaluates per run.
constexpr std::size_t kOracleCells = 24;

/// Re-evaluates `samples` seeded cells of `results` (each produced from the
/// matching spec) with EvalMode::kLive on `cache`, and checks each matches
/// its replayed cell byte for byte.
void check_live_oracle(Report& report, const std::vector<focs::runtime::SweepSpec>& specs,
                       const std::vector<focs::runtime::SweepResult>& results,
                       const std::shared_ptr<focs::runtime::ArtifactCache>& cache,
                       std::uint64_t seed, std::size_t samples);

/// Layer times of one pass of the layer-by-layer executor, in ms of span
/// self time.
struct LayerTimes {
    double asm_ms = 0, dta_ms = 0, sim_ms = 0, timing_ms = 0, core_ms = 0, column_ms = 0;
    double traced_wall_ms = 0;
    std::uint64_t programs = 0, characterizations = 0, trace_cycles = 0, replayed_cycles = 0;
    double unit_delay_cycles = 0;

    double sum_ms() const { return asm_ms + dta_ms + sim_ms + timing_ms + core_ms + column_ms; }
};

/// Runs `specs` at one job, layer by layer, through the public entry points
/// (ArtifactCache::{program,delay_table,trace,unit_trace_delays} and
/// ReplayEvaluationEngine::run_fused), recording a span around each call
/// on `tracer` with the name the program's own tracer uses for that layer
/// (the caller resets the tracer; other spans on it do not disturb the
/// layer sums).
/// Checks every replayed cell against `reference` (the engine's results
/// for the same specs).
LayerTimes run_layered(const std::vector<focs::runtime::SweepSpec>& specs,
                       focs::runtime::ArtifactCache& cache, focs::obs::SpanTracer& tracer,
                       const std::vector<focs::runtime::SweepResult>& reference,
                       Report& report);

/// Replay rate in cycles/s of every column of `specs` whose generator is
/// of `kind`, replayed alone (one generator per run_fused call) on a cache
/// already holding the artifacts. 0 when no column uses that kind.
double replay_rate(const std::vector<focs::runtime::SweepSpec>& specs,
                   focs::runtime::ArtifactCache& cache,
                   focs::runtime::GeneratorSpec::Kind kind);

/// The paper's Fig. 8 figure: mean speedup_vs_static of the lut / ideal
/// cells at 0.70 V.
double mean_lut_speedup(const std::vector<focs::runtime::SweepResult>& results);

/// Per-layer metrics shared by every workload's traced run.
void report_layers(Report& report, const LayerTimes& layers, double untraced_wall_ms,
                   std::size_t samples);

/// The three workloads.
void run_sweep_cold(const Options& options, Report& report);
void run_design_space(const Options& options, Report& report);
void run_daemon_small(const Options& options, Report& report);

/// The 19-kernel benchmark suite, in registry order.
std::vector<std::string> suite_kernels();

/// Writes the traced run's span file (Chrome trace-event JSON with the
/// cache's counters embedded).
void write_trace(const Options& options, const focs::obs::SpanTracer& tracer,
                 const focs::runtime::ArtifactCache& cache);

}  // namespace perfbench
