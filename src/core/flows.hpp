// End-to-end flows of the paper's methodology (Fig. 2).
//
// CharacterizationFlow: program binaries -> cycle-accurate execution with
// the synthetic gate-level delay model -> endpoint event stream + occupancy
// attribution -> dynamic timing analysis -> per-instruction delay LUT. The
// event stream is folded into the analysis as it is produced; no event log
// is stored.
//
// EvaluationFlow: benchmark binaries + delay LUT -> delay-annotated ISS
// runs under a selectable policy/clock generator -> effective clock
// frequency, speedup and safety statistics.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "asm/program.hpp"
#include "common/cancel.hpp"
#include "core/dca_engine.hpp"
#include "core/policies.hpp"
#include "dta/analyzer.hpp"
#include "dta/delay_table.hpp"
#include "timing/design_config.hpp"
#include "timing/netlist.hpp"

namespace focs::core {

/// How the characterization flow ingests the gate-level event stream.
enum class CharacterizationMode {
    /// Batched single-pass: cycles are distilled into batch slots and the
    /// SoA endpoint kernel folds whole blocks straight into the analyzer
    /// (optionally on worker threads — see CharacterizationOptions). No
    /// events are built; delay tables, figure histograms and statistics are
    /// byte-identical to kStreaming. This is the
    /// default (and what the sweep runtime uses).
    kBatched,
    /// Per-cycle single-pass: every cycle's endpoint events are built in a
    /// scratch buffer and folded into the analyzer through the EventSink
    /// interface. The reference implementation of the event-level protocol
    /// that kBatched must reproduce (tests, CI byte-diffs and the bench's
    /// batched-vs-streaming ratio).
    kStreaming,
};

/// Knobs of the characterization run. All combinations produce identical
/// results; they only trade wall-clock time and memory.
struct CharacterizationOptions {
    CharacterizationMode mode = CharacterizationMode::kBatched;
    /// Endpoint-kernel worker threads (kBatched only): <= 1 runs the batch
    /// kernel inline, N > 1 adds intra-flow pipeline parallelism (N kernel
    /// workers + one merger behind a bounded slot ring).
    int threads = 1;
    /// Cycles per batch slot (kBatched only).
    int batch_cycles = 1024;
    /// Optional cooperative cancellation: polled between programs (both
    /// modes) and at batch-slot boundaries (kBatched); a fired token
    /// throws CancelledError. nullptr = never cancelled.
    const CancellationToken* cancel = nullptr;
};

struct CharacterizationResult {
    dta::DelayTable table;
    double static_period_ps = 0;
    double genie_mean_period_ps = 0;
    double genie_speedup = 0;  ///< static period / genie mean period
    std::uint64_t cycles = 0;
    /// Full analysis object for figure-level queries (histograms, per-
    /// instruction stats).
    std::shared_ptr<dta::DynamicTimingAnalysis> analysis;
};

class CharacterizationFlow {
public:
    explicit CharacterizationFlow(const timing::DesignConfig& design,
                                  dta::AnalyzerConfig analyzer_config = {},
                                  sim::MachineConfig machine_config = {});

    /// Runs every program through the gate-level-style flow and merges all
    /// cycles into one analysis (the paper's characterization benchmark of
    /// ~14k cycles is a concatenation of kernels and semi-random tests).
    /// Both modes produce byte-identical delay tables; see
    /// CharacterizationMode / CharacterizationOptions for the trade-offs.
    CharacterizationResult run(const std::vector<assembler::Program>& programs,
                               const CharacterizationOptions& options = {}) const;

    /// Mode-only convenience overload (default thread/batch knobs).
    CharacterizationResult run(const std::vector<assembler::Program>& programs,
                               CharacterizationMode mode) const {
        CharacterizationOptions options;
        options.mode = mode;
        return run(programs, options);
    }

    const timing::SyntheticNetlist& netlist() const { return netlist_; }
    const timing::DelayCalculator& calculator() const { return calculator_; }

private:
    timing::DesignConfig design_;
    dta::AnalyzerConfig analyzer_config_;
    sim::MachineConfig machine_config_;
    timing::SyntheticNetlist netlist_;
    timing::DelayCalculator calculator_;
};

/// One benchmark evaluated under one policy.
struct BenchmarkRow {
    std::string benchmark;
    DcaRunResult result;
};

struct SuiteResult {
    std::vector<BenchmarkRow> rows;
    double mean_eff_freq_mhz = 0;  ///< arithmetic mean over benchmarks
    double mean_speedup = 0;       ///< arithmetic mean of per-benchmark speedups
    std::uint64_t total_violations = 0;
};

/// Evaluates one sweep cell: `program` under `policy` against a prepared
/// delay table, optionally through a concrete clock generator. This is the
/// unit of work the runtime's SweepEngine schedules onto worker threads —
/// it constructs all mutable state (engine, policy) locally, so concurrent
/// calls sharing `table` and `program` (both read-only here) are safe. A
/// bare PolicyKind converts implicitly (default parameter).
DcaRunResult evaluate_cell(const timing::DesignConfig& design, const dta::DelayTable& table,
                           const assembler::Program& program, const PolicySpec& policy,
                           clocking::ClockGenerator* generator = nullptr,
                           const sim::MachineConfig& machine_config = {});

class EvaluationFlow {
public:
    EvaluationFlow(const timing::DesignConfig& design, const dta::DelayTable& table,
                   sim::MachineConfig machine_config = {});

    /// Runs one program under `kind` with an ideal clock generator (or
    /// `generator` when provided).
    DcaRunResult run_one(const assembler::Program& program, PolicyKind kind,
                         clocking::ClockGenerator* generator = nullptr) const;

    /// Runs a whole named suite under `kind`.
    SuiteResult run_suite(const std::vector<std::pair<std::string, assembler::Program>>& suite,
                          PolicyKind kind, clocking::ClockGenerator* generator = nullptr) const;

    double static_period_ps() const;

private:
    timing::DesignConfig design_;
    const dta::DelayTable* table_;
    sim::MachineConfig machine_config_;
};

}  // namespace focs::core
