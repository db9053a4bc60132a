#include "runtime/sweep_engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "core/replay_engine.hpp"
#include "obs/span_tracer.hpp"
#include "timing/delay_model.hpp"

namespace focs::runtime {

namespace {

/// One expanded grid cell awaiting execution.
struct SweepJob {
    std::string kernel;
    core::PolicySpec policy;
    const GeneratorSpec* generator = nullptr;
    timing::DesignConfig design;
};

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// What one replay column's cells acquired: each cell's delay-table future
/// (unset when the cell was drained or failed before it fetched one) and
/// the trace and unit-delay futures the column replays over.
struct ColumnArtifacts {
    std::vector<std::optional<std::shared_future<dta::DelayTable>>> tables;
    std::shared_future<sim::PipelineTrace> trace;
    std::shared_future<std::shared_ptr<const timing::UnitTraceDelays>> unit_delays;
    /// Wall time of a kernel leader's acquire unit; 0 for other columns.
    double acquire_ms = 0;
};

/// A kernel leader's artifacts, filled by its acquire unit and handed to
/// its column unit once `acquired` is set.
struct LeaderSlot {
    ColumnArtifacts artifacts;
    std::atomic<bool> acquired{false};
};

/// Releases a leader's handoff when its acquire unit leaves scope, on every
/// exit path (return, fail-fast abort, throw), so the column unit waiting
/// on it never blocks forever.
struct HandoffRelease {
    LeaderSlot& slot;
    Clock::time_point dequeued;

    ~HandoffRelease() {
        slot.artifacts.acquire_ms = ms_since(dequeued);
        slot.acquired.store(true, std::memory_order_release);
        slot.acquired.notify_all();
    }
};

/// Nearest-rank percentile of an already-sorted ascending sample vector.
double nearest_rank(const std::vector<double>& sorted, double percentile) {
    if (sorted.empty()) return 0;
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(percentile / 100.0 * static_cast<double>(sorted.size())));
    return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Grid coordinates of one cell, "kernel/policy/generator@<V>V" — the
/// fault-injection key of the eval.cell site and the identity stamped into
/// fail-fast errors and CLI failure summaries.
std::string cell_key(const SweepCell& cell) {
    char volts[32];
    std::snprintf(volts, sizeof volts, "%.6g", cell.voltage_v);
    return cell.kernel + "/" + cell.policy + "/" + cell.generator + "@" + volts + "V";
}

/// Classifies a thrown cell failure onto the cell: cancellation codes map
/// to CellStatus::kCancelled, everything else to kFailed (focs::Error
/// keeps its code; foreign exceptions read as plain evaluation failures).
void record_failure(SweepCell& cell, const std::exception& e) {
    ErrorCode code = ErrorCode::kEvaluation;
    if (const auto* error = dynamic_cast<const Error*>(&e);
        error != nullptr && error->code() != ErrorCode::kUnknown) {
        code = error->code();
    }
    cell.error = e.what();
    cell.error_code = code;
    cell.status = code == ErrorCode::kDeadline || code == ErrorCode::kCancelled
                      ? CellStatus::kCancelled
                      : CellStatus::kFailed;
}

}  // namespace

std::string eval_mode_name(EvalMode mode) {
    switch (mode) {
        case EvalMode::kReplay: return "replay";
        case EvalMode::kLive: return "live";
    }
    check(false, "unknown eval mode");
    return {};
}

EvalMode parse_eval_mode(const std::string& name) {
    if (name == "replay") return EvalMode::kReplay;
    if (name == "live") return EvalMode::kLive;
    throw Error("unknown evaluation mode '" + name + "' (replay|live)");
}

std::string cell_status_name(CellStatus status) {
    switch (status) {
        case CellStatus::kOk: return "ok";
        case CellStatus::kFailed: return "failed";
        case CellStatus::kCancelled: return "cancelled";
    }
    check(false, "unknown cell status");
    return {};
}

CellStatus parse_cell_status(const std::string& name) {
    if (name == "ok") return CellStatus::kOk;
    if (name == "failed") return CellStatus::kFailed;
    if (name == "cancelled") return CellStatus::kCancelled;
    throw Error("unknown cell status '" + name + "' (ok|failed|cancelled)");
}

std::string stable_text_hash(const std::string& text) {
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x00000100000001b3ull;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "fnv1a:%016llx", static_cast<unsigned long long>(hash));
    return buf;
}

SweepEngine::SweepEngine(int jobs, std::shared_ptr<ArtifactCache> cache, EvalMode mode)
    : jobs_(jobs), cache_(std::move(cache)), mode_(mode) {
    if (!cache_) cache_ = std::make_shared<ArtifactCache>();
}

dta::AnalyzerConfig SweepEngine::analyzer_config_for(const SweepSpec& spec) {
    dta::AnalyzerConfig config;
    if (spec.lut_guard_ps >= 0) config.lut_guard_ps = spec.lut_guard_ps;
    if (spec.min_occurrences >= 0) config.min_occurrences = spec.min_occurrences;
    return config;
}

SweepResult SweepEngine::run(const SweepSpec& raw_spec, const SweepRunOptions& options) const {
    const auto start = Clock::now();
    const SweepSpec spec = raw_spec.resolved();
    check(!spec.kernels.empty(), "sweep has no kernels");

    const dta::AnalyzerConfig analyzer_config = analyzer_config_for(spec);
    const std::uint64_t tables_before = cache_->characterizations_built();
    const std::uint64_t nominal_before = cache_->nominal_passes();
    const std::uint64_t views_before = cache_->scaled_views();
    const std::uint64_t hits_before = cache_->cache_hits();
    const std::uint64_t traces_before = cache_->traces_recorded();
    const std::uint64_t unit_passes_before = cache_->unit_delay_passes();
    const std::uint64_t unit_reuses_before = cache_->unit_delay_reuses();
    // Per-class cache outcomes: capture the embedded registry's totals now
    // and stamp the delta into the result's metrics block afterwards.
    const auto classes = {ArtifactClass::kProgram, ArtifactClass::kDelayTable,
                          ArtifactClass::kTrace, ArtifactClass::kUnitDelays};
    std::array<ArtifactClassCounters, 4> class_before;
    for (const ArtifactClass artifact_class : classes) {
        class_before[static_cast<std::size_t>(artifact_class)] =
            cache_->class_counters(artifact_class);
    }

    // Expand the grid in deterministic declaration order: voltage-major so
    // one operating point's cells are adjacent, then kernel, policy,
    // generator.
    std::vector<SweepJob> jobs_list;
    jobs_list.reserve(spec.cell_count());
    for (const double voltage : spec.voltages_v) {
        for (const auto& kernel : spec.kernels) {
            for (const auto policy : spec.policies) {
                for (const auto& generator : spec.generators) {
                    jobs_list.push_back(
                        SweepJob{kernel, policy, &generator, spec.design_for(voltage)});
                }
            }
        }
    }

    // Scheduling units. Live mode schedules one unit per cell. Replay mode
    // schedules (voltage, kernel, policy) columns: the expansion above is
    // generator-innermost, so a column's cells sit at adjacent indices, and
    // one fused pass over the shared trace serves every generator variant
    // of the column (one request fill; the request array depends only on
    // the policy). Either way every cell's result is byte-identical.
    const std::size_t group_size = std::max<std::size_t>(1, spec.generators.size());
    const bool fuse_columns = mode_ == EvalMode::kReplay;
    const std::size_t column_count =
        fuse_columns ? jobs_list.size() / group_size : jobs_list.size();

    // Kernel leaders (replay only): a kernel's first column in declaration
    // order. Each leader gets an acquire-only unit ahead of every column
    // unit, so the pool's first units elect the nominal characterization
    // and record every kernel's trace and unit delays side by side instead
    // of queueing behind the table on kernel 0's columns.
    constexpr std::size_t kNoLeader = static_cast<std::size_t>(-1);
    std::vector<std::size_t> leader_columns;
    std::vector<std::size_t> leader_of(fuse_columns ? column_count : 0, kNoLeader);
    std::set<std::string> led_kernels;
    for (std::size_t group = 0; group < leader_of.size(); ++group) {
        if (led_kernels.insert(jobs_list[group * group_size].kernel).second) {
            leader_of[group] = leader_columns.size();
            leader_columns.push_back(group);
        }
    }
    std::vector<LeaderSlot> leaders(leader_columns.size());
    const std::size_t unit_count = leaders.size() + column_count;

    // Jobs precedence: explicit engine argument (e.g. a --jobs flag) beats
    // the spec's `jobs =` line, which beats hardware concurrency. The pool
    // never exceeds the number of cells (live) or columns (replay).
    int worker_count = jobs_ > 0 ? jobs_ : spec.jobs;
    if (worker_count <= 0) worker_count = static_cast<int>(std::thread::hardware_concurrency());
    if (worker_count <= 0) worker_count = 1;
    worker_count = std::max(1, std::min<int>(worker_count, static_cast<int>(column_count)));

    // Intra-flow parallelism for characterization builds: the workers are
    // divided by the grid's distinct per-voltage design keys and the
    // quotient becomes the batched characterization engine's thread count.
    // Only distinct nominal keys actually run a characterization (every
    // per-voltage table is derived from its nominal statistics), but the
    // divisor still counts voltages, so any grid with at least as many
    // voltages as workers characterizes on one thread. A one-voltage grid
    // on 8 workers runs its single characterization on 8 threads.
    std::set<std::string> operating_points;
    for (const SweepJob& job : jobs_list) {
        operating_points.insert(ArtifactCache::design_key(job.design, analyzer_config));
    }
    const int flow_threads = std::clamp(
        worker_count / std::max<int>(1, static_cast<int>(operating_points.size())), 1, 8);

    SweepResult result;
    result.cells.resize(jobs_list.size());
    result.jobs = worker_count;
    result.mode = eval_mode_name(mode_);
    result.spec_text = spec.serialize();
    result.spec_hash = stable_text_hash(result.spec_text);

    FOCS_OBS_SPAN(sweep_span, obs::global_tracer(), "sweep.run");
    sweep_span.arg("mode", result.mode)
        .arg("cells", static_cast<std::int64_t>(jobs_list.size()))
        .arg("jobs", static_cast<std::int64_t>(worker_count));

    std::atomic<std::size_t> cursor{0};
    // Set only in fail-fast mode: sibling workers observe it at their next
    // unit boundary and stop pulling units. Keep-going never sets it — a
    // failing cell must not starve its siblings (each failure stays on its
    // own cell).
    std::atomic<bool> abort_sweep{false};
    std::exception_ptr first_error;
    // Every exception that failed a cell, held until the pool has joined.
    // An artifact failure reaches all its waiting cells as one shared
    // exception object, reference-counted inside the (uninstrumented) C++
    // runtime; releasing the objects on this thread after the join keeps
    // the frees ordered after every worker's reads in a
    // ThreadSanitizer build too.
    std::vector<std::exception_ptr> failures;
    std::mutex error_mutex;

    // Records the exception being handled as `cell`'s failure. Fail-fast
    // also stores it as the sweep's first error and aborts the pool.
    // Returns true when the caller must stop pulling work. Fail-fast names
    // the failing cell: the whole point of aborting early is telling the
    // user where.
    const auto fail_cell = [&](SweepCell& cell, const std::exception& e) {
        record_failure(cell, e);
        std::lock_guard<std::mutex> lock(error_mutex);
        failures.push_back(std::current_exception());
        if (options.failure_mode != FailureMode::kFailFast) return false;
        if (!first_error) {
            first_error = std::make_exception_ptr(Error(
                "sweep cell " + cell_key(cell) + " failed: " + cell.error, cell.error_code));
        }
        abort_sweep.store(true, std::memory_order_relaxed);
        return true;
    };

    // Labels a cell ahead of evaluation (so failed and cancelled cells
    // still carry their grid coordinates) and stamps its queue wait: the
    // job was runnable at sweep start, this is how long it sat before a
    // worker reached it.
    const auto label_cell = [&](std::size_t index, Clock::time_point dequeued) -> SweepCell& {
        const SweepJob& job = jobs_list[index];
        SweepCell& cell = result.cells[index];
        cell.kernel = job.kernel;
        cell.policy = job.policy.label();
        cell.generator = job.generator->label();
        cell.voltage_v = job.design.voltage_v;
        cell.queue_wait_ms = std::chrono::duration<double, std::milli>(dequeued - start).count();
        return cell;
    };

    // Cell-boundary cancellation check: once the token fires the remaining
    // queue drains as cancelled cells without paying for any further
    // evaluation. Returns true when the cell was drained.
    const auto drain_if_cancelled = [&](SweepCell& cell) {
        if (options.cancel == nullptr || !options.cancel->cancelled()) return false;
        cell.error_code = options.cancel->reason();
        cell.error = cell.error_code == ErrorCode::kDeadline
                         ? "deadline exceeded before evaluation"
                         : "cancelled before evaluation";
        cell.status = CellStatus::kCancelled;
        return true;
    };

    // Live evaluation of one cell: the full delay-annotated cycle-accurate
    // pipeline. Returns false when the worker must stop pulling work
    // (fail-fast abort).
    const auto evaluate_one = [&](std::size_t index) {
        const SweepJob& job = jobs_list[index];
        const auto dequeued = Clock::now();
        SweepCell& cell = label_cell(index, dequeued);
        if (drain_if_cancelled(cell)) return true;
        try {
            FOCS_OBS_SPAN(cell_span, obs::global_tracer(), "sweep.cell");
            cell_span.arg("kernel", job.kernel)
                .arg("policy", cell.policy)
                .arg("generator", cell.generator)
                .arg("voltage_v", job.design.voltage_v)
                .arg("queue_wait_ms", cell.queue_wait_ms);
            // The token rides into the inject point so an injected
            // delay rule cannot stall a cell past its deadline.
            FOCS_FAULT_POINT_CANCEL("eval.cell", cell_key(cell), options.cancel);
            // Shared artifacts: built once, then served from the cache.
            auto table_future =
                cache_->delay_table(job.design, analyzer_config, flow_threads, options.cancel,
                                    options.reference_characterization);
            auto program_future = cache_->program(job.kernel);
            const assembler::Program& program = program_future.get();
            const dta::DelayTable& table = table_future.get();

            // Private mutable state: engine, policy and generator are
            // constructed per job inside evaluate_cell / here.
            const double static_period_ps =
                timing::DelayCalculator(job.design).static_period_ps();
            const auto generator = job.generator->instantiate(static_period_ps);
            cell.result = core::evaluate_cell(
                job.design, table, program, job.policy,
                job.generator->kind == GeneratorSpec::Kind::kIdeal ? nullptr : generator.get());
            cell.wall_ms = ms_since(dequeued);
            cell_span.arg("wall_ms", cell.wall_ms);
        } catch (const std::exception& e) {
            cell.wall_ms = ms_since(dequeued);
            if (fail_cell(cell, e)) return false;
        }
        return true;
    };

    // Per-cell acquisition protocol of one replay column: each cell is
    // labelled, runs its cancellation drain and eval.cell fault point, and
    // fetches each artifact class exactly once, so a poisoned cache entry
    // fails only the cells that observed it and the next cell re-elects a
    // fresh builder. Only the trace and unit delays are waited on here;
    // the column unit waits on each cell's table. The table is fetched
    // first, so the first kernel leader elects the nominal characterization
    // at sweep start; `table_last` (every later leader) fetches it after
    // the trace and unit delays instead, so a later leader never holds the
    // characterization while its own kernel's trace waits behind it.
    // Returns false on fail-fast abort.
    const auto acquire_column = [&](std::size_t group, Clock::time_point dequeued,
                                    bool table_last, ColumnArtifacts& out) {
        out.tables.resize(group_size);
        for (std::size_t k = 0; k < group_size; ++k) {
            const std::size_t index = group * group_size + k;
            SweepCell& cell = label_cell(index, dequeued);
            if (drain_if_cancelled(cell)) continue;
            const SweepJob& job = jobs_list[index];
            try {
                // The token rides into the inject point so an injected
                // delay rule cannot stall a cell past its deadline.
                FOCS_FAULT_POINT_CANCEL("eval.cell", cell_key(cell), options.cancel);
                const auto fetch_table = [&] {
                    return cache_->delay_table(job.design, analyzer_config, flow_threads,
                                               options.cancel,
                                               options.reference_characterization);
                };
                std::shared_future<dta::DelayTable> table;
                if (!table_last) table = fetch_table();
                auto trace = cache_->trace(job.kernel);
                auto unit_delays = cache_->unit_trace_delays(job.kernel, job.design);
                if (table_last) table = fetch_table();
                trace.get();
                unit_delays.get();
                out.tables[k] = std::move(table);
                out.trace = std::move(trace);
                out.unit_delays = std::move(unit_delays);
            } catch (const std::exception& e) {
                if (fail_cell(cell, e)) return false;
            }
        }
        return true;
    };

    // Acquire-only unit of one kernel leader. The handoff to the leader's
    // column unit is released on every exit path.
    const auto acquire_leader = [&](std::size_t leader) {
        const auto dequeued = Clock::now();
        LeaderSlot& slot = leaders[leader];
        const HandoffRelease release{slot, dequeued};
        return acquire_column(leader_columns[leader], dequeued, /*table_last=*/leader > 0,
                              slot.artifacts);
    };

    // Column unit: acquires the column's artifacts (a leader takes over
    // what its acquire unit stashed, once handed off), waits on each cell's
    // table, and replays the surviving cells in one fused pass. A leader's
    // wall time is its acquire time plus the time from the handoff on, so
    // the gap between its two units is never counted. Returns false on
    // fail-fast abort.
    const auto evaluate_column = [&](std::size_t group) {
        ColumnArtifacts column;
        auto resumed = Clock::now();
        if (leader_of[group] != kNoLeader) {
            LeaderSlot& slot = leaders[leader_of[group]];
            slot.acquired.wait(false, std::memory_order_acquire);
            if (abort_sweep.load(std::memory_order_relaxed)) return false;
            column = std::move(slot.artifacts);
            resumed = Clock::now();
        } else if (!acquire_column(group, resumed, /*table_last=*/false, column)) {
            return false;
        }

        std::vector<std::size_t> live;
        live.reserve(group_size);
        const dta::DelayTable* table = nullptr;
        for (std::size_t k = 0; k < group_size; ++k) {
            if (!column.tables[k]) continue;
            const std::size_t index = group * group_size + k;
            try {
                table = &column.tables[k]->get();
                live.push_back(index);
            } catch (const std::exception& e) {
                if (fail_cell(result.cells[index], e)) return false;
            }
        }
        if (live.empty()) return true;
        try {
            const SweepJob& job = jobs_list[live.front()];
            FOCS_OBS_SPAN(column_span, obs::global_tracer(), "sweep.column");
            column_span.arg("kernel", job.kernel)
                .arg("policy", result.cells[live.front()].policy)
                .arg("voltage_v", job.design.voltage_v)
                .arg("variants", static_cast<std::int64_t>(live.size()));
            const sim::PipelineTrace& trace = column.trace.get();
            const timing::DelayCalculator calculator(job.design);
            const timing::ScaledTraceDelays delays =
                timing::scale_trace_delays(column.unit_delays.get(), calculator);

            // Per-variant generators (mutable; nullptr = ideal), in the
            // column's declaration order.
            std::vector<std::unique_ptr<clocking::ClockGenerator>> owned;
            std::vector<clocking::ClockGenerator*> variants;
            owned.reserve(live.size());
            variants.reserve(live.size());
            for (const std::size_t index : live) {
                const SweepJob& variant_job = jobs_list[index];
                owned.push_back(variant_job.generator->instantiate(delays.static_period_ps));
                variants.push_back(variant_job.generator->kind == GeneratorSpec::Kind::kIdeal
                                       ? nullptr
                                       : owned.back().get());
            }
            core::ReplayOptions replay_options;
            replay_options.cancel = options.cancel;
            replay_options.force_scalar = options.force_scalar_replay;
            const core::ReplayEvaluationEngine replay(trace, delays, *table, replay_options);
            auto fused = replay.run_fused(job.policy, variants);

            // The fused pass is shared work: every participating cell gets
            // the column's wall time (run-dependent fields either way).
            const double wall = column.acquire_ms + ms_since(resumed);
            for (std::size_t k = 0; k < live.size(); ++k) {
                SweepCell& cell = result.cells[live[k]];
                cell.result = std::move(fused[k]);
                cell.wall_ms = wall;
            }
            column_span.arg("wall_ms", wall);
        } catch (const std::exception& e) {
            const double wall = column.acquire_ms + ms_since(resumed);
            bool stop = false;
            for (const std::size_t index : live) {
                result.cells[index].wall_ms = wall;
                stop = fail_cell(result.cells[index], e) || stop;
            }
            if (stop) return false;
        }
        return true;
    };

    // Replay units: every leader's acquire unit, then every column in
    // declaration order. A unit is always run once dequeued, and a leader's
    // acquire unit precedes its column unit on the cursor, so the handoff a
    // column unit waits on has always been taken by some worker.
    const auto worker = [&] {
        while (!abort_sweep.load(std::memory_order_relaxed)) {
            const std::size_t unit = cursor.fetch_add(1, std::memory_order_relaxed);
            if (unit >= unit_count) return;
            const bool keep_going = !fuse_columns            ? evaluate_one(unit)
                                    : unit < leaders.size() ? acquire_leader(unit)
                                                            : evaluate_column(unit - leaders.size());
            if (!keep_going) return;
        }
    };

    if (worker_count <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(worker_count));
        for (int i = 0; i < worker_count; ++i) pool.emplace_back(worker);
        for (auto& thread : pool) thread.join();
    }
    if (first_error) std::rethrow_exception(first_error);

    // Aggregate over surviving cells only: a failed cell's zeroed result
    // must not drag the sweep's means toward 0.
    for (const auto& cell : result.cells) {
        switch (cell.status) {
            case CellStatus::kOk: ++result.cells_ok; break;
            case CellStatus::kFailed: ++result.cells_failed; break;
            case CellStatus::kCancelled: ++result.cells_cancelled; break;
        }
        if (!cell.ok()) continue;
        result.mean_eff_freq_mhz += cell.result.eff_freq_mhz;
        result.mean_speedup += cell.result.speedup_vs_static;
        result.total_violations += cell.result.timing_violations;
    }
    if (result.cells_ok > 0) {
        result.mean_eff_freq_mhz /= static_cast<double>(result.cells_ok);
        result.mean_speedup /= static_cast<double>(result.cells_ok);
    }
    result.characterizations = cache_->characterizations_built() - tables_before;
    result.nominal_passes = cache_->nominal_passes() - nominal_before;
    result.scaled_views = cache_->scaled_views() - views_before;
    result.cache_hits = cache_->cache_hits() - hits_before;
    result.guest_simulations = mode_ == EvalMode::kReplay
                                   ? cache_->traces_recorded() - traces_before
                                   : static_cast<std::uint64_t>(result.cells.size());
    result.unit_delay_passes = cache_->unit_delay_passes() - unit_passes_before;
    result.unit_delay_reuses = cache_->unit_delay_reuses() - unit_reuses_before;

    // Metrics block: per-class cache deltas over this sweep plus the exact
    // per-cell wall-time distribution.
    const auto class_delta = [&](ArtifactClass artifact_class) {
        const ArtifactClassCounters now = cache_->class_counters(artifact_class);
        const ArtifactClassCounters& before =
            class_before[static_cast<std::size_t>(artifact_class)];
        return ArtifactClassCounters{now.miss - before.miss, now.hit - before.hit,
                                     now.wait - before.wait};
    };
    result.metrics.program = class_delta(ArtifactClass::kProgram);
    result.metrics.delay_table = class_delta(ArtifactClass::kDelayTable);
    result.metrics.trace = class_delta(ArtifactClass::kTrace);
    result.metrics.unit_delays = class_delta(ArtifactClass::kUnitDelays);
    std::vector<double> walls;
    walls.reserve(result.cells.size());
    for (const auto& cell : result.cells) {
        walls.push_back(cell.wall_ms);
        result.metrics.queue_wait_ms_total += cell.queue_wait_ms;
    }
    std::sort(walls.begin(), walls.end());
    result.metrics.cell_wall_ms_p50 = nearest_rank(walls, 50);
    result.metrics.cell_wall_ms_p95 = nearest_rank(walls, 95);
    result.metrics.cell_wall_ms_max = walls.empty() ? 0 : walls.back();
    result.wall_ms = ms_since(start);
    return result;
}

}  // namespace focs::runtime
