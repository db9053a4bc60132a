// Sweep runtime tests: parallel determinism (the central contract — a
// --jobs N run must be byte-identical to a serial run of the same spec),
// exactly-once artifact construction, fault tolerance (per-cell isolation,
// cache poison recovery, deadlines), JSON round-trips, and spec parsing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "core/flows.hpp"
#include "obs/span_tracer.hpp"
#include "runtime/artifact_cache.hpp"
#include "runtime/result_io.hpp"
#include "runtime/sweep_engine.hpp"
#include "runtime/sweep_spec.hpp"
#include "workloads/kernel.hpp"

namespace focs::runtime {
namespace {

/// Small but multi-axis spec: 3 kernels x 2 policies x 2 generators, one
/// voltage; 12 cells, enough to keep 4 workers busy concurrently.
SweepSpec small_spec() {
    SweepSpec spec;
    spec.kernels = {"crc32", "fibcall", "bitcount"};
    spec.policies = {core::PolicyKind::kInstructionLut, core::PolicyKind::kStatic};
    spec.generators = {GeneratorSpec::parse("ideal"), GeneratorSpec::parse("taps:8")};
    return spec;
}

/// Arms the process-global fault injector for one test body and guarantees
/// it is disarmed again on every exit path (the injector is shared across
/// every test in this binary).
struct GlobalFaultGuard {
    explicit GlobalFaultGuard(const std::string& spec) {
        fault::global_injector().configure(spec);
    }
    ~GlobalFaultGuard() { fault::global_injector().configure(""); }
};

/// Tests that need the product code's inject points to fire cannot run in
/// a -DFOCS_FAULT_COMPILE_OUT build (the macros compile to nothing there).
#ifdef FOCS_FAULT_COMPILE_OUT
#define FOCS_REQUIRE_FAULT_POINTS() GTEST_SKIP() << "fault inject points compiled out"
#else
#define FOCS_REQUIRE_FAULT_POINTS() ((void)0)
#endif

/// Likewise for tests that read the product code's spans in a
/// -DFOCS_OBS_COMPILE_OUT build.
#ifdef FOCS_OBS_COMPILE_OUT
#define FOCS_REQUIRE_SPANS() GTEST_SKIP() << "instrumentation compiled out"
#else
#define FOCS_REQUIRE_SPANS() ((void)0)
#endif

/// Enables the process-global span tracer, empty, for one test body and
/// disables and clears it again on every exit path.
struct GlobalTracerGuard {
    GlobalTracerGuard() {
        obs::global_tracer().reset();
        obs::global_tracer().set_enabled(true);
    }
    ~GlobalTracerGuard() {
        obs::global_tracer().set_enabled(false);
        obs::global_tracer().reset();
    }
};

/// More kernels than the 4 workers the leader-pass tests run: 5 kernels x
/// 2 policies x 2 generators x 2 voltages = 40 cells in 20 columns. The
/// kernels are the suite's shortest (1.4k-8.5k cycles), so recording all
/// five traces stays far shorter than one characterization, even under
/// sanitizers.
SweepSpec five_kernel_spec() {
    SweepSpec spec = small_spec();
    spec.kernels = {"fixmath", "edn", "fsm", "levenshtein", "insertsort"};
    spec.voltages_v = {0.65, 0.75};
    return spec;
}

TEST(SweepEngine, ParallelRunIsByteIdenticalToSerial) {
    const SweepEngine serial(1);
    const SweepEngine parallel(4);
    SweepResult a = serial.run(small_spec());
    SweepResult b = parallel.run(small_spec());
    EXPECT_EQ(a.jobs, 1);
    EXPECT_EQ(b.jobs, 4);
    ASSERT_EQ(a.cells.size(), b.cells.size());
    // The canonical document excludes run-dependent timing fields; on equal
    // specs it must match byte for byte regardless of the job count.
    EXPECT_EQ(to_json(a, /*include_timing=*/false), to_json(b, /*include_timing=*/false));
}

TEST(SweepEngine, ReplayIsByteIdenticalToLiveAtEveryJobCount) {
    // The central record/replay contract at the sweep level: the same grid
    // evaluated live and via cached traces produces identical canonical
    // documents, for 1/2/8 workers (8 > cell-per-kernel count, so workers
    // race for shared trace futures under TSan). The grid spans every
    // bundled policy kind — including the promoted approx-lut/dual-cycle
    // kernels and two parameterized grid points — and two voltage points,
    // so the shared unit delay arrays are raced and scaled across the
    // voltage axis too. With two generators per column the replay side
    // schedules fused columns, so this also proves fusion is invisible in
    // the bytes at every job count.
    SweepSpec spec = small_spec();
    spec.policies = {core::PolicyKind::kInstructionLut, core::PolicyKind::kStatic,
                     core::PolicyKind::kGenie, core::PolicyKind::kExOnly,
                     core::PolicyKind::kTwoClass, core::PolicyKind::kApproxLut,
                     core::PolicyKind::kDualCycle,
                     core::PolicySpec::parse("approx-lut:0.8"),
                     core::PolicySpec::parse("dual-cycle:3")};
    spec.voltages_v = {0.65, 0.70};
    const SweepResult live = SweepEngine(2, nullptr, EvalMode::kLive).run(spec);
    EXPECT_EQ(live.mode, "live");
    EXPECT_EQ(live.guest_simulations, live.cells.size());
    EXPECT_EQ(live.unit_delay_passes, 0u);
    const std::string live_json = to_json(live, /*include_timing=*/false);
    for (const int jobs : {1, 2, 8}) {
        const SweepResult replayed = SweepEngine(jobs, nullptr, EvalMode::kReplay).run(spec);
        EXPECT_EQ(replayed.mode, "replay");
        // Exactly one guest simulation AND one unit delay pass per kernel,
        // regardless of the 18 policy x generator cells and 2 voltage
        // points stacked on each.
        EXPECT_EQ(replayed.guest_simulations, spec.kernels.size()) << jobs << " jobs";
        EXPECT_EQ(replayed.unit_delay_passes, spec.kernels.size()) << jobs << " jobs";
        EXPECT_EQ(replayed.unit_delay_reuses,
                  replayed.cells.size() - spec.kernels.size())
            << jobs << " jobs";
        EXPECT_EQ(to_json(replayed, /*include_timing=*/false), live_json) << jobs << " jobs";
    }
}

TEST(SweepEngine, DenseVoltageGridPaysOneUnitDelayPassPerKernel) {
    // The voltage-axis amortization contract on a >= 10-point grid: delay-
    // model work is one pass per (kernel, variant), not per (kernel,
    // voltage). The delay table is pre-seeded per point so the test
    // measures the trace-delay axis, not characterization.
    SweepSpec spec;
    spec.kernels = {"crc32", "fibcall"};
    spec.policies = {core::PolicyKind::kGenie, core::PolicyKind::kStatic};
    spec.voltages_v = {0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.62};
    auto cache = std::make_shared<ArtifactCache>();
    for (const double voltage : spec.voltages_v) {
        cache->put_delay_table(spec.design_for(voltage), SweepEngine::analyzer_config_for(spec),
                               dta::DelayTable(5000.0));
    }
    const SweepResult result = SweepEngine(4, cache, EvalMode::kReplay).run(spec);
    EXPECT_EQ(result.cells.size(), 2u * 2u * 10u);
    EXPECT_EQ(result.characterizations, 0u);
    EXPECT_EQ(result.guest_simulations, spec.kernels.size());
    // 10 voltages x 2 policies x 2 kernels = 40 unit-delay requests, but
    // only one fused pass per kernel; the other 38 are view derivations.
    EXPECT_EQ(result.unit_delay_passes, spec.kernels.size());
    EXPECT_EQ(result.unit_delay_reuses, result.cells.size() - spec.kernels.size());
    EXPECT_EQ(cache->unit_delay_passes(), spec.kernels.size());
}

TEST(SweepEngine, ReplayReusesTracesAcrossSweeps) {
    auto cache = std::make_shared<ArtifactCache>();
    const SweepEngine engine(4, cache, EvalMode::kReplay);
    const SweepResult first = engine.run(small_spec());
    EXPECT_EQ(first.guest_simulations, 3u);
    EXPECT_EQ(cache->traces_recorded(), 3u);
    EXPECT_EQ(cache->unit_delay_passes(), 3u);  // one per kernel, voltage-free
    // A warm cache serves traces and unit delays without any new guest
    // runs or delay-model passes.
    const SweepResult again = engine.run(small_spec());
    EXPECT_EQ(again.guest_simulations, 0u);
    EXPECT_EQ(again.unit_delay_passes, 0u);
    EXPECT_EQ(cache->traces_recorded(), 3u);
    EXPECT_EQ(cache->unit_delay_passes(), 3u);
    EXPECT_EQ(to_json(first, false), to_json(again, false));
}

TEST(SweepEngine, StampsCacheOutcomeMetrics) {
    auto cache = std::make_shared<ArtifactCache>();
    const SweepEngine engine(4, cache, EvalMode::kReplay);
    const SweepResult result = engine.run(small_spec());
    // Misses are the deterministic exactly-once builds; the hit/wait split
    // depends on thread scheduling, so the assertions use the served sums.
    EXPECT_EQ(result.metrics.program.miss, 3u);      // one per kernel
    EXPECT_EQ(result.metrics.delay_table.miss, 1u);  // one operating point
    EXPECT_EQ(result.metrics.trace.miss, 3u);
    EXPECT_EQ(result.metrics.unit_delays.miss, 3u);
    // Only the 12 cells request the trace (the unit-delay builders step
    // their own guest run); 3 of the 12 requests build, the rest are
    // served from the shared futures.
    EXPECT_EQ(result.metrics.trace.served(), 9u);
    EXPECT_EQ(result.metrics.unit_delays.served(), 9u);
    EXPECT_EQ(result.metrics.delay_table.served(), 11u);
    // Trace and unit-delay builders each request their kernel's program.
    EXPECT_EQ(result.metrics.program.served(), 3u);
    // Wall-time distribution: ordered percentiles over populated samples.
    EXPECT_GE(result.metrics.cell_wall_ms_p95, result.metrics.cell_wall_ms_p50);
    EXPECT_GE(result.metrics.cell_wall_ms_max, result.metrics.cell_wall_ms_p95);
    EXPECT_GT(result.metrics.cell_wall_ms_max, 0.0);
    EXPECT_GE(result.metrics.queue_wait_ms_total, 0.0);
    for (const auto& cell : result.cells) EXPECT_GE(cell.wall_ms, 0.0);

    // A warm cache builds nothing: every request is served.
    const SweepResult again = engine.run(small_spec());
    EXPECT_EQ(again.metrics.trace.miss, 0u);
    EXPECT_EQ(again.metrics.unit_delays.miss, 0u);
    EXPECT_EQ(again.metrics.delay_table.miss, 0u);
    EXPECT_EQ(again.metrics.trace.served(), 12u);
    EXPECT_EQ(again.metrics.unit_delays.served(), 12u);
    EXPECT_EQ(again.metrics.delay_table.served(), 12u);
}

TEST(SweepEngine, StampsSpecTextAndHash) {
    const SweepEngine engine(1);
    const SweepSpec spec = small_spec();
    const SweepResult result = engine.run(spec);
    EXPECT_EQ(result.spec_text, spec.resolved().serialize());
    EXPECT_EQ(result.spec_hash, stable_text_hash(result.spec_text));
    EXPECT_EQ(result.spec_hash.rfind("fnv1a:", 0), 0u);
    // The stamp survives the JSON round trip (both document flavours).
    const SweepResult parsed = from_json(to_json(result));
    EXPECT_EQ(parsed.spec_text, result.spec_text);
    EXPECT_EQ(parsed.spec_hash, result.spec_hash);
    EXPECT_EQ(parsed.mode, result.mode);
    EXPECT_EQ(parsed.guest_simulations, result.guest_simulations);
    const SweepResult canonical = from_json(to_json(result, /*include_timing=*/false));
    EXPECT_EQ(canonical.spec_hash, result.spec_hash);
    EXPECT_TRUE(canonical.mode.empty());
}

TEST(SweepEngine, VoltageAxisPaysOneNominalCharacterization) {
    auto cache = std::make_shared<ArtifactCache>();
    const SweepEngine engine(4, cache);
    SweepSpec spec = small_spec();
    spec.voltages_v = {0.70, 0.80};

    const SweepResult result = engine.run(spec);
    EXPECT_EQ(result.cells.size(), 24u);
    // Two voltages -> ONE nominal characterization; each operating point's
    // table is a derived scaled view (including 0.70 V itself, whose view
    // is the factor-1.0 identity), each built once despite 12 cells racing
    // for it.
    EXPECT_EQ(result.characterizations, 1u);
    EXPECT_EQ(result.nominal_passes, 1u);
    EXPECT_EQ(result.scaled_views, 2u);
    EXPECT_EQ(cache->characterizations_built(), 1u);
    EXPECT_EQ(cache->reference_passes(), 0u);

    // A second sweep over the same grid is served entirely from the cache.
    const SweepResult again = engine.run(spec);
    EXPECT_EQ(again.characterizations, 0u);
    EXPECT_EQ(again.nominal_passes, 0u);
    EXPECT_EQ(again.scaled_views, 0u);
    EXPECT_EQ(to_json(result, false), to_json(again, false));
}

TEST(SweepEngine, ReferenceCharacterizationIsByteIdenticalToScaledViews) {
    // The escape hatch characterizes every operating point with the full
    // per-voltage flow; canonical output must be byte-identical to the
    // nominal-once scaled-view path.
    SweepSpec spec = small_spec();
    spec.voltages_v = {0.62, 0.70, 0.78};

    auto derived_cache = std::make_shared<ArtifactCache>();
    const SweepResult derived = SweepEngine(4, derived_cache).run(spec);

    auto reference_cache = std::make_shared<ArtifactCache>();
    SweepRunOptions options;
    options.reference_characterization = true;
    const SweepResult reference = SweepEngine(4, reference_cache).run(spec, options);

    EXPECT_EQ(derived.nominal_passes, 1u);
    EXPECT_EQ(derived.scaled_views, 3u);
    EXPECT_EQ(reference.nominal_passes, 0u);
    EXPECT_EQ(reference.scaled_views, 0u);
    EXPECT_EQ(reference.characterizations, 3u);
    EXPECT_EQ(reference_cache->reference_passes(), 3u);
    EXPECT_EQ(to_json(derived, false), to_json(reference, false));
}

TEST(SweepEngine, DesignPointSpecsOnOneCacheMatchPerSpecReferenceRuns) {
    // The guard band and the occurrence floor shape only the final table:
    // specs that differ in them share one nominal characterization on one
    // cache, and each canonical document equals a reference run of that
    // spec that characterizes every operating point from scratch.
    auto shared = std::make_shared<ArtifactCache>();
    const SweepEngine engine(4, shared);
    // Floors up to ~30 leave the suite's tables unchanged (every observed
    // pair occurs more often); 100 sends some entries to the static limit.
    const std::vector<std::pair<double, int>> design_points = {{0.0, 1}, {5.0, 4}, {25.0, 100}};
    std::vector<double> mean_freqs;
    for (std::size_t i = 0; i < design_points.size(); ++i) {
        SCOPED_TRACE("guard " + std::to_string(design_points[i].first) + " floor " +
                     std::to_string(design_points[i].second));
        SweepSpec spec = small_spec();
        spec.voltages_v = {0.62, 0.78};
        spec.lut_guard_ps = design_points[i].first;
        spec.min_occurrences = design_points[i].second;
        const SweepResult derived = engine.run(spec);
        EXPECT_EQ(derived.characterizations, i == 0 ? 1u : 0u);
        EXPECT_EQ(derived.scaled_views, 2u);

        SweepRunOptions options;
        options.reference_characterization = true;
        const SweepResult reference =
            SweepEngine(4, std::make_shared<ArtifactCache>()).run(spec, options);
        EXPECT_EQ(reference.characterizations, 2u);
        EXPECT_EQ(to_json(derived, false), to_json(reference, false));
        mean_freqs.push_back(derived.mean_eff_freq_mhz);
    }
    EXPECT_EQ(shared->nominal_passes(), 1u);
    // The knobs reach the results: a wider guard band clocks slower.
    EXPECT_GT(mean_freqs.front(), mean_freqs.back());
}

TEST(SweepEngine, NearbyVoltagesGetTheirOwnTables) {
    // Table keys carry every bit of the voltage and the guard band, so an
    // operating point 0.4 uV from another never reads its neighbour's
    // table: in a two-voltage grid the 0.6999996 V cells equal the same
    // cells swept alone.
    SweepSpec alone;
    alone.kernels = {"crc32", "fibcall"};
    alone.policies = {core::PolicyKind::kInstructionLut, core::PolicyKind::kStatic};
    alone.voltages_v = {0.6999996};
    SweepSpec pair = alone;
    pair.voltages_v = {0.7, 0.6999996};
    EXPECT_NE(ArtifactCache::design_key(pair.design_for(0.7), dta::AnalyzerConfig{}),
              ArtifactCache::design_key(pair.design_for(0.6999996), dta::AnalyzerConfig{}));

    const SweepResult single = SweepEngine(2).run(alone);
    const SweepResult both = SweepEngine(2).run(pair);
    std::vector<const SweepCell*> nominal, near;
    for (const SweepCell& cell : both.cells) {
        (cell.voltage_v == 0.7 ? nominal : near).push_back(&cell);
    }
    ASSERT_EQ(nominal.size(), single.cells.size());
    ASSERT_EQ(near.size(), single.cells.size());
    bool lut_differs = false;  // else a shared table could not show
    for (std::size_t i = 0; i < near.size(); ++i) {
        const SweepCell& expected = single.cells[i];
        SCOPED_TRACE(expected.kernel + "/" + expected.policy);
        EXPECT_EQ(near[i]->kernel, expected.kernel);
        EXPECT_EQ(near[i]->policy, expected.policy);
        EXPECT_EQ(near[i]->result.avg_period_ps, expected.result.avg_period_ps);
        EXPECT_EQ(near[i]->result.total_time_ps, expected.result.total_time_ps);
        EXPECT_EQ(near[i]->result.timing_violations, 0u);
        lut_differs |= expected.policy == "lut" &&
                       nominal[i]->result.avg_period_ps != expected.result.avg_period_ps;
    }
    EXPECT_TRUE(lut_differs);
}

TEST(SweepEngine, CellsArriveInSpecDeclarationOrder) {
    const SweepEngine engine(4);
    const SweepResult result = engine.run(small_spec());
    ASSERT_EQ(result.cells.size(), 12u);
    // kernel-major, then policy, then generator.
    EXPECT_EQ(result.cells[0].kernel, "crc32");
    EXPECT_EQ(result.cells[0].policy, "lut");
    EXPECT_EQ(result.cells[0].generator, "ideal");
    EXPECT_EQ(result.cells[1].generator, "taps:8");
    EXPECT_EQ(result.cells[2].policy, "static");
    EXPECT_EQ(result.cells[4].kernel, "fibcall");
    EXPECT_EQ(result.cells[8].kernel, "bitcount");
    for (const auto& cell : result.cells) {
        EXPECT_EQ(cell.result.guest.exit_code, 0u) << cell.kernel;
        EXPECT_EQ(cell.result.timing_violations, 0u) << cell.kernel;
        EXPECT_GT(cell.result.eff_freq_mhz, 0.0) << cell.kernel;
    }
}

TEST(SweepEngine, PreseededTableSkipsCharacterization) {
    auto cache = std::make_shared<ArtifactCache>();
    const SweepEngine engine(2, cache);
    SweepSpec spec = small_spec();

    // Seed the (single) operating point with a trivial table; the sweep must
    // not characterize at all and must use the seeded fallback everywhere.
    cache->put_delay_table(spec.design_for(timing::DesignConfig{}.voltage_v),
                           SweepEngine::analyzer_config_for(spec),
                           dta::DelayTable(1000.0));
    const SweepResult result = engine.run(spec);
    EXPECT_EQ(result.characterizations, 0u);
    EXPECT_EQ(cache->characterizations_built(), 0u);
}

TEST(SweepEngine, KeepGoingIsolatesFailedCellsAcrossJobCounts) {
    FOCS_REQUIRE_FAULT_POINTS();
    // Per-cell isolation under injected evaluation faults: failing cells
    // carry their status and error, every other cell completes, and *which*
    // cells fail is a pure function of the cell key — so the canonical
    // document is byte-identical at any job count even on a faulty run.
    const GlobalFaultGuard guard("eval.cell:0.5:seed=11");
    const SweepResult serial = SweepEngine(1).run(small_spec());
    EXPECT_GT(serial.cells_failed, 0u);
    EXPECT_GT(serial.cells_ok, 0u);
    EXPECT_EQ(serial.cells_cancelled, 0u);
    EXPECT_EQ(serial.cells_ok + serial.cells_failed, serial.cells.size());
    EXPECT_FALSE(serial.complete());
    double ok_freq_sum = 0;
    for (const auto& cell : serial.cells) {
        if (cell.ok()) {
            ok_freq_sum += cell.result.eff_freq_mhz;
            EXPECT_TRUE(cell.error.empty());
            continue;
        }
        EXPECT_EQ(cell.status, CellStatus::kFailed);
        EXPECT_EQ(cell.error_code, ErrorCode::kInjected);
        EXPECT_NE(cell.error.find("eval.cell"), std::string::npos);
    }
    // Aggregates cover the surviving cells only.
    EXPECT_DOUBLE_EQ(serial.mean_eff_freq_mhz,
                     ok_freq_sum / static_cast<double>(serial.cells_ok));
    const SweepResult parallel = SweepEngine(8).run(small_spec());
    EXPECT_EQ(parallel.cells_failed, serial.cells_failed);
    EXPECT_EQ(to_json(serial, /*include_timing=*/false),
              to_json(parallel, /*include_timing=*/false));
}

TEST(SweepEngine, FailFastNamesTheFailingCell) {
    FOCS_REQUIRE_FAULT_POINTS();
    const GlobalFaultGuard guard("eval.cell:1:max=1");
    SweepRunOptions options;
    options.failure_mode = FailureMode::kFailFast;
    try {
        SweepEngine(1).run(small_spec(), options);
        FAIL() << "fail-fast sweep did not throw";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kInjected);
        // The rethrown failure names the failing cell's grid coordinates
        // (first cell in declaration order under one worker).
        EXPECT_NE(std::string(e.what()).find("sweep cell crc32/lut/ideal@"),
                  std::string::npos);
    }
}

TEST(SweepEngine, ExpiredDeadlineDrainsQueueAsCancelledCells) {
    const CancellationToken expired = CancellationToken::with_deadline_ms(0);
    SweepRunOptions options;
    options.cancel = &expired;
    const SweepResult result = SweepEngine(2).run(small_spec(), options);
    EXPECT_EQ(result.cells_cancelled, result.cells.size());
    EXPECT_EQ(result.cells_ok, 0u);
    EXPECT_FALSE(result.complete());
    EXPECT_EQ(result.mean_eff_freq_mhz, 0.0);
    for (const auto& cell : result.cells) {
        EXPECT_EQ(cell.status, CellStatus::kCancelled);
        EXPECT_EQ(cell.error_code, ErrorCode::kDeadline);
        EXPECT_NE(cell.error.find("deadline"), std::string::npos);
        EXPECT_FALSE(cell.kernel.empty());  // coordinates survive the drain
    }
    // The drained queue paid for no work at all.
    EXPECT_EQ(result.guest_simulations, 0u);
    EXPECT_EQ(result.characterizations, 0u);

    // An explicit request reports kCancelled instead of kDeadline.
    const CancellationToken requested;
    requested.request_cancel();
    options.cancel = &requested;
    const SweepResult stopped = SweepEngine(2).run(small_spec(), options);
    EXPECT_EQ(stopped.cells_cancelled, stopped.cells.size());
    EXPECT_EQ(stopped.cells[0].error_code, ErrorCode::kCancelled);
}

TEST(SweepEngine, MidRunDeadlineReturnsPartialResults) {
    FOCS_REQUIRE_FAULT_POINTS();
    // Slow every cell down with a delay fault so a short deadline fires
    // mid-sweep: the run still returns normally, with each cell either ok,
    // or cancelled at the boundary. How far the sweep got is timing-
    // dependent; the status partition is not.
    const GlobalFaultGuard guard("eval.cell:1:delay_ms=20");
    const CancellationToken deadline = CancellationToken::with_deadline_ms(5);
    SweepRunOptions options;
    options.cancel = &deadline;
    const SweepResult result = SweepEngine(1).run(small_spec(), options);
    EXPECT_GE(result.cells_cancelled, 1u);
    EXPECT_EQ(result.cells_failed, 0u);
    EXPECT_EQ(result.cells_ok + result.cells_cancelled, result.cells.size());
    for (const auto& cell : result.cells) {
        if (!cell.ok()) {
            EXPECT_EQ(cell.error_code, ErrorCode::kDeadline);
        }
    }
}

TEST(SweepEngine, LeaderPassRecordsEveryTraceWhileTheNominalTableBuilds) {
    FOCS_REQUIRE_FAULT_POINTS();
    FOCS_REQUIRE_SPANS();
    // The nominal characterization is slowed by 300 ms. On a fresh cache
    // the kernel leaders' acquire units must record every kernel's trace
    // and unit delays while it runs, not queue behind it on kernel 0's
    // columns.
    const GlobalFaultGuard guard("build.nominal_table:1:delay_ms=300");
    const SweepSpec spec = five_kernel_spec();
    const SweepResult serial = SweepEngine(1).run(spec);
    SweepResult parallel;
    std::vector<obs::SpanEvent> events;
    {
        const GlobalTracerGuard tracing;
        parallel = SweepEngine(4).run(spec);
        events = obs::global_tracer().snapshot();
    }
    ASSERT_EQ(parallel.jobs, 4);

    double nominal_end_us = -1;
    for (const auto& event : events) {
        if (event.name == "cache.build.nominal_table") {
            EXPECT_LT(nominal_end_us, 0) << "more than one nominal characterization";
            nominal_end_us = event.start_us + event.duration_us;
        }
    }
    ASSERT_GT(nominal_end_us, 0);
    std::size_t traces = 0, unit_delays = 0;
    for (const auto& event : events) {
        if (event.name != "cache.build.trace" && event.name != "cache.build.unit_delays") {
            continue;
        }
        (event.name == "cache.build.trace" ? traces : unit_delays) += 1;
        EXPECT_LT(event.start_us, nominal_end_us) << event.name << " started after the table";
    }
    EXPECT_EQ(traces, spec.kernels.size());
    EXPECT_EQ(unit_delays, spec.kernels.size());

    // The schedule moves builds, never lookups or results.
    const auto same_outcomes = [](const ArtifactClassCounters& a, const ArtifactClassCounters& b,
                                  const char* name) {
        EXPECT_EQ(a.miss, b.miss) << name;
        EXPECT_EQ(a.served(), b.served()) << name;
    };
    same_outcomes(parallel.metrics.program, serial.metrics.program, "program");
    same_outcomes(parallel.metrics.delay_table, serial.metrics.delay_table, "delay_table");
    same_outcomes(parallel.metrics.trace, serial.metrics.trace, "trace");
    same_outcomes(parallel.metrics.unit_delays, serial.metrics.unit_delays, "unit_delays");
    EXPECT_EQ(to_json(parallel, /*include_timing=*/false),
              to_json(serial, /*include_timing=*/false));
}

TEST(SweepEngine, LeaderPassFailFastRethrowsWithoutDeadlock) {
    FOCS_REQUIRE_FAULT_POINTS();
    // Every trace build fails: the first leader to observe it aborts the
    // pool while other workers may wait on its handoff.
    const GlobalFaultGuard guard("build.trace:1");
    SweepRunOptions options;
    options.failure_mode = FailureMode::kFailFast;
    try {
        SweepEngine(4).run(five_kernel_spec(), options);
        FAIL() << "fail-fast sweep did not throw";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kArtifactBuild);
        EXPECT_EQ(std::string(e.what()).rfind("sweep cell ", 0), 0u) << e.what();
    }
}

TEST(SweepEngine, LeaderPassKeepGoingFailsEveryCellOfABrokenTrace) {
    FOCS_REQUIRE_FAULT_POINTS();
    const GlobalFaultGuard guard("build.trace:1");
    const SweepResult result = SweepEngine(4).run(five_kernel_spec());
    EXPECT_EQ(result.cells_failed, result.cells.size());
    for (const auto& cell : result.cells) {
        EXPECT_EQ(cell.status, CellStatus::kFailed);
        EXPECT_EQ(cell.error_code, ErrorCode::kArtifactBuild);
        EXPECT_FALSE(cell.kernel.empty());
    }
}

TEST(SweepEngine, LeaderPassCancelledFromAnotherThreadReturnsPartialResults) {
    FOCS_REQUIRE_FAULT_POINTS();
    // The slowed nominal table keeps the leader pass running; the token
    // fires once two traces are recorded, i.e. inside the leader pass.
    const GlobalFaultGuard guard("build.nominal_table:1:delay_ms=300");
    auto cache = std::make_shared<ArtifactCache>();
    const CancellationToken token;
    std::atomic<bool> finished{false};
    std::thread canceller([&] {
        while (cache->traces_recorded() < 2 && !finished.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        token.request_cancel();
    });
    SweepRunOptions options;
    options.cancel = &token;
    const SweepResult result = SweepEngine(4, cache).run(five_kernel_spec(), options);
    finished.store(true);
    canceller.join();
    EXPECT_GT(result.cells_cancelled, 0u);
    EXPECT_EQ(result.cells_failed, 0u);
    EXPECT_EQ(result.cells_ok + result.cells_cancelled, result.cells.size());
    for (const auto& cell : result.cells) {
        if (!cell.ok()) {
            EXPECT_EQ(cell.error_code, ErrorCode::kCancelled) << cell.error;
        }
    }
}

TEST(ResultIo, JsonRoundTripIsLossless) {
    const SweepEngine engine(2);
    SweepSpec spec = small_spec();
    spec.kernels = {"crc32"};
    const SweepResult result = engine.run(spec);

    const std::string json = to_json(result);
    EXPECT_NE(json.find("\"focs-sweep-v6\""), std::string::npos);
    const SweepResult parsed = from_json(json);
    EXPECT_EQ(parsed.jobs, result.jobs);
    EXPECT_EQ(parsed.characterizations, result.characterizations);
    EXPECT_EQ(parsed.nominal_passes, result.nominal_passes);
    EXPECT_EQ(parsed.scaled_views, result.scaled_views);
    // The stamped spec hash matches an independent recomputation over the
    // round-tripped canonical spec text (FNV-1a over the exact bytes).
    EXPECT_EQ(parsed.spec_hash, stable_text_hash(parsed.spec_text));
    EXPECT_EQ(parsed.unit_delay_passes, result.unit_delay_passes);
    EXPECT_EQ(parsed.unit_delay_reuses, result.unit_delay_reuses);
    // The metrics block survives the round trip.
    EXPECT_EQ(parsed.metrics.trace.miss, result.metrics.trace.miss);
    EXPECT_EQ(parsed.metrics.unit_delays.hit, result.metrics.unit_delays.hit);
    EXPECT_EQ(parsed.metrics.unit_delays.wait, result.metrics.unit_delays.wait);
    EXPECT_EQ(parsed.metrics.delay_table.miss, result.metrics.delay_table.miss);
    EXPECT_DOUBLE_EQ(parsed.metrics.cell_wall_ms_p50, result.metrics.cell_wall_ms_p50);
    EXPECT_DOUBLE_EQ(parsed.metrics.cell_wall_ms_p95, result.metrics.cell_wall_ms_p95);
    EXPECT_DOUBLE_EQ(parsed.metrics.cell_wall_ms_max, result.metrics.cell_wall_ms_max);
    EXPECT_DOUBLE_EQ(parsed.metrics.queue_wait_ms_total, result.metrics.queue_wait_ms_total);
    ASSERT_EQ(parsed.cells.size(), result.cells.size());
    for (std::size_t i = 0; i < parsed.cells.size(); ++i) {
        EXPECT_EQ(parsed.cells[i].kernel, result.cells[i].kernel);
        EXPECT_EQ(parsed.cells[i].result.cycles, result.cells[i].result.cycles);
        EXPECT_EQ(parsed.cells[i].result.guest.reports, result.cells[i].result.guest.reports);
        EXPECT_DOUBLE_EQ(parsed.cells[i].wall_ms, result.cells[i].wall_ms);
        EXPECT_DOUBLE_EQ(parsed.cells[i].queue_wait_ms, result.cells[i].queue_wait_ms);
    }
    // Re-serializing the parsed document reproduces it byte for byte ("%.17g"
    // doubles survive the round trip).
    EXPECT_EQ(to_json(parsed), json);
}

TEST(ResultIo, RejectsOlderSchemaDocuments) {
    // Only focs-sweep-v6 is read. A v5 document (the v6 emission renamed,
    // minus the characterization-collapse counters) is an error, not a
    // silently zero-filled result.
    SweepSpec spec = small_spec();
    spec.kernels = {"crc32"};
    std::string v5 = to_json(SweepEngine(1).run(spec));
    const auto v6_at = v5.find("focs-sweep-v6");
    ASSERT_NE(v6_at, std::string::npos);
    v5.replace(v6_at, 13, "focs-sweep-v5");
    const auto nominal_at = v5.find("  \"nominal_passes\"");
    ASSERT_NE(nominal_at, std::string::npos);
    const auto views_end = v5.find('\n', v5.find("\"scaled_views\""));
    ASSERT_NE(views_end, std::string::npos);
    v5.erase(nominal_at, views_end + 1 - nominal_at);
    EXPECT_THROW(from_json(v5), Error);
}

TEST(ResultIo, RejectsMalformedDocuments) {
    EXPECT_THROW(from_json(""), Error);
    EXPECT_THROW(from_json("{"), Error);
    EXPECT_THROW(from_json("{\"schema\": \"bogus\"}"), Error);
    EXPECT_THROW(from_json("{\"schema\": \"focs-sweep-v6\"}"), Error);  // missing fields
    EXPECT_THROW(from_json("{\"schema\": \"\\uZZZZ\"}"), Error);        // non-hex \u escape
    EXPECT_THROW(from_json("{\"schema\": \"\\u20ac\"}"), Error);  // beyond control range
}

TEST(ResultIo, RejectsTruncatedAndCorruptDocuments) {
    SweepSpec spec = small_spec();
    spec.kernels = {"crc32"};
    const std::string json = to_json(SweepEngine(1).run(spec));
    // Truncation anywhere — mid-cells or just before the closing brace —
    // is a hard parse error, never a silently shorter result.
    EXPECT_THROW(from_json(json.substr(0, json.size() / 2)), Error);
    EXPECT_THROW(from_json(json.substr(0, json.size() - 2)), Error);
    EXPECT_THROW(from_json(json + "x"), Error);  // trailing garbage
}

TEST(ResultIo, V6RoundTripPreservesFailureFields) {
    FOCS_REQUIRE_FAULT_POINTS();
    const GlobalFaultGuard guard("eval.cell:0.5:seed=11");
    const SweepResult result = SweepEngine(2).run(small_spec());
    ASSERT_GT(result.cells_failed, 0u);
    ASSERT_GT(result.cells_ok, 0u);

    const std::string json = to_json(result);
    EXPECT_NE(json.find("\"cells_failed\""), std::string::npos);
    EXPECT_NE(json.find("\"status\": \"failed\""), std::string::npos);
    const SweepResult parsed = from_json(json);
    EXPECT_EQ(parsed.cells_ok, result.cells_ok);
    EXPECT_EQ(parsed.cells_failed, result.cells_failed);
    EXPECT_EQ(parsed.cells_cancelled, 0u);
    ASSERT_EQ(parsed.cells.size(), result.cells.size());
    for (std::size_t i = 0; i < parsed.cells.size(); ++i) {
        EXPECT_EQ(parsed.cells[i].status, result.cells[i].status) << i;
        EXPECT_EQ(parsed.cells[i].error_code, result.cells[i].error_code) << i;
        EXPECT_EQ(parsed.cells[i].error, result.cells[i].error) << i;
    }
    EXPECT_EQ(to_json(parsed), json);  // byte-stable re-serialization

    // The canonical flavour keeps the failure vocabulary too (which cells
    // fail is deterministic, so it belongs in the canonical document).
    const SweepResult canonical = from_json(to_json(result, /*include_timing=*/false));
    EXPECT_EQ(canonical.cells_failed, result.cells_failed);

    // Corrupt enum values are rejected, not zero-filled.
    std::string bad_code = json;
    bad_code.replace(bad_code.find("\"injected\""), 10, "\"gremlins\"");
    EXPECT_THROW(from_json(bad_code), Error);
    std::string bad_status = json;
    bad_status.replace(bad_status.find("\"status\": \"failed\""), 18,
                       "\"status\": \"exploded\"");
    EXPECT_THROW(from_json(bad_status), Error);
}

TEST(ResultIo, AllOkDocumentCarriesNoFailureVocabulary) {
    // A fully successful sweep's document must not mention failures at all:
    // a canonical v6 emission differs from a v4 one only in the schema
    // string, keeping historical byte-comparison workflows valid.
    const SweepResult result = SweepEngine(2).run(small_spec());
    ASSERT_TRUE(result.complete());
    for (const std::string& json :
         {to_json(result), to_json(result, /*include_timing=*/false)}) {
        EXPECT_EQ(json.find("\"cells_ok\""), std::string::npos);
        EXPECT_EQ(json.find("\"cells_failed\""), std::string::npos);
        EXPECT_EQ(json.find("\"cells_cancelled\""), std::string::npos);
        EXPECT_EQ(json.find("\"status\""), std::string::npos);
        EXPECT_EQ(json.find("\"error_code\""), std::string::npos);
        // Parsing still reports the counts, derived from the cells.
        const SweepResult parsed = from_json(json);
        EXPECT_EQ(parsed.cells_ok, result.cells.size());
        EXPECT_TRUE(parsed.complete());
    }
}

TEST(SweepSpec, ParseSerializeRoundTrip) {
    const char* text =
        "# Fig. 8 style sweep\n"
        "kernels = crc32, fibcall\n"
        "policies = static, lut, genie\n"
        "generators = ideal, taps:8, pll:1300/1500:4\n"
        "voltages = 0.7, 0.8\n"
        "variant = conventional\n"
        "guard_ps = 30\n"
        "min_occurrences = 5\n"
        "jobs = 3\n";
    const SweepSpec spec = SweepSpec::parse(text);
    EXPECT_EQ(spec.kernels.size(), 2u);
    EXPECT_EQ(spec.policies.size(), 3u);
    ASSERT_EQ(spec.generators.size(), 3u);
    EXPECT_EQ(spec.generators[2].label(), "pll:1300/1500:4");
    EXPECT_EQ(spec.voltages_v.size(), 2u);
    EXPECT_EQ(spec.variant, timing::DesignVariant::kConventional);
    EXPECT_DOUBLE_EQ(spec.lut_guard_ps, 30.0);
    EXPECT_EQ(spec.min_occurrences, 5);
    EXPECT_EQ(spec.jobs, 3);
    EXPECT_EQ(spec.cell_count(), 2u * 3u * 3u * 2u);

    // serialize -> parse -> serialize is a fixed point.
    const std::string serialized = spec.serialize();
    EXPECT_EQ(SweepSpec::parse(serialized).serialize(), serialized);
}

TEST(SweepSpec, RejectsBadInput) {
    // Every rejection is a usage Error about the input, never an internal
    // check() whose message leaks the build's source path.
    const auto rejects = [](const std::string& text) {
        SCOPED_TRACE(text);
        try {
            SweepSpec::parse(text);
            ADD_FAILURE() << "accepted";
        } catch (const Error& error) {
            EXPECT_EQ(std::string(error.what()).find(".cpp:"), std::string::npos)
                << error.what();
        }
    };
    rejects("nonsense\n");
    rejects("policies = warp-drive\n");
    rejects("policies = dual-cycle:0.5\n");
    rejects("generators = taps:1\n");
    rejects("generators = pll:\n");
    rejects("jobs = -2\n");
    rejects("voltages = 0.7, oops\n");
    rejects("voltages = 0.7 0.8\n");  // missing comma
    rejects("voltages = 0.7x\n");
    rejects("guard_ps = many\n");
    // Invalid guard bands and voltages fail at parse time instead of
    // quietly becoming the default guard or dying after the whole grid ran.
    rejects("guard_ps = -5\n");
    rejects("guard_ps = nan\n");
    rejects("guard_ps = inf\n");
    rejects("voltages = nan\n");
    rejects("voltages = 0.7, inf\n");
    rejects("voltages = 0\n");
    rejects("voltages = -0.7\n");
    EXPECT_NO_THROW(SweepSpec::parse("guard_ps = 0\nvoltages = 0.6999996\n"));
    rejects("variant = quantum\n");
    rejects("min_occurrences = -3\n");
    // Integers above INT_MAX are rejected, never narrowed (4294967298
    // would otherwise run as taps:2, 4294967297 as a floor of 1).
    rejects("generators = taps:4294967298\n");
    rejects("generators = pll:1000/2000:4294967296\n");
    rejects("min_occurrences = 4294967297\n");
    rejects("jobs = 4294967296\n");
    // A PLL period must be finite and positive: inf and NaN used to run the
    // whole grid and then die serializing it, and NaN reached std::sort.
    rejects("generators = pll:inf:4\n");
    rejects("generators = pll:nan/1500:4\n");
    rejects("generators = pll:1300/-inf:4\n");
    rejects("generators = pll:-5/1500:4\n");
    rejects("generators = pll:0:4\n");
    // The tap count is bounded by clocking::kMaxTaps, as evaluate --taps is
    // (parsing allocates no taps).
    rejects("generators = taps:" + std::to_string(clocking::kMaxTaps + 1) + "\n");
    rejects("generators = taps:70000\n");
    rejects("generators = taps:2000000000\n");
    EXPECT_EQ(SweepSpec::parse("generators = taps:" + std::to_string(clocking::kMaxTaps) + "\n")
                  .generators.front()
                  .num_taps,
              clocking::kMaxTaps);
    EXPECT_EQ(SweepSpec::parse("min_occurrences = 2147483647\n").min_occurrences, 2147483647);
}

TEST(SweepSpec, ResolvedFillsDefaults) {
    const SweepSpec resolved = SweepSpec{}.resolved();
    EXPECT_FALSE(resolved.kernels.empty());
    ASSERT_EQ(resolved.policies.size(), 1u);
    EXPECT_EQ(resolved.policies[0], core::PolicyKind::kInstructionLut);
    ASSERT_EQ(resolved.generators.size(), 1u);
    EXPECT_EQ(resolved.generators[0].label(), "ideal");
    ASSERT_EQ(resolved.voltages_v.size(), 1u);
    EXPECT_DOUBLE_EQ(resolved.voltages_v[0], timing::DesignConfig{}.voltage_v);
}

TEST(ArtifactCache, DelayTableMatchesStreamingFlowByteForByte) {
    // The sweep runtime characterizes through the cache, which uses the
    // batched flow; a directly-run per-cycle streaming flow must serialize
    // the exact same table, so parallel sweeps built on the batched engine
    // stay byte-identical to the event-level reference.
    ArtifactCache cache;
    const timing::DesignConfig design;
    const dta::AnalyzerConfig analyzer_config =
        SweepEngine::analyzer_config_for(SweepSpec{}.resolved());
    const dta::DelayTable cached = cache.delay_table(design, analyzer_config).get();

    const core::CharacterizationFlow flow(design, analyzer_config);
    const auto programs = workloads::assemble_programs(workloads::characterization_suite());
    const auto streaming = flow.run(programs, core::CharacterizationMode::kStreaming);
    EXPECT_EQ(cached.serialize(), streaming.table.serialize());
}

TEST(ArtifactCache, OneNominalPassPerVariantServesEveryDesignPoint) {
    // Both variants x guards {0, 5, 25} x floors {1, 4, 10, 100} x voltages
    // {0.6, 0.7, 0.8} on one cache: two nominal characterizations in all,
    // and every derived table serializes exactly like a characterization
    // of its own design point from scratch. Floors 1-10 give one table on
    // the characterization suite (every observed pair occurs more often),
    // so floor 100 is what makes the floor axis bite.
    struct DesignPoint {
        timing::DesignConfig design;
        dta::AnalyzerConfig analyzer;
        std::string label;
    };
    std::vector<DesignPoint> points;
    for (const auto variant : {timing::DesignVariant::kCriticalRangeOptimized,
                               timing::DesignVariant::kConventional}) {
        for (const double voltage : {0.6, 0.7, 0.8}) {
            for (const double guard : {0.0, 5.0, 25.0}) {
                for (const int floor : {1, 4, 10, 100}) {
                    DesignPoint point;
                    point.design.variant = variant;
                    point.design.voltage_v = voltage;
                    point.analyzer.lut_guard_ps = guard;
                    point.analyzer.min_occurrences = floor;
                    point.label = ArtifactCache::design_key(point.design, point.analyzer);
                    points.push_back(point);
                }
            }
        }
    }

    ArtifactCache cache;
    std::vector<std::string> derived;
    for (const DesignPoint& point : points) {
        derived.push_back(cache.delay_table(point.design, point.analyzer).get().serialize());
    }
    EXPECT_EQ(cache.nominal_passes(), 2u);
    EXPECT_EQ(cache.scaled_views(), points.size());
    EXPECT_EQ(cache.reference_passes(), 0u);

    // Reference tables live under the same keys as derived ones, so they
    // get their own cache; four threads share its builds.
    ArtifactCache reference_cache;
    std::vector<std::string> reference(points.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
        workers.emplace_back([&] {
            for (std::size_t i = next++; i < points.size(); i = next++) {
                EXPECT_NO_THROW(reference[i] =
                                    reference_cache
                                        .delay_table(points[i].design, points[i].analyzer, 1,
                                                     nullptr, /*reference_characterization=*/true)
                                        .get()
                                        .serialize());
            }
        });
    }
    for (auto& worker : workers) worker.join();
    EXPECT_EQ(reference_cache.reference_passes(), points.size());
    EXPECT_EQ(reference_cache.nominal_passes(), 0u);
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(derived[i], reference[i]) << points[i].label;
    }
    // points[0..3] share variant, voltage and guard and differ in floor.
    EXPECT_EQ(derived[0], derived[2]);
    EXPECT_NE(derived[0], derived[3]);
}

TEST(ArtifactCache, UnitDelaysStepTheirOwnGuestRun) {
    // The unit-delay build never reads the trace entry: on a cache where
    // trace() was never called it records no trace, and its arrays — for
    // a first variant and a second one built after it — are bit-identical
    // to those of a fresh cache that recorded the trace first.
    timing::DesignConfig conventional;
    conventional.variant = timing::DesignVariant::kConventional;
    const timing::DesignConfig designs[] = {timing::DesignConfig{}, conventional};
    ArtifactCache cache;
    const auto first = cache.unit_trace_delays("crc32", designs[0]).get();
    const auto second = cache.unit_trace_delays("crc32", designs[1]).get();
    EXPECT_EQ(cache.traces_recorded(), 0u);
    EXPECT_EQ(cache.class_counters(ArtifactClass::kTrace).miss, 0u);
    EXPECT_EQ(cache.class_counters(ArtifactClass::kTrace).served(), 0u);
    EXPECT_EQ(cache.unit_delay_passes(), 2u);
    EXPECT_NE(first->unit_required_period_ps, second->unit_required_period_ps);

    const std::uint64_t cycles = cache.trace("crc32").get().cycles();
    for (const auto& [design, built] : {std::pair{designs[0], first}, {designs[1], second}}) {
        ArtifactCache fresh;
        EXPECT_EQ(fresh.trace("crc32").get().cycles(), cycles);
        const auto reference = fresh.unit_trace_delays("crc32", design).get();
        EXPECT_EQ(built->cycles(), cycles);
        EXPECT_EQ(built->unit_static_period_ps, reference->unit_static_period_ps);
        EXPECT_EQ(built->unit_required_period_ps, reference->unit_required_period_ps);
        EXPECT_EQ(built->limiting_stage, reference->limiting_stage);
    }
}

TEST(ArtifactCache, ProgramsAreSharedAndCounted) {
    ArtifactCache cache;
    const auto first = cache.program("crc32");
    const auto second = cache.program("crc32");
    EXPECT_EQ(&first.get(), &second.get());  // same shared state
    EXPECT_EQ(cache.cache_hits(), 1u);
    EXPECT_THROW(cache.program("no-such-kernel").get(), Error);
}

TEST(ArtifactCache, RetriesFailedBuildInPlace) {
    FOCS_REQUIRE_FAULT_POINTS();
    // One injected failure on the first build attempt: the elected builder
    // retries in place and succeeds, without eviction or re-election.
    const GlobalFaultGuard guard("build.program:1:max=1");
    ArtifactCache cache;
    EXPECT_NO_THROW(cache.program("crc32").get());
    const ArtifactBuildStats stats = cache.build_stats(ArtifactClass::kProgram);
    EXPECT_EQ(stats.built, 1u);
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.retried, 1u);
    EXPECT_EQ(stats.evicted, 0u);
    EXPECT_EQ(cache.class_counters(ArtifactClass::kProgram).miss, 1u);
    // The recovered artifact is served like any healthy one.
    EXPECT_NO_THROW(cache.program("crc32").get());
    EXPECT_EQ(cache.build_stats(ArtifactClass::kProgram).built, 1u);
}

TEST(ArtifactCache, EvictsPoisonedEntryAndReelectsBuilderExactlyOnce) {
    FOCS_REQUIRE_FAULT_POINTS();
    // Terminal failure (both in-place attempts fail): the classified error
    // reaches every waiter through the shared future, the entry is evicted,
    // and the *next* requester re-elects a builder — exactly one more
    // election, even with six threads hammering the same key.
    const GlobalFaultGuard guard("build.delay_table:1:max=2");
    ArtifactCache cache;  // max_build_attempts = 2
    const timing::DesignConfig design;
    const dta::AnalyzerConfig analyzer_config =
        SweepEngine::analyzer_config_for(SweepSpec{}.resolved());
    std::atomic<int> failures_seen{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 6; ++t) {
        threads.emplace_back([&] {
            for (int tries = 0; tries < 1000; ++tries) {
                try {
                    cache.delay_table(design, analyzer_config).get();
                    return;
                } catch (const Error& e) {
                    EXPECT_EQ(e.code(), ErrorCode::kArtifactBuild);
                    EXPECT_NE(std::string(e.what()).find("artifact build failed"),
                              std::string::npos);
                    failures_seen.fetch_add(1, std::memory_order_relaxed);
                    std::this_thread::yield();
                }
            }
            ADD_FAILURE() << "delay table was never rebuilt after eviction";
        });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_GE(failures_seen.load(), 1);
    const ArtifactBuildStats stats = cache.build_stats(ArtifactClass::kDelayTable);
    EXPECT_EQ(stats.built, 1u);    // the post-eviction election succeeded
    EXPECT_EQ(stats.failed, 2u);   // attempts 0 and 1 of the first election
    EXPECT_EQ(stats.retried, 1u);  // one bounded in-place retry
    EXPECT_EQ(stats.evicted, 1u);  // exactly one poisoned entry removed
    // Two builder elections in total: the poisoned one and its replacement.
    EXPECT_EQ(cache.class_counters(ArtifactClass::kDelayTable).miss, 2u);
    EXPECT_EQ(cache.characterizations_built(), 1u);
}

TEST(ArtifactCache, CancelledBuildEvictsWithoutRetryAndRebuildsClean) {
    // A fired CancellationToken fails the build with the cancellation code;
    // cancellation is terminal (no in-place retry burned), the entry is
    // evicted, and a later request without the token rebuilds.
    ArtifactCache cache;
    const timing::DesignConfig design;
    const dta::AnalyzerConfig analyzer_config =
        SweepEngine::analyzer_config_for(SweepSpec{}.resolved());
    const CancellationToken expired = CancellationToken::with_deadline_ms(0);
    try {
        cache.delay_table(design, analyzer_config, 1, &expired).get();
        FAIL() << "cancelled build did not throw";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kDeadline);
        EXPECT_NE(std::string(e.what()).find("cancelled"), std::string::npos);
    }
    ArtifactBuildStats stats = cache.build_stats(ArtifactClass::kDelayTable);
    EXPECT_EQ(stats.built, 0u);
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.retried, 0u);  // cancellation is never retried
    EXPECT_EQ(stats.evicted, 1u);
    EXPECT_NO_THROW(cache.delay_table(design, analyzer_config).get());
    stats = cache.build_stats(ArtifactClass::kDelayTable);
    EXPECT_EQ(stats.built, 1u);
    EXPECT_EQ(cache.characterizations_built(), 1u);
}

TEST(ArtifactCacheLru, EvictsLeastRecentlyUsedFirst) {
    // Three programs built unbounded, then a budget that holds only two:
    // the least recently *used* entry goes, and a touch (cache hit)
    // refreshes recency — so after touching the oldest entry, the middle
    // one is the victim.
    ArtifactCache cache;
    cache.program("crc32").get();
    const std::uint64_t bytes_crc32 = cache.cached_bytes();
    cache.program("fibcall").get();
    cache.program("bitcount").get();
    const std::uint64_t total = cache.cached_bytes();
    EXPECT_GT(total, bytes_crc32);

    cache.program("crc32").get();  // touch: crc32 becomes most recent
    cache.set_byte_budget(total - 1);
    EXPECT_EQ(cache.lru_evictions(), 1u);
    EXPECT_EQ(cache.build_stats(ArtifactClass::kProgram).evicted_lru, 1u);
    EXPECT_LE(cache.cached_bytes(), total - 1);

    // crc32 and bitcount survived (hits); fibcall was the victim and
    // re-elects a builder (a fresh miss).
    const std::uint64_t misses_before = cache.class_counters(ArtifactClass::kProgram).miss;
    cache.program("crc32").get();
    cache.program("bitcount").get();
    EXPECT_EQ(cache.class_counters(ArtifactClass::kProgram).miss, misses_before);
    cache.program("fibcall").get();
    EXPECT_EQ(cache.class_counters(ArtifactClass::kProgram).miss, misses_before + 1);
    EXPECT_EQ(cache.build_stats(ArtifactClass::kProgram).built, 4u);
}

TEST(ArtifactCacheLru, OverBudgetSingleArtifactIsAdmittedThenEvictedByTheNext) {
    // A budget smaller than any single artifact: the freshly built entry is
    // admitted anyway (the build already paid for it) and stays until the
    // next completion pushes it off the back of the LRU list.
    ArtifactCache cache;
    cache.set_byte_budget(1);
    cache.program("crc32").get();
    EXPECT_EQ(cache.lru_evictions(), 0u);
    EXPECT_GT(cache.cached_bytes(), 1u);  // resident although over budget

    cache.program("fibcall").get();
    EXPECT_EQ(cache.lru_evictions(), 1u);  // crc32 made way
    const std::uint64_t misses_before = cache.class_counters(ArtifactClass::kProgram).miss;
    cache.program("fibcall").get();  // newest entry still resident
    EXPECT_EQ(cache.class_counters(ArtifactClass::kProgram).miss, misses_before);
}

TEST(ArtifactCacheLru, ByteAccountingIsExactAcrossEvictRebuildCycles) {
    // estimated_bytes is deterministic, so evict + rebuild must return the
    // accounting to the exact same figure, cycle after cycle.
    ArtifactCache cache;
    cache.program("crc32").get();
    const std::uint64_t bytes_crc32 = cache.cached_bytes();
    cache.program("fibcall").get();
    const std::uint64_t total = cache.cached_bytes();

    EXPECT_GT(bytes_crc32, 0u);
    for (int cycle = 0; cycle < 3; ++cycle) {
        cache.set_byte_budget(total - 1);  // evict exactly one (the LRU front)
        cache.set_byte_budget(0);          // disarm so the rebuild sticks
        cache.program("crc32").get();
        cache.program("fibcall").get();
        EXPECT_EQ(cache.cached_bytes(), total) << "cycle " << cycle;
    }
    EXPECT_EQ(cache.lru_evictions(), 3u);
}

TEST(ArtifactCacheLru, EvictedCounterRoundTripsThroughMetricsSnapshot) {
    ArtifactCache cache;
    cache.program("crc32").get();
    cache.program("fibcall").get();
    cache.set_byte_budget(1);  // evicts all but the newest
    const ArtifactBuildStats stats = cache.build_stats(ArtifactClass::kProgram);
    EXPECT_EQ(stats.evicted_lru, 1u);
    const obs::MetricsSnapshot snapshot = cache.metrics_snapshot();
    EXPECT_EQ(snapshot.counter_value("cache.program.evicted_lru"), stats.evicted_lru);
    EXPECT_EQ(snapshot.counter_value("cache.trace.evicted_lru"), 0u);
}

TEST(ArtifactCacheLru, PreseededTableReplacementKeepsAccountingStable) {
    // put_delay_table twice under the same key must not double-account: the
    // replaced entry is unlinked before the replacement is accounted.
    ArtifactCache cache;
    const timing::DesignConfig design;
    const dta::AnalyzerConfig analyzer_config =
        SweepEngine::analyzer_config_for(SweepSpec{}.resolved());
    cache.put_delay_table(design, analyzer_config, dta::DelayTable(900));
    const std::uint64_t bytes = cache.cached_bytes();
    EXPECT_GT(bytes, 0u);
    cache.put_delay_table(design, analyzer_config, dta::DelayTable(901));
    EXPECT_EQ(cache.cached_bytes(), bytes);
    EXPECT_DOUBLE_EQ(cache.delay_table(design, analyzer_config).get().static_period_ps(), 901);
}

TEST(ArtifactCacheLru, ConcurrentBudgetedLoadServesEveryRequest) {
    // TSan-facing: many threads hammer a budgeted cache across every
    // artifact class while LRU eviction churns underneath. Every .get()
    // must succeed (consumers hold shared_future copies, in-flight entries
    // are pinned), and the accounting must be consistent at quiesce.
    const std::vector<std::string> kernels = {"crc32", "fibcall", "bitcount",
                                              "isqrt", "prime",   "bsearch"};
    // Size the budget off real artifact footprints: roomy enough to hold
    // the largest single artifact (so the quiesced set always fits), tight
    // enough to force steady eviction.
    std::uint64_t largest = 0;
    {
        ArtifactCache sizing;
        for (const auto& kernel : kernels) {
            for (const bool with_trace : {false, true}) {
                const std::uint64_t before = sizing.cached_bytes();
                if (with_trace) {
                    sizing.trace(kernel).get();
                } else {
                    sizing.program(kernel).get();
                }
                const std::uint64_t size = sizing.cached_bytes() - before;
                if (size > largest) largest = size;
            }
        }
    }
    const std::uint64_t budget = largest + largest / 2;
    ArtifactCache cache;
    cache.set_byte_budget(budget);
    std::vector<std::thread> threads;
    for (int t = 0; t < 6; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < 8; ++round) {
                const auto& kernel = kernels[static_cast<std::size_t>((t + round) %
                                                                     static_cast<int>(
                                                                         kernels.size()))];
                EXPECT_NO_THROW(cache.program(kernel).get());
                EXPECT_NO_THROW(cache.trace(kernel).get());
            }
        });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_LE(cache.cached_bytes(), budget);
    const ArtifactBuildStats programs = cache.build_stats(ArtifactClass::kProgram);
    const ArtifactBuildStats traces = cache.build_stats(ArtifactClass::kTrace);
    // Builds = initial misses + one rebuild per eviction that was
    // re-requested; eviction count can never exceed completed builds.
    EXPECT_GE(programs.built, kernels.size());
    EXPECT_LE(programs.evicted_lru + traces.evicted_lru, programs.built + traces.built);
    EXPECT_GT(cache.lru_evictions(), 0u);
}

TEST(ArtifactCacheLru, BudgetedSweepProducesByteIdenticalResults) {
    // A sweep over a budget-starved shared cache rebuilds artifacts it
    // would otherwise reuse — the canonical result document must not
    // notice.
    const SweepEngine unbounded(2);
    const SweepResult reference = unbounded.run(small_spec());

    auto cache = std::make_shared<ArtifactCache>();
    cache->set_byte_budget(64 * 1024);  // well under one trace's footprint
    const SweepEngine budgeted(2, cache);
    const SweepResult result = budgeted.run(small_spec());
    EXPECT_EQ(to_json(result, /*include_timing=*/false),
              to_json(reference, /*include_timing=*/false));
}

}  // namespace
}  // namespace focs::runtime
