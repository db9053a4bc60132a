// Simulator performance microbenchmarks (google-benchmark).
//
// The paper stresses that the custom delay-annotated ISS enables "rapid
// evaluation ... for any complex benchmark"; these benchmarks document the
// throughput of this reproduction's equivalents: the bare cycle-accurate
// pipeline, the DCA-annotated engine, and the full characterization flow in
// its batched (production) and per-cycle streaming (reference) modes.
//
// Besides the google-benchmark suite, the binary emits a machine-readable
// BENCH_sim_throughput.json artifact (path override: FOCS_BENCH_JSON env
// var) with a fixed-work host calibration loop (the host-speed proxy the
// regression checker uses to decide whether absolute figures compare),
// cycles/sec and peak-RSS figures for both characterization modes, the
// evaluation hot loop (live and trace-replay), a sweep
// wall-clock comparison of the two evaluation modes at 1/2/4/8 workers,
// the voltage-axis amortization series (per-voltage delay passes vs
// one fused unit pass; a 10-voltage replay sweep with its unit-pass
// counters), the characterization-axis collapse series (V per-voltage
// reference characterizations vs one nominal pass plus V bit-identical
// DelayTable::scaled views; fused multi-generator replay vs per-variant
// runs), the robustness series (replay hot loop with a dormant
// CancellationToken threaded through, vs plain — the fault-tolerance
// machinery must be free when nothing fires), the SIMD series (vectorized
// replay kernels vs the byte-identical portable scalar kernel table, with
// the speedup enforced as a floor when a SIMD ISA is active), and the service
// series
// (N concurrent clients against the loopback sweep daemon, cold vs warm —
// the warm burst must perform zero builds), next to the pre-PR baseline
// those numbers are tracked against. CI uploads it and enforces
// regression thresholds against the committed artifact
// (tools/check_bench_regression.py).
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include "asm/assembler.hpp"
#include "common/cancel.hpp"
#include "core/dca_engine.hpp"
#include "core/flows.hpp"
#include "core/replay_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"
#include "runtime/result_io.hpp"
#include "runtime/sweep_engine.hpp"
#include "service/client.hpp"
#include "service/sweep_server.hpp"
#include "sim/machine.hpp"
#include "sim/trace_recorder.hpp"
#include "timing/cell_library.hpp"
#include "timing/netlist.hpp"
#include "timing/trace_delays.hpp"
#include "workloads/kernel.hpp"

namespace {

using namespace focs;

const assembler::Program& coremark_program() {
    static const assembler::Program program =
        assembler::assemble(workloads::find_kernel("coremark_mini").source);
    return program;
}

/// Every CycleRecord of one coremark run: the input of the per-voltage
/// reference pass (timing::compute_trace_delays). Traces keep only their
/// occupancy keys, so the records are collected here.
const std::vector<sim::CycleRecord>& coremark_records() {
    struct Collector final : sim::PipelineObserver {
        std::vector<sim::CycleRecord> records;
        void on_cycle(const sim::CycleRecord& record) override { records.push_back(record); }
    };
    static const std::vector<sim::CycleRecord> records = [] {
        sim::Machine machine;
        machine.load(coremark_program());
        Collector collector;
        machine.run(&collector);
        return std::move(collector.records);
    }();
    return records;
}

const std::vector<assembler::Program>& characterization_programs() {
    static const std::vector<assembler::Program> programs =
        workloads::assemble_programs(workloads::characterization_suite());
    return programs;
}

void BM_PipelineCycles(benchmark::State& state) {
    sim::Machine machine;
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        machine.load(coremark_program());
        const auto result = machine.run();
        cycles += result.cycles;
        benchmark::DoNotOptimize(result.exit_code);
    }
    state.counters["cycles/s"] = benchmark::Counter(static_cast<double>(cycles),
                                                    benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PipelineCycles)->Unit(benchmark::kMillisecond);

void BM_DcaEngineCycles(benchmark::State& state) {
    const timing::DesignConfig design;
    core::DcaEngine engine(design);
    core::GenieOraclePolicy policy;
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        const auto result = engine.run(coremark_program(), policy);
        cycles += result.cycles;
        benchmark::DoNotOptimize(result.total_time_ps);
    }
    state.counters["cycles/s"] = benchmark::Counter(static_cast<double>(cycles),
                                                    benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DcaEngineCycles)->Unit(benchmark::kMillisecond);

// The full evaluation unit the sweep runtime schedules: delay-annotated run
// under the per-instruction LUT policy (the paper's proposal).
void BM_EvaluateCellLut(benchmark::State& state) {
    const timing::DesignConfig design;
    static const dta::DelayTable table =
        core::CharacterizationFlow(design).run(characterization_programs()).table;
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        const auto result = core::evaluate_cell(design, table, coremark_program(),
                                                core::PolicyKind::kInstructionLut);
        cycles += result.cycles;
        benchmark::DoNotOptimize(result.speedup_vs_static);
    }
    state.counters["cycles/s"] = benchmark::Counter(static_cast<double>(cycles),
                                                    benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EvaluateCellLut)->Unit(benchmark::kMillisecond);

// The replay-mode unit: the same cell as BM_EvaluateCellLut, scored by the
// per-tuple LUT request over a pre-recorded trace's tuple ids instead of
// stepping the pipeline (byte-identical result).
void BM_ReplayCellLut(benchmark::State& state) {
    const timing::DesignConfig design;
    static const dta::DelayTable table =
        core::CharacterizationFlow(design).run(characterization_programs()).table;
    static const sim::PipelineTrace trace = sim::record_trace(coremark_program());
    static const auto unit = std::make_shared<const timing::UnitTraceDelays>(
        timing::record_unit_trace_delays(timing::DelayCalculator(design), coremark_program()));
    const core::ReplayEvaluationEngine engine(
        trace, timing::scale_trace_delays(unit, timing::DelayCalculator(design)), table);
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        const auto result = engine.run(core::PolicyKind::kInstructionLut);
        cycles += result.cycles;
        benchmark::DoNotOptimize(result.speedup_vs_static);
    }
    state.counters["cycles/s"] = benchmark::Counter(static_cast<double>(cycles),
                                                    benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReplayCellLut)->Unit(benchmark::kMillisecond);

// The same replay cell pinned to the portable scalar kernel table
// (--no-simd): the gap against BM_ReplayCellLut is the vectorized-kernel
// win, with byte-identical results (the tracked artifact series enforces a
// floor on the ratio when SIMD is active).
void BM_ReplayCellLutScalar(benchmark::State& state) {
    const timing::DesignConfig design;
    static const dta::DelayTable table =
        core::CharacterizationFlow(design).run(characterization_programs()).table;
    static const sim::PipelineTrace trace = sim::record_trace(coremark_program());
    static const auto unit = std::make_shared<const timing::UnitTraceDelays>(
        timing::record_unit_trace_delays(timing::DelayCalculator(design), coremark_program()));
    core::ReplayOptions options;
    options.force_scalar = true;
    const core::ReplayEvaluationEngine engine(
        trace, timing::scale_trace_delays(unit, timing::DelayCalculator(design)), table,
        options);
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        const auto result = engine.run(core::PolicyKind::kInstructionLut);
        cycles += result.cycles;
        benchmark::DoNotOptimize(result.speedup_vs_static);
    }
    state.counters["cycles/s"] = benchmark::Counter(static_cast<double>(cycles),
                                                    benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReplayCellLutScalar)->Unit(benchmark::kMillisecond);

// Replay hot-loop instrumentation overhead: 0 = never instrumented
// (kForceOff — no span or metrics, as in a -DFOCS_OBS_COMPILE_OUT build),
// 1 = the shipping default (kAuto with the global switches off: one flag
// check per call), 2 = fully instrumented (kForceOn with the global
// registry and tracer enabled). All three run the same block loop; they
// differ only in the per-call branch and the work recorded after it.
void BM_ReplayCellLutObs(benchmark::State& state) {
    const timing::DesignConfig design;
    static const dta::DelayTable table =
        core::CharacterizationFlow(design).run(characterization_programs()).table;
    static const sim::PipelineTrace trace = sim::record_trace(coremark_program());
    static const auto unit = std::make_shared<const timing::UnitTraceDelays>(
        timing::record_unit_trace_delays(timing::DelayCalculator(design), coremark_program()));
    core::ReplayOptions options;
    switch (state.range(0)) {
        case 0: options.obs = core::ReplayObsMode::kForceOff; break;
        case 1: options.obs = core::ReplayObsMode::kAuto; break;
        default: options.obs = core::ReplayObsMode::kForceOn; break;
    }
    const bool instrumented = state.range(0) == 2;
    if (instrumented) {
        obs::global_metrics().set_enabled(true);
        obs::global_tracer().set_enabled(true);
    }
    const core::ReplayEvaluationEngine engine(
        trace, timing::scale_trace_delays(unit, timing::DelayCalculator(design)), table,
        options);
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        const auto result = engine.run(core::PolicyKind::kInstructionLut);
        cycles += result.cycles;
        benchmark::DoNotOptimize(result.speedup_vs_static);
    }
    if (instrumented) {
        obs::global_metrics().set_enabled(false);
        obs::global_tracer().set_enabled(false);
        obs::global_metrics().reset();
        obs::global_tracer().reset();
    }
    state.counters["cycles/s"] = benchmark::Counter(static_cast<double>(cycles),
                                                    benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReplayCellLutObs)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);

// Full characterization flow over the whole suite, one timer tick per flow
// run, in the per-cycle streaming reference mode (EventSink ingestion). It
// produces the same LUT as the batched default below.
void BM_CharacterizationStreaming(benchmark::State& state) {
    const timing::DesignConfig design;
    const core::CharacterizationFlow flow(design);
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        const auto result =
            flow.run(characterization_programs(), core::CharacterizationMode::kStreaming);
        cycles += result.cycles;
        benchmark::DoNotOptimize(result.genie_mean_period_ps);
    }
    state.counters["cycles/s"] = benchmark::Counter(static_cast<double>(cycles),
                                                    benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CharacterizationStreaming)->Unit(benchmark::kMillisecond);

// Batched characterization (the default mode): SoA endpoint kernel over
// distilled cycle batches, with `Arg` endpoint-kernel worker threads (1 =
// serial inline kernel). Byte-identical delay tables at every thread count.
void BM_CharacterizationBatched(benchmark::State& state) {
    const timing::DesignConfig design;
    const core::CharacterizationFlow flow(design);
    core::CharacterizationOptions options;
    options.threads = static_cast<int>(state.range(0));
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        const auto result = flow.run(characterization_programs(), options);
        cycles += result.cycles;
        benchmark::DoNotOptimize(result.genie_mean_period_ps);
    }
    state.counters["cycles/s"] = benchmark::Counter(static_cast<double>(cycles),
                                                    benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CharacterizationBatched)
    ->RangeMultiplier(2)
    ->Range(1, 8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_Assembler(benchmark::State& state) {
    const auto& kernel = workloads::find_kernel("coremark_mini");
    for (auto _ : state) {
        const auto program = assembler::assemble(kernel.source);
        benchmark::DoNotOptimize(program.bytes().size());
    }
}
BENCHMARK(BM_Assembler)->Unit(benchmark::kMicrosecond);

void BM_DelayCalculatorEvaluate(benchmark::State& state) {
    const timing::DesignConfig design;
    const timing::DelayCalculator calculator(design);
    sim::CycleRecord record;
    record.stages[static_cast<std::size_t>(sim::Stage::kEx)].valid = true;
    record.stages[static_cast<std::size_t>(sim::Stage::kEx)].inst.opcode = isa::Opcode::kAdd;
    record.stages[static_cast<std::size_t>(sim::Stage::kEx)].operand_a = 0x12345678u;
    record.stages[static_cast<std::size_t>(sim::Stage::kEx)].operand_b = 0x9abcdef0u;
    std::uint64_t cycle = 0;
    for (auto _ : state) {
        record.cycle = ++cycle;
        benchmark::DoNotOptimize(calculator.evaluate(record).required_period_ps);
    }
}
BENCHMARK(BM_DelayCalculatorEvaluate);

// Serial-vs-parallel scaling of the sweep runtime: the same three-policy
// suite grid, executed with 1/2/4 worker threads. The shared ArtifactCache
// is pre-warmed so iterations measure pure evaluation throughput, not the
// (once-per-process) characterization. Pinned to live mode so the cells/s
// series stays comparable with its pre-replay history (the replay-vs-live
// comparison lives in the JSON artifact's "sweep" section).
void BM_SweepEngineScaling(benchmark::State& state) {
    static const auto cache = std::make_shared<runtime::ArtifactCache>();
    runtime::SweepSpec spec;
    spec.policies = {core::PolicyKind::kStatic, core::PolicyKind::kInstructionLut,
                     core::PolicyKind::kGenie};
    const runtime::SweepEngine engine(static_cast<int>(state.range(0)), cache,
                                      runtime::EvalMode::kLive);
    engine.run(spec);  // warm programs + delay table (untimed)
    std::uint64_t cells = 0;
    for (auto _ : state) {
        const auto result = engine.run(spec);
        cells += result.cells.size();
        benchmark::DoNotOptimize(result.mean_speedup);
    }
    state.counters["cells/s"] =
        benchmark::Counter(static_cast<double>(cells), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SweepEngineScaling)
    ->RangeMultiplier(2)
    ->Range(1, 4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ------------------------------------------------------------- JSON artifact

/// Resident-set high-water mark of this process, KiB.
long peak_rss_kb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

struct TimedRun {
    double cycles_per_s = 0;
    std::uint64_t cycles = 0;
};

template <typename Fn>
TimedRun timed_cycles(int reps, Fn&& run) {
    run();  // warm-up (untimed)
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t cycles = 0;
    for (int i = 0; i < reps; ++i) cycles += run();
    const double seconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
    return {seconds > 0 ? static_cast<double>(cycles) / seconds : 0, cycles};
}

/// Fixed-work host calibration: xorshift64 steps per microsecond, best of
/// several short repeats (a preempted repeat reads slow, while a host whose
/// clock really dropped reads slow on every repeat). It exercises no focs
/// code, so no change to the program can move it: the regression checker
/// compares it between artifacts to judge whether their absolute figures
/// came from comparable hosts.
double calibration_rate_mops() {
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
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        best = std::max(best, static_cast<double>(kIterations) / seconds / 1e6);
    }
    return best;
}

/// Pre-PR throughput of the seed implementation (offline event-log
/// characterization, per-fetch decode, checked per-stage LUT lookups),
/// measured on the CI-class dev host this repository is benchmarked on.
/// These anchor the speedup fields below; on a different host compare the
/// measured absolute numbers against its own recorded history instead.
constexpr double kBaselineCharacterizationCyclesPerS = 236379.0;
constexpr double kBaselineEvaluationCyclesPerS = 3780784.0;

void emit_artifact() {
    using runtime::json_number;
    using runtime::json_string;

    const timing::DesignConfig design;
    const core::CharacterizationFlow flow(design);
    const auto& programs = characterization_programs();
    const double calibration_mops = calibration_rate_mops();

    // Peak-RSS protocol: measure the streaming mode first (1x, then 4x the
    // program list) so the monotonic high-water mark can prove that
    // streaming peak memory does not scale with cycle count.
    std::vector<assembler::Program> programs_4x;
    programs_4x.reserve(programs.size() * 4);
    for (int i = 0; i < 4; ++i) {
        programs_4x.insert(programs_4x.end(), programs.begin(), programs.end());
    }

    const long rss_start_kb = peak_rss_kb();
    dta::DelayTable table;  // captured from the timed runs for the eval bench
    const TimedRun streaming = timed_cycles(3, [&] {
        auto result = flow.run(programs, core::CharacterizationMode::kStreaming);
        table = std::move(result.table);
        return result.cycles;
    });
    const long rss_streaming_kb = peak_rss_kb();
    const TimedRun streaming_4x = timed_cycles(1, [&] {
        return flow.run(programs_4x, core::CharacterizationMode::kStreaming).cycles;
    });
    const long rss_streaming_4x_kb = peak_rss_kb();

    // Batched engine scaling series (after the RSS protocol above so the
    // slot rings don't disturb the streaming high-water marks). threads=1
    // is the serial inline kernel — the acceptance figure tracked per push.
    constexpr int kBatchedThreadSeries[] = {1, 2, 4, 8};
    std::array<TimedRun, 4> batched{};
    for (std::size_t i = 0; i < batched.size(); ++i) {
        core::CharacterizationOptions options;
        options.threads = kBatchedThreadSeries[i];
        batched[i] = timed_cycles(3, [&] { return flow.run(programs, options).cycles; });
    }
    double batched_best = 0;
    for (const TimedRun& run : batched) batched_best = std::max(batched_best, run.cycles_per_s);

    const TimedRun evaluation = timed_cycles(200, [&] {
        return core::evaluate_cell(design, table, coremark_program(),
                                   core::PolicyKind::kInstructionLut)
            .cycles;
    });

    // Replay-mode evaluation of the same cell: one recorded trace + the
    // shared voltage-free unit delays, scored by the per-tuple LUT request
    // kernel against a ScaledTraceDelays view.
    const sim::PipelineTrace trace = sim::record_trace(coremark_program());
    const auto unit_delays = std::make_shared<const timing::UnitTraceDelays>(
        timing::record_unit_trace_delays(timing::DelayCalculator(design), coremark_program()));
    const core::ReplayEvaluationEngine replay_engine(
        trace, timing::scale_trace_delays(unit_delays, timing::DelayCalculator(design)), table);
    const TimedRun replay = timed_cycles(200, [&] {
        return replay_engine.run(core::PolicyKind::kInstructionLut).cycles;
    });

    // Instrumentation overhead on the replay hot loop: the same cell under
    // the three ReplayObsMode resolutions. kForceOff records nothing, as a
    // -DFOCS_OBS_COMPILE_OUT build; kAuto with the global switches off is
    // the shipping default (one relaxed flag check per call, then the same
    // block loop with nothing recorded); kForceOn with the global registry
    // + tracer enabled is the fully instrumented path. Best-of-3 passes so
    // the disabled/compiled-out ratio — enforced as a >= 0.97 floor by
    // tools/check_bench_regression.py — measures the code path, not
    // scheduler noise. (In a compiled-out build all three
    // series run the same loop by construction.)
    const auto best_replay_rate = [&](core::ReplayObsMode mode) {
        core::ReplayOptions options;
        options.obs = mode;
        const core::ReplayEvaluationEngine obs_engine(
            trace, timing::scale_trace_delays(unit_delays, timing::DelayCalculator(design)),
            table, options);
        double best = 0;
        for (int pass = 0; pass < 3; ++pass) {
            best = std::max(best, timed_cycles(100, [&] {
                                return obs_engine.run(core::PolicyKind::kInstructionLut).cycles;
                            }).cycles_per_s);
        }
        return best;
    };
    const double obs_compiled_out = best_replay_rate(core::ReplayObsMode::kForceOff);
    const double obs_disabled = best_replay_rate(core::ReplayObsMode::kAuto);
    obs::global_metrics().set_enabled(true);
    obs::global_tracer().set_enabled(true);
    const double obs_enabled = best_replay_rate(core::ReplayObsMode::kForceOn);
    obs::global_metrics().set_enabled(false);
    obs::global_tracer().set_enabled(false);
    obs::global_metrics().reset();
    obs::global_tracer().reset();

    // Fault-tolerance overhead on the replay hot loop: the same cell with a
    // dormant (never-firing) CancellationToken threaded through
    // ReplayOptions — one pointer check plus one relaxed load per replay
    // block, never per cycle — against the plain engine. The fault-inject
    // hooks sit at artifact builds and cell boundaries, off this loop
    // entirely, so the dormant/plain ratio bounds the whole keep-going
    // machinery's hot-path tax; best-of-3 passes, enforced as a >= 0.97
    // floor by tools/check_bench_regression.py.
    const auto best_replay_rate_with = [&](const core::ReplayOptions& options) {
        const core::ReplayEvaluationEngine robust_engine(
            trace, timing::scale_trace_delays(unit_delays, timing::DelayCalculator(design)),
            table, options);
        double best = 0;
        for (int pass = 0; pass < 3; ++pass) {
            best = std::max(best, timed_cycles(100, [&] {
                                return robust_engine.run(core::PolicyKind::kInstructionLut).cycles;
                            }).cycles_per_s);
        }
        return best;
    };
    const double robust_plain = best_replay_rate_with(core::ReplayOptions{});
    const CancellationToken dormant_token;
    core::ReplayOptions dormant_options;
    dormant_options.cancel = &dormant_token;
    const double robust_dormant = best_replay_rate_with(dormant_options);

    // Vectorized replay kernels vs the portable scalar kernel table: the
    // default engine dispatches to the SIMD kernel table (AVX2/NEON) when
    // the host supports one and falls back to the scalar table otherwise,
    // while force_scalar (--no-simd) pins the byte-identical scalar table.
    // Both sides run the same block loop, so the ratio is the kernels'
    // own win.
    // The two sides are measured in *interleaved* best-of-5 passes — an
    // alternating slow window (noisy neighbor, frequency dip) then taxes
    // both engines instead of skewing the ratio — because
    // check_bench_regression.py enforces a floor on the speedup whenever
    // the fresh artifact reports simd_active.
    core::ReplayOptions scalar_options;
    scalar_options.force_scalar = true;
    const core::ReplayEvaluationEngine simd_side_engine(
        trace, timing::scale_trace_delays(unit_delays, timing::DelayCalculator(design)), table);
    const core::ReplayEvaluationEngine scalar_side_engine(
        trace, timing::scale_trace_delays(unit_delays, timing::DelayCalculator(design)), table,
        scalar_options);
    double replay_simd = 0;
    double replay_scalar = 0;
    for (int pass = 0; pass < 5; ++pass) {
        replay_simd = std::max(replay_simd, timed_cycles(100, [&] {
                                   return simd_side_engine.run(core::PolicyKind::kInstructionLut)
                                       .cycles;
                               }).cycles_per_s);
        replay_scalar = std::max(replay_scalar, timed_cycles(100, [&] {
                                     return scalar_side_engine
                                         .run(core::PolicyKind::kInstructionLut)
                                         .cycles;
                                 }).cycles_per_s);
    }
    const core::ReplayKernels* simd_kernels = core::simd_replay_kernels();
    const bool simd_active = simd_kernels != nullptr;
    const char* simd_isa = simd_active ? simd_kernels->name : "scalar";

    // Fused multi-generator replay: one {ideal, taps:8, pll} policy column
    // scored by a single run_fused pass (the per-tuple requests built once,
    // every variant integrated in one multi-variant reduce) vs G
    // independent run() calls — byte-identical results, so the ratio is
    // the fusion's win. Generators are stateful and re-instantiated inside
    // the timed body on both sides.
    const std::vector<runtime::GeneratorSpec> fused_gens = {
        runtime::GeneratorSpec::parse("ideal"), runtime::GeneratorSpec::parse("taps:8"),
        runtime::GeneratorSpec::parse("pll:1300/1500:4")};
    const double fused_static_period =
        timing::scale_trace_delays(unit_delays, timing::DelayCalculator(design))
            .static_period_ps;
    const auto fused_column_cycles = [&](bool fused) {
        std::vector<std::unique_ptr<clocking::ClockGenerator>> owned;
        std::vector<clocking::ClockGenerator*> variants;
        owned.reserve(fused_gens.size());
        variants.reserve(fused_gens.size());
        for (const runtime::GeneratorSpec& gen : fused_gens) {
            owned.push_back(gen.instantiate(fused_static_period));
            variants.push_back(gen.kind == runtime::GeneratorSpec::Kind::kIdeal
                                   ? nullptr
                                   : owned.back().get());
        }
        std::uint64_t cycles = 0;
        if (fused) {
            for (const auto& result :
                 simd_side_engine.run_fused(core::PolicyKind::kInstructionLut, variants)) {
                cycles += result.cycles;
            }
        } else {
            for (clocking::ClockGenerator* generator : variants) {
                cycles +=
                    simd_side_engine.run(core::PolicyKind::kInstructionLut, generator).cycles;
            }
        }
        return cycles;
    };
    double fused_replay_rate = 0;
    double per_variant_replay_rate = 0;
    for (int pass = 0; pass < 3; ++pass) {
        per_variant_replay_rate =
            std::max(per_variant_replay_rate,
                     timed_cycles(50, [&] { return fused_column_cycles(false); }).cycles_per_s);
        fused_replay_rate =
            std::max(fused_replay_rate,
                     timed_cycles(50, [&] { return fused_column_cycles(true); }).cycles_per_s);
    }

    // Service cold-vs-warm loopback series: N clients fire the same spec
    // at a fresh daemon (cold: every artifact built once behind shared
    // futures) and then again at the warmed daemon (warm: the shared cache
    // answers without a single build). Real sockets, real HTTP framing, the
    // production admission path — the warm/cold gap is the cross-request
    // amortization the service exists for, and warm_zero_build is the
    // serving contract check_bench_regression.py enforces as a floor.
    constexpr int kClientSeries[] = {1, 2, 4, 8};
    constexpr const char* kServiceSpec =
        "kernels = crc32, fibcall\npolicies = lut, static\nvoltages = 0.70\n";
    std::array<double, 4> service_cold_ms{};
    std::array<double, 4> service_warm_ms{};
    std::size_t service_cells = 0;
    std::uint64_t service_warm_builds = 0;
    bool service_clean = true;
    for (std::size_t i = 0; i < service_cold_ms.size(); ++i) {
        service::ServerConfig server_config;
        server_config.port = 0;
        server_config.max_inflight = 4;
        server_config.queue_depth = 64;  // wide window: measure service, not shedding
        server_config.jobs = 1;
        service::SweepServer server(server_config);
        server.start();
        service::LoadOptions load;
        load.port = server.port();
        load.spec_text = kServiceSpec;
        load.requests = kClientSeries[i];
        load.concurrency = kClientSeries[i];
        const auto timed_load = [&](std::array<double, 4>& series) {
            const auto t0 = std::chrono::steady_clock::now();
            const service::LoadReport report = service::run_load(load);
            series[i] = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0).count();
            if (report.ok != static_cast<std::uint64_t>(load.requests)) service_clean = false;
            return report;
        };
        timed_load(service_cold_ms);
        const service::LoadReport warm = timed_load(service_warm_ms);
        for (const std::string& body : warm.bodies) {
            if (body.empty()) continue;
            const runtime::SweepResult result = runtime::from_json(body);
            service_cells = result.cells.size();
            service_warm_builds += result.characterizations + result.guest_simulations +
                                   result.unit_delay_passes;
        }
        server.request_drain();
        server.wait();
    }

    // Voltage-axis amortization, measured two ways. (a) The delay passes
    // themselves: V reference passes (one per operating point, the pre-v4
    // cost) against one unit pass serving the same V points as
    // scalar-multiplied views. (b) A voltage-dense replay sweep (full
    // suite x lut x 10 voltages) whose cache counters prove one pass per
    // kernel; tables are pre-seeded per point via DelayTable::scaled so
    // the wall clock isolates evaluation, not characterization.
    constexpr double kAxisVoltages[] = {0.50, 0.54, 0.58, 0.62, 0.66,
                                        0.70, 0.74, 0.78, 0.82, 0.86};
    constexpr int kAxisPoints = static_cast<int>(std::size(kAxisVoltages));
    double per_voltage_passes_ms = 0;
    double unit_pass_ms = 0;
    {
        const std::vector<sim::CycleRecord>& records = coremark_records();
        const auto t0 = std::chrono::steady_clock::now();
        for (const double voltage : kAxisVoltages) {
            timing::DesignConfig point = design;
            point.voltage_v = voltage;
            const auto delays =
                timing::compute_trace_delays(timing::DelayCalculator(point), records);
            benchmark::DoNotOptimize(delays.required_period_ps.data());
        }
        const auto t1 = std::chrono::steady_clock::now();
        for (int i = 0; i < kAxisPoints; ++i) {
            // One unit pass over the same records, cycle by cycle as the
            // production build streams it from its guest run (the guest
            // run itself is not timed, as on the reference side); the
            // per-voltage views are scalar derivations (their cost is the
            // one multiply per cycle already inside the replay kernels).
            // Run it V times so both sides time V pieces of work and the
            // ratio reads directly as the per-axis win.
            const timing::DelayCalculator calculator(design);
            timing::UnitDelayRecorder recorder(calculator);
            for (const sim::CycleRecord& record : records) recorder.on_cycle(record);
            const auto unit_axis = recorder.take();
            benchmark::DoNotOptimize(unit_axis.unit_required_period_ps.data());
        }
        const auto t2 = std::chrono::steady_clock::now();
        per_voltage_passes_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
        unit_pass_ms =
            std::chrono::duration<double, std::milli>(t2 - t1).count() / kAxisPoints;
    }

    runtime::SweepSpec axis_spec;
    axis_spec.policies = {core::PolicyKind::kInstructionLut};
    axis_spec.voltages_v.assign(kAxisVoltages, kAxisVoltages + kAxisPoints);
    const dta::AnalyzerConfig axis_analyzer = runtime::SweepEngine::analyzer_config_for(axis_spec);
    const timing::CellLibrary& library = timing::CellLibrary::fdsoi28();
    const double nominal_scale = library.delay_scale(timing::DesignConfig{}.voltage_v);
    constexpr int kAxisJobSeries[] = {1, 2, 4, 8};
    std::array<double, 4> axis_wall_ms{};
    std::size_t axis_cells = 0;
    std::uint64_t axis_unit_passes = 0;
    std::uint64_t axis_unit_reuses = 0;
    for (std::size_t i = 0; i < axis_wall_ms.size(); ++i) {
        double best_ms = 0;
        for (int rep = 0; rep < 2; ++rep) {
            auto cache = std::make_shared<runtime::ArtifactCache>();
            for (const double voltage : kAxisVoltages) {
                cache->put_delay_table(
                    axis_spec.design_for(voltage), axis_analyzer,
                    table.scaled(library.delay_scale(voltage) / nominal_scale));
            }
            const runtime::SweepEngine engine(kAxisJobSeries[i], cache,
                                              runtime::EvalMode::kReplay);
            const auto result = engine.run(axis_spec);
            axis_cells = result.cells.size();
            axis_unit_passes = result.unit_delay_passes;
            axis_unit_reuses = result.unit_delay_reuses;
            if (rep == 0 || result.wall_ms < best_ms) best_ms = result.wall_ms;
        }
        axis_wall_ms[i] = best_ms;
    }

    // Characterization-axis collapse: the same 10-point axis paid two
    // ways. Reference: one full characterization flow per operating point
    // (what --reference-characterization re-enables). Nominal-once: a
    // single characterization at the nominal point plus 10 scaled views
    // (DelayTable::scaled re-applies the guard-band rule on the scaled raw
    // samples). The views must serialize bit-identically to the reference
    // tables — emitted as a determinism bit and enforced as a floor next
    // to the nominal-pass speedup by tools/check_bench_regression.py.
    double char_reference_ms = 0;
    double char_nominal_ms = 0;
    bool scaled_views_identical = true;
    {
        std::vector<dta::DelayTable> reference_tables;
        reference_tables.reserve(kAxisPoints);
        const auto t0 = std::chrono::steady_clock::now();
        for (const double voltage : kAxisVoltages) {
            timing::DesignConfig point = design;
            point.voltage_v = voltage;
            reference_tables.push_back(
                core::CharacterizationFlow(point).run(programs).table);
        }
        const auto t1 = std::chrono::steady_clock::now();
        timing::DesignConfig nominal_point = design;
        nominal_point.voltage_v = timing::kNominalVoltageV;
        const dta::DelayTable nominal_table =
            core::CharacterizationFlow(nominal_point).run(programs).table;
        std::vector<dta::DelayTable> views;
        views.reserve(kAxisPoints);
        for (const double voltage : kAxisVoltages) {
            views.push_back(nominal_table.scaled(library.delay_scale(voltage) / nominal_scale));
        }
        const auto t2 = std::chrono::steady_clock::now();
        char_reference_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
        char_nominal_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
        for (int i = 0; i < kAxisPoints; ++i) {
            if (views[static_cast<std::size_t>(i)].serialize() !=
                reference_tables[static_cast<std::size_t>(i)].serialize()) {
                scaled_views_identical = false;
            }
        }
    }

    // Sweep wall-clock, same grid in both modes at 1/2/4/8 workers: the
    // full benchmark suite x all five policies x {ideal, taps:8}. Each run
    // gets a fresh cache pre-seeded with the delay table, so the wall-clock
    // compares pure evaluation (live: one guest simulation per cell;
    // replay: one per kernel + trace recording + kernels), not the shared
    // characterization. min-of-2 per point to damp scheduler noise.
    runtime::SweepSpec sweep_spec;
    sweep_spec.policies = {core::PolicyKind::kStatic, core::PolicyKind::kTwoClass,
                           core::PolicyKind::kExOnly, core::PolicyKind::kInstructionLut,
                           core::PolicyKind::kGenie};
    sweep_spec.generators = {runtime::GeneratorSpec::parse("ideal"),
                             runtime::GeneratorSpec::parse("taps:8")};
    const dta::AnalyzerConfig sweep_analyzer = runtime::SweepEngine::analyzer_config_for(sweep_spec);
    const timing::DesignConfig sweep_design =
        sweep_spec.design_for(timing::DesignConfig{}.voltage_v);
    constexpr int kSweepJobSeries[] = {1, 2, 4, 8};
    std::array<double, 4> sweep_live_ms{};
    std::array<double, 4> sweep_replay_ms{};
    std::size_t sweep_cells = 0;
    std::uint64_t sweep_guests_replay = 0;
    for (std::size_t i = 0; i < sweep_live_ms.size(); ++i) {
        for (const bool is_replay : {false, true}) {
            double best_ms = 0;
            for (int rep = 0; rep < 2; ++rep) {
                auto cache = std::make_shared<runtime::ArtifactCache>();
                cache->put_delay_table(sweep_design, sweep_analyzer, table);
                const runtime::SweepEngine engine(
                    kSweepJobSeries[i], cache,
                    is_replay ? runtime::EvalMode::kReplay : runtime::EvalMode::kLive);
                const auto result = engine.run(sweep_spec);
                sweep_cells = result.cells.size();
                if (is_replay) sweep_guests_replay = result.guest_simulations;
                if (rep == 0 || result.wall_ms < best_ms) best_ms = result.wall_ms;
            }
            (is_replay ? sweep_replay_ms : sweep_live_ms)[i] = best_ms;
        }
    }

    std::string out = "{\n";
    out += "  \"schema\": " + json_string("focs-bench-sim-throughput-v11") + ",\n";
    out += "  \"host\": {\n";
    out += "    \"note\": " +
           json_string("fixed-work calibration loop (xorshift64 steps per microsecond, best "
                       "of 7 repeats of 1M steps) that runs no focs code; "
                       "tools/check_bench_regression.py compares it between artifacts to "
                       "decide whether the absolute figures come from comparable hosts") +
           ",\n";
    out += "    \"calibration_mops\": " + json_number(calibration_mops) + "\n  },\n";
    out += "  \"baseline\": {\n";
    out += "    \"note\": " +
           json_string("pre-PR seed implementation, commit edd42a9, measured on the repo's dev "
                       "host; the speedup fields below are only meaningful on comparable "
                       "hardware — on other hosts (e.g. CI runners) track the absolute "
                       "cycles/s against that host's own artifact history") +
           ",\n";
    out += "    \"characterization_cycles_per_s\": " +
           json_number(kBaselineCharacterizationCyclesPerS) + ",\n";
    out += "    \"evaluation_cycles_per_s\": " + json_number(kBaselineEvaluationCyclesPerS) +
           "\n  },\n";
    out += "  \"characterization\": {\n";
    out += "    \"suite_cycles\": " + std::to_string(streaming.cycles / 3) + ",\n";
    out += "    \"streaming_cycles_per_s\": " + json_number(streaming.cycles_per_s) + ",\n";
    out += "    \"streaming_4x_cycles_per_s\": " + json_number(streaming_4x.cycles_per_s) + ",\n";
    out += "    \"streaming_speedup_vs_baseline\": " +
           json_number(streaming.cycles_per_s / kBaselineCharacterizationCyclesPerS) + ",\n";
    out += "    \"characterization_batched_cycles_per_s\": {\n";
    for (std::size_t i = 0; i < batched.size(); ++i) {
        out += "      \"threads_" + std::to_string(kBatchedThreadSeries[i]) +
               "\": " + json_number(batched[i].cycles_per_s) + (i + 1 < batched.size() ? ",\n" : "\n");
    }
    out += "    },\n";
    out += "    \"batched_speedup_vs_streaming\": " +
           json_number(batched_best / streaming.cycles_per_s) + ",\n";
    out += "    \"batched_speedup_vs_baseline\": " +
           json_number(batched_best / kBaselineCharacterizationCyclesPerS) + "\n  },\n";
    out += "  \"evaluation\": {\n";
    out += "    \"lut_cycles_per_s\": " + json_number(evaluation.cycles_per_s) + ",\n";
    out += "    \"lut_speedup_vs_baseline\": " +
           json_number(evaluation.cycles_per_s / kBaselineEvaluationCyclesPerS) + ",\n";
    out += "    \"replay_lut_cycles_per_s\": " + json_number(replay.cycles_per_s) + ",\n";
    out += "    \"replay_speedup_vs_live\": " +
           json_number(replay.cycles_per_s / evaluation.cycles_per_s) + ",\n";
    out += "    \"replay_speedup_vs_baseline\": " +
           json_number(replay.cycles_per_s / kBaselineEvaluationCyclesPerS) + "\n  },\n";
    out += "  \"simd\": {\n";
    out += "    \"note\": " +
           json_string("vectorized replay kernels (per-tuple LUT row read through the "
                       "trace's tuple ids, vectorized safety reduction) vs the byte-identical "
                       "portable scalar kernel table (ReplayOptions::force_scalar / --no-simd), "
                       "interleaved best of 5 passes each; replay_simd_speedup is enforced "
                       "as a floor by tools/check_bench_regression.py whenever simd_active "
                       "is 1") +
           ",\n";
    out += "    \"simd_active\": " + std::string(simd_active ? "1" : "0") + ",\n";
    out += "    \"simd_isa\": " + json_string(simd_isa) + ",\n";
    out += "    \"replay_lut_scalar_cycles_per_s\": " + json_number(replay_scalar) + ",\n";
    out += "    \"replay_lut_simd_cycles_per_s\": " + json_number(replay_simd) + ",\n";
    out += "    \"replay_simd_speedup\": " +
           json_number(replay_scalar > 0 ? replay_simd / replay_scalar : 0) + "\n  },\n";
    out += "  \"instrumentation\": {\n";
    out += "    \"note\": " +
           json_string("replay hot loop under the three ReplayObsMode resolutions, best of 3 "
                       "passes each: compiled_out is kForceOff (nothing recorded, as in a "
                       "-DFOCS_OBS_COMPILE_OUT build), disabled is the shipping default "
                       "(kAuto, global switches off), enabled is kForceOn with the registry "
                       "and tracer live; the disabled/compiled_out ratio is enforced as a "
                       "floor so dormant instrumentation can never tax the hot loop") +
           ",\n";
    out += "    \"replay_compiled_out_cycles_per_s\": " + json_number(obs_compiled_out) + ",\n";
    out += "    \"replay_disabled_cycles_per_s\": " + json_number(obs_disabled) + ",\n";
    out += "    \"replay_enabled_cycles_per_s\": " + json_number(obs_enabled) + ",\n";
    out += "    \"disabled_vs_compiled_out_ratio\": " +
           json_number(obs_compiled_out > 0 ? obs_disabled / obs_compiled_out : 0) + ",\n";
    out += "    \"enabled_vs_compiled_out_ratio\": " +
           json_number(obs_compiled_out > 0 ? obs_enabled / obs_compiled_out : 0) + "\n  },\n";
    out += "  \"robustness\": {\n";
    out += "    \"note\": " +
           json_string("replay hot loop with the fault-tolerance machinery dormant: a "
                       "never-firing CancellationToken threaded through ReplayOptions (one "
                       "pointer check + relaxed load per block, the only robustness code on "
                       "the hot path; fault hooks live at artifact builds and cell "
                       "boundaries) vs the plain engine, best of 3 passes each; the ratio is "
                       "enforced as a floor so keep-going mode and deadlines can never tax "
                       "a healthy sweep") +
           ",\n";
    out += "    \"replay_plain_cycles_per_s\": " + json_number(robust_plain) + ",\n";
    out += "    \"replay_dormant_cancel_cycles_per_s\": " + json_number(robust_dormant) + ",\n";
    out += "    \"dormant_cancel_vs_plain_ratio\": " +
           json_number(robust_plain > 0 ? robust_dormant / robust_plain : 0) + "\n  },\n";
    out += "  \"sweep\": {\n";
    out += "    \"note\": " +
           json_string("same grid (benchmark suite x 5 policies x {ideal, taps:8}, one "
                       "voltage) in both evaluation modes, delay table pre-seeded, fresh "
                       "cache per run, min of 2 runs; replay records one trace per kernel "
                       "and replays every cell from it, live simulates every cell") +
           ",\n";
    out += "    \"grid_cells\": " + std::to_string(sweep_cells) + ",\n";
    out += "    \"replay_guest_simulations\": " + std::to_string(sweep_guests_replay) + ",\n";
    out += "    \"live_guest_simulations\": " + std::to_string(sweep_cells) + ",\n";
    out += "    \"live_wall_ms\": {\n";
    for (std::size_t i = 0; i < sweep_live_ms.size(); ++i) {
        out += "      \"jobs_" + std::to_string(kSweepJobSeries[i]) +
               "\": " + json_number(sweep_live_ms[i]) +
               (i + 1 < sweep_live_ms.size() ? ",\n" : "\n");
    }
    out += "    },\n";
    out += "    \"replay_wall_ms\": {\n";
    for (std::size_t i = 0; i < sweep_replay_ms.size(); ++i) {
        out += "      \"jobs_" + std::to_string(kSweepJobSeries[i]) +
               "\": " + json_number(sweep_replay_ms[i]) +
               (i + 1 < sweep_replay_ms.size() ? ",\n" : "\n");
    }
    out += "    },\n";
    out += "    \"replay_sweep_speedup\": {\n";
    for (std::size_t i = 0; i < sweep_replay_ms.size(); ++i) {
        const double speedup =
            sweep_replay_ms[i] > 0 ? sweep_live_ms[i] / sweep_replay_ms[i] : 0;
        out += "      \"jobs_" + std::to_string(kSweepJobSeries[i]) +
               "\": " + json_number(speedup) + (i + 1 < sweep_replay_ms.size() ? ",\n" : "\n");
    }
    out += "    }\n  },\n";
    out += "  \"service\": {\n";
    out += "    \"note\": " +
           json_string("sweep daemon over loopback HTTP: N clients (released by a start "
                       "latch) POST the same 4-cell spec to a fresh server (cold: every "
                       "artifact built exactly once behind shared futures) and again to the "
                       "warmed server; warm_zero_build == 1 certifies the warm burst "
                       "performed zero characterizations, guest simulations and unit delay "
                       "passes — the cross-request amortization contract, enforced as a "
                       "floor by tools/check_bench_regression.py") +
           ",\n";
    out += "    \"spec_cells\": " + std::to_string(service_cells) + ",\n";
    out += "    \"cold_wall_ms\": {\n";
    for (std::size_t i = 0; i < service_cold_ms.size(); ++i) {
        out += "      \"clients_" + std::to_string(kClientSeries[i]) +
               "\": " + json_number(service_cold_ms[i]) +
               (i + 1 < service_cold_ms.size() ? ",\n" : "\n");
    }
    out += "    },\n";
    out += "    \"warm_wall_ms\": {\n";
    for (std::size_t i = 0; i < service_warm_ms.size(); ++i) {
        out += "      \"clients_" + std::to_string(kClientSeries[i]) +
               "\": " + json_number(service_warm_ms[i]) +
               (i + 1 < service_warm_ms.size() ? ",\n" : "\n");
    }
    out += "    },\n";
    out += "    \"warm_speedup\": {\n";
    for (std::size_t i = 0; i < service_warm_ms.size(); ++i) {
        const double speedup =
            service_warm_ms[i] > 0 ? service_cold_ms[i] / service_warm_ms[i] : 0;
        out += "      \"clients_" + std::to_string(kClientSeries[i]) +
               "\": " + json_number(speedup) + (i + 1 < service_warm_ms.size() ? ",\n" : "\n");
    }
    out += "    },\n";
    out += "    \"warm_builds\": " + std::to_string(service_warm_builds) + ",\n";
    out += "    \"warm_zero_build\": " +
           std::string(service_clean && service_warm_builds == 0 ? "1" : "0") + "\n  },\n";
    out += "  \"voltage_axis\": {\n";
    out += "    \"note\": " +
           json_string("voltage-invariant trace delays: (a) delay passes over the recorded "
                       "coremark trace — 10 per-voltage reference passes vs one cycle-major "
                       "unit pass whose scaled views serve the same 10 points; (b) a replay sweep "
                       "of the full suite x lut x 10 voltages with pre-scaled delay tables, "
                       "fresh cache per run, min of 2 — the counters prove one delay-model "
                       "pass per kernel for the whole axis") +
           ",\n";
    out += "    \"voltages\": " + std::to_string(kAxisPoints) + ",\n";
    out += "    \"delay_pass\": {\n";
    out += "      \"trace_cycles\": " + std::to_string(trace.cycles()) + ",\n";
    out += "      \"per_voltage_passes_ms\": " + json_number(per_voltage_passes_ms) + ",\n";
    out += "      \"unit_pass_ms\": " + json_number(unit_pass_ms) + ",\n";
    out += "      \"axis_speedup\": " +
           json_number(unit_pass_ms > 0 ? per_voltage_passes_ms / unit_pass_ms : 0) +
           "\n    },\n";
    out += "    \"sweep\": {\n";
    out += "      \"grid_cells\": " + std::to_string(axis_cells) + ",\n";
    out += "      \"unit_delay_passes\": " + std::to_string(axis_unit_passes) + ",\n";
    out += "      \"unit_delay_reuses\": " + std::to_string(axis_unit_reuses) + ",\n";
    out += "      \"replay_wall_ms\": {\n";
    for (std::size_t i = 0; i < axis_wall_ms.size(); ++i) {
        out += "        \"jobs_" + std::to_string(kAxisJobSeries[i]) +
               "\": " + json_number(axis_wall_ms[i]) +
               (i + 1 < axis_wall_ms.size() ? ",\n" : "\n");
    }
    out += "      }\n    }\n  },\n";
    out += "  \"characterization_axis\": {\n";
    out += "    \"note\": " +
           json_string("the characterization-collapse win: the same 10-point voltage axis "
                       "paid as 10 full per-voltage characterization flows (the "
                       "--reference-characterization escape hatch) vs one nominal "
                       "characterization plus 10 DelayTable::scaled views; "
                       "scaled_views_identical certifies the views serialize bit-identically "
                       "to the reference tables (both enforced as floors by "
                       "tools/check_bench_regression.py), and the fused series times one "
                       "run_fused pass over an {ideal, taps:8, pll} generator column against "
                       "per-variant replays of the same cells, byte-identical results, best "
                       "of 3 passes each") +
           ",\n";
    out += "    \"voltages\": " + std::to_string(kAxisPoints) + ",\n";
    out += "    \"reference_passes_ms\": " + json_number(char_reference_ms) + ",\n";
    out += "    \"nominal_pass_plus_views_ms\": " + json_number(char_nominal_ms) + ",\n";
    out += "    \"nominal_pass_speedup\": " +
           json_number(char_nominal_ms > 0 ? char_reference_ms / char_nominal_ms : 0) + ",\n";
    out += "    \"scaled_views_identical\": " +
           std::string(scaled_views_identical ? "1" : "0") + ",\n";
    out += "    \"per_variant_replay_cycles_per_s\": " + json_number(per_variant_replay_rate) +
           ",\n";
    out += "    \"fused_replay_cycles_per_s\": " + json_number(fused_replay_rate) + ",\n";
    out += "    \"fused_replay_speedup\": " +
           json_number(per_variant_replay_rate > 0 ? fused_replay_rate / per_variant_replay_rate
                                                   : 0) +
           "\n  },\n";
    out += "  \"peak_rss\": {\n";
    out += "    \"note\": " +
           json_string("deltas of the process high-water mark; streaming stays bounded under "
                       "4x the cycles (only capped sample buffers fill further)") +
           ",\n";
    out += "    \"streaming_delta_kb\": " + std::to_string(rss_streaming_kb - rss_start_kb) +
           ",\n";
    out += "    \"streaming_4x_cycles_extra_delta_kb\": " +
           std::to_string(rss_streaming_4x_kb - rss_streaming_kb) + "\n  }\n";
    out += "}\n";

    const char* env_path = std::getenv("FOCS_BENCH_JSON");
    const std::string path = env_path != nullptr ? env_path : "BENCH_sim_throughput.json";
    std::ofstream file(path);
    if (!file) {
        // Still print the document so the numbers aren't lost; the
        // benchmark suite should run regardless.
        std::fprintf(stderr, "cannot write %s; artifact follows on stdout\n", path.c_str());
        std::printf("%s", out.c_str());
        return;
    }
    file << out;
    std::printf("\nwrote %s:\n%s", path.c_str(), out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
    // Purely informational invocations should not pay the artifact's
    // multi-run measurement protocol.
    bool list_only = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]).rfind("--benchmark_list_tests", 0) == 0) list_only = true;
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    // The artifact runs first: its peak-RSS protocol needs a clean process
    // high-water mark, which the benchmark suite (with its characterization
    // runs) would otherwise pollute.
    if (!list_only) emit_artifact();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
