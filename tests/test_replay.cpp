// Record/replay correctness: a replayed evaluation must be byte-identical
// to a live DcaEngine::run of the same cell — for every bundled PolicyKind,
// every clock-generator family and at every replay block size (including
// odd boundaries). The voltage-invariance contract is tested explicitly:
// one unit delay pass per trace must serve every operating point
// bit-identically to the per-voltage reference pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "asm/assembler.hpp"
#include "clock/clock_generator.hpp"
#include "common/error.hpp"
#include "core/dca_engine.hpp"
#include "core/flows.hpp"
#include "core/policies.hpp"
#include "core/replay_engine.hpp"
#include "core/replay_kernels.hpp"
#include "isa/opcode.hpp"
#include "sim/trace_recorder.hpp"
#include "timing/cell_library.hpp"
#include "timing/trace_delays.hpp"
#include "workloads/kernel.hpp"

namespace focs::core {
namespace {

constexpr PolicyKind kAllKinds[] = {PolicyKind::kStatic,    PolicyKind::kGenie,
                                    PolicyKind::kInstructionLut, PolicyKind::kExOnly,
                                    PolicyKind::kTwoClass,  PolicyKind::kApproxLut,
                                    PolicyKind::kDualCycle};

/// The first `limit` CycleRecords of one run plus its full cycle count.
/// Traces keep only occupancy keys, so the per-cycle reference checks
/// collect the records they compare against themselves.
struct CycleRecords {
    std::vector<sim::CycleRecord> records;
    std::uint64_t cycles = 0;
};

CycleRecords collect_records(const assembler::Program& program,
                             std::size_t limit = SIZE_MAX) {
    struct Collector final : sim::PipelineObserver {
        std::size_t limit;
        CycleRecords out;
        void on_cycle(const sim::CycleRecord& record) override {
            if (out.records.size() < limit) out.records.push_back(record);
            ++out.cycles;
        }
    };
    sim::Machine machine;
    machine.load(program);
    Collector collector;
    collector.limit = limit;
    machine.run(&collector);
    return std::move(collector.out);
}

/// Shared fixture artifacts: one characterized table and one recorded trace
/// (crc32 exercises redirects, loads and held cycles), built once. The
/// required-period ground truth is the voltage-free unit array plus the
/// design point's ScaledTraceDelays view; `records` is the same run's
/// CycleRecords for the per-cycle reference checks.
struct ReplayFixture {
    timing::DesignConfig design;
    dta::DelayTable table;
    assembler::Program program;
    sim::PipelineTrace trace;
    std::vector<sim::CycleRecord> records;
    std::shared_ptr<const timing::UnitTraceDelays> unit;
    timing::ScaledTraceDelays delays;

    ReplayFixture()
        : table(CharacterizationFlow(design)
                    .run(workloads::assemble_programs(workloads::characterization_suite()))
                    .table),
          program(assembler::assemble(workloads::find_kernel("crc32").source)),
          trace(sim::record_trace(program)),
          records(collect_records(program).records),
          unit(std::make_shared<const timing::UnitTraceDelays>(
              timing::record_unit_trace_delays(timing::DelayCalculator(design), program))),
          delays(timing::scale_trace_delays(unit, timing::DelayCalculator(design))) {}
};

const ReplayFixture& fixture() {
    static const ReplayFixture f;
    return f;
}

/// Exact (bitwise) equality of every DcaRunResult field — the replay
/// contract is byte-identity, so no tolerances anywhere.
void expect_identical(const DcaRunResult& live, const DcaRunResult& replayed) {
    EXPECT_EQ(live.policy, replayed.policy);
    EXPECT_EQ(live.clock_generator, replayed.clock_generator);
    EXPECT_EQ(live.cycles, replayed.cycles);
    EXPECT_EQ(live.total_time_ps, replayed.total_time_ps);
    EXPECT_EQ(live.avg_period_ps, replayed.avg_period_ps);
    EXPECT_EQ(live.eff_freq_mhz, replayed.eff_freq_mhz);
    EXPECT_EQ(live.static_period_ps, replayed.static_period_ps);
    EXPECT_EQ(live.speedup_vs_static, replayed.speedup_vs_static);
    EXPECT_EQ(live.timing_violations, replayed.timing_violations);
    EXPECT_EQ(live.worst_violation_ps, replayed.worst_violation_ps);
    EXPECT_EQ(live.guest.exit_code, replayed.guest.exit_code);
    EXPECT_EQ(live.guest.cycles, replayed.guest.cycles);
    EXPECT_EQ(live.guest.instructions, replayed.guest.instructions);
    EXPECT_EQ(live.guest.reports, replayed.guest.reports);
}

std::unique_ptr<clocking::ClockGenerator> make_generator(int which, double static_period_ps) {
    switch (which) {
        case 1:
            return std::make_unique<clocking::QuantizedClockGenerator>(
                clocking::QuantizedClockGenerator::for_static_period(static_period_ps, 8));
        case 2:
            return std::make_unique<clocking::PllBankClockGenerator>(
                std::vector<double>{0.6 * static_period_ps, 0.8 * static_period_ps,
                                    static_period_ps},
                4);
        default: return nullptr;  // ideal
    }
}

TEST(Replay, MatchesLiveForEveryPolicyAndGenerator) {
    const ReplayFixture& f = fixture();
    const ReplayEvaluationEngine engine(f.trace, f.delays, f.table);
    for (const PolicyKind kind : kAllKinds) {
        for (int which = 0; which < 3; ++which) {
            SCOPED_TRACE(policy_kind_name(kind) + "/generator" + std::to_string(which));
            auto live_generator = make_generator(which, f.delays.static_period_ps);
            const DcaRunResult live =
                evaluate_cell(f.design, f.table, f.program, kind, live_generator.get());
            auto replay_generator = make_generator(which, f.delays.static_period_ps);
            const DcaRunResult replayed = engine.run(kind, replay_generator.get());
            expect_identical(live, replayed);
        }
    }
}

TEST(Replay, ApproxLutKindProvokesViolationsLikeLive) {
    // The promoted approx-lut kind deliberately under-clocks; its replayed
    // violation accounting must match the live run *and* be non-trivial, or
    // the parity above proves less than it claims.
    const ReplayFixture& f = fixture();
    const ReplayEvaluationEngine engine(f.trace, f.delays, f.table);
    const DcaRunResult replayed = engine.run(PolicyKind::kApproxLut);
    EXPECT_GT(replayed.timing_violations, 0u);
    EXPECT_EQ(replayed.policy, "approx-lut/0.90");
}

TEST(Replay, BlockBoundariesDoNotChangeResults) {
    const ReplayFixture& f = fixture();
    // Odd block sizes, a single-cycle block, and one block spanning the
    // whole trace must all reproduce the default's bytes (the stateful PLL
    // generator is the sharpest detector of a boundary bug).
    const ReplayEvaluationEngine reference(f.trace, f.delays, f.table);
    for (const int block : {1, 3, 7, 1023, 1 << 20}) {
        ReplayOptions options;
        options.block_cycles = block;
        const ReplayEvaluationEngine engine(f.trace, f.delays, f.table, options);
        for (const PolicyKind kind : kAllKinds) {
            SCOPED_TRACE("block=" + std::to_string(block) + " " + policy_kind_name(kind));
            auto generator_a = make_generator(2, f.delays.static_period_ps);
            auto generator_b = make_generator(2, f.delays.static_period_ps);
            expect_identical(reference.run(kind, generator_a.get()),
                             engine.run(kind, generator_b.get()));
        }
    }
}

TEST(Replay, RunBatchSharesOneTrace) {
    const ReplayFixture& f = fixture();
    const ReplayEvaluationEngine engine(f.trace, f.delays, f.table);
    auto taps = make_generator(1, f.delays.static_period_ps);
    const std::vector<ReplayRequest> requests = {
        {PolicyKind::kStatic, nullptr},
        {PolicyKind::kInstructionLut, nullptr},
        {PolicyKind::kInstructionLut, taps.get()},
        {PolicyKind::kDualCycle, nullptr},
        {PolicyKind::kGenie, nullptr},
    };
    const auto results = engine.run_batch(requests);
    ASSERT_EQ(results.size(), requests.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        auto generator = make_generator(requests[i].generator != nullptr ? 1 : 0,
                                        f.delays.static_period_ps);
        expect_identical(
            evaluate_cell(f.design, f.table, f.program, requests[i].policy, generator.get()),
            results[i]);
    }
}

TEST(Replay, ParameterizedSpecsDispatchToKernelsAndMatchLive) {
    const ReplayFixture& f = fixture();
    // Parameterized grid points must hit the same devirtualized kernel
    // paths as their default-parameter kinds: the replayed result, the
    // scalar-forced replayed result, and the live run are all byte-
    // identical, for every generator family.
    const ReplayEvaluationEngine engine(f.trace, f.delays, f.table);
    ReplayOptions scalar_options;
    scalar_options.force_scalar = true;
    const ReplayEvaluationEngine scalar(f.trace, f.delays, f.table, scalar_options);
    for (const char* text : {"approx-lut:0.8", "approx-lut:0.95", "dual-cycle:3",
                             "dual-cycle:1", "dual-cycle:1.5"}) {
        const PolicySpec spec = PolicySpec::parse(text);
        for (int which = 0; which < 3; ++which) {
            SCOPED_TRACE(std::string(text) + "/generator" + std::to_string(which));
            auto live_generator = make_generator(which, f.delays.static_period_ps);
            const DcaRunResult live =
                evaluate_cell(f.design, f.table, f.program, spec, live_generator.get());
            auto replay_generator = make_generator(which, f.delays.static_period_ps);
            expect_identical(live, engine.run(spec, replay_generator.get()));
            auto scalar_generator = make_generator(which, f.delays.static_period_ps);
            expect_identical(live, scalar.run(spec, scalar_generator.get()));
        }
    }
    // The parameter reaches the policy: a non-default scale shows up in the
    // reported name and changes the figures.
    const DcaRunResult tight = engine.run(PolicySpec::parse("approx-lut:0.8"));
    EXPECT_EQ(tight.policy, "approx-lut/0.80");
    EXPECT_GT(tight.timing_violations, engine.run(PolicyKind::kApproxLut).timing_violations);
    EXPECT_EQ(engine.run(PolicySpec::parse("dual-cycle:3")).policy, "dual-cycle/3.00");
    // The defaults keep their historical names (result bytes unchanged).
    EXPECT_EQ(engine.run(PolicySpec::parse("dual-cycle:2")).policy, "dual-cycle");
    EXPECT_EQ(engine.run(PolicySpec::parse("approx-lut:0.9")).policy, "approx-lut/0.90");
}

TEST(Replay, FusedRunIsByteIdenticalToPerVariantRuns) {
    const ReplayFixture& f = fixture();
    const ReplayEvaluationEngine engine(f.trace, f.delays, f.table);
    // One fused pass over {ideal, taps, pll} vs three independent runs:
    // byte-identical per variant, for every policy kind (the request fill
    // is generator-independent, so fusion must not perturb a single bit).
    const std::vector<PolicySpec> specs = {
        PolicyKind::kStatic,          PolicyKind::kGenie,
        PolicyKind::kInstructionLut,  PolicyKind::kExOnly,
        PolicyKind::kTwoClass,        PolicyKind::kApproxLut,
        PolicyKind::kDualCycle,       PolicySpec::parse("approx-lut:0.8"),
        PolicySpec::parse("dual-cycle:3")};
    for (const PolicySpec& spec : specs) {
        SCOPED_TRACE(spec.label());
        std::vector<std::unique_ptr<clocking::ClockGenerator>> owned;
        std::vector<clocking::ClockGenerator*> variants;
        for (int which = 0; which < 3; ++which) {
            owned.push_back(make_generator(which, f.delays.static_period_ps));
            variants.push_back(owned.back().get());  // nullptr for ideal
        }
        const auto fused = engine.run_fused(spec, variants);
        ASSERT_EQ(fused.size(), variants.size());
        for (int which = 0; which < 3; ++which) {
            SCOPED_TRACE("generator" + std::to_string(which));
            auto solo = make_generator(which, f.delays.static_period_ps);
            expect_identical(engine.run(spec, solo.get()), fused[static_cast<std::size_t>(which)]);
        }
    }
    // Degenerate shapes: a single-variant fuse delegates to run(), an empty
    // variant list is a no-op.
    auto solo = make_generator(1, f.delays.static_period_ps);
    auto again = make_generator(1, f.delays.static_period_ps);
    const auto one = engine.run_fused(PolicyKind::kInstructionLut, {solo.get()});
    ASSERT_EQ(one.size(), 1u);
    expect_identical(engine.run(PolicyKind::kInstructionLut, again.get()), one[0]);
    EXPECT_TRUE(engine.run_fused(PolicyKind::kInstructionLut, {}).empty());
}

TEST(TraceRecorder, CapturesGuestMetadataAndKeys) {
    const ReplayFixture& f = fixture();
    sim::Machine machine;
    machine.load(f.program);
    const sim::RunResult direct = machine.run();
    EXPECT_EQ(f.trace.guest.exit_code, direct.exit_code);
    EXPECT_EQ(f.trace.guest.cycles, direct.cycles);
    EXPECT_EQ(f.trace.guest.instructions, direct.instructions);
    EXPECT_EQ(f.trace.guest.reports, direct.reports);
    EXPECT_EQ(f.trace.cycles(), direct.cycles);

    // The stage-major SoA rows are exactly attribution_keys of each record.
    ASSERT_EQ(f.records.size(), f.trace.cycles());
    for (const auto& row : f.trace.stage_keys) ASSERT_EQ(row.size(), f.records.size());
    for (std::size_t c = 0; c < f.records.size(); c += 97) {
        const auto keys = dta::attribution_keys(f.records[c]);
        for (int s = 0; s < sim::kStageCount; ++s) {
            EXPECT_EQ(f.trace.stage_keys[static_cast<std::size_t>(s)][c],
                      keys[static_cast<std::size_t>(s)])
                << "cycle " << c << " stage " << s;
        }
    }
}

TEST(TraceRecorder, EstimatedBytesChargesOnlyTheKeyRows) {
    // A trace is its key rows (12 B per cycle) and nothing per-cycle
    // besides: the byte figure the cache's LRU budget charges must be the
    // struct plus those rows, so per-cycle record storage cannot creep back.
    const ReplayFixture& f = fixture();
    std::uint64_t expected = sizeof(sim::PipelineTrace);
    for (const auto& row : f.trace.stage_keys) {
        expected += static_cast<std::uint64_t>(row.capacity()) * sizeof(dta::OccKey);
    }
    EXPECT_EQ(f.trace.estimated_bytes(), expected);
    EXPECT_GE(f.trace.estimated_bytes(),
              f.trace.cycles() * sim::kStageCount * sizeof(dta::OccKey));
}

TEST(TraceDelays, UnitPassMatchesPerCycleUnitEvaluation) {
    // The streamed unit pass (its own guest run) must line up cycle for
    // cycle with the trace's run and reproduce evaluate_unit() of that
    // run's records exactly — value and limiting-stage attribution.
    const ReplayFixture& f = fixture();
    const timing::DelayCalculator calculator(f.design);
    ASSERT_EQ(f.unit->cycles(), f.trace.cycles());
    EXPECT_EQ(f.unit->unit_static_period_ps, calculator.unit_static_period_ps());
    ASSERT_EQ(f.unit->limiting_stage.size(), f.records.size());
    for (std::size_t c = 0; c < f.records.size(); c += 131) {
        const timing::CycleDelays reference = calculator.evaluate_unit(f.records[c]);
        EXPECT_EQ(f.unit->unit_required_period_ps[c], reference.required_period_ps)
            << "cycle " << c;
        EXPECT_EQ(f.unit->limiting_stage[c], reference.limiting_stage) << "cycle " << c;
    }
}

TEST(TraceDelays, ScaledViewMatchesPerCycleEvaluation) {
    const ReplayFixture& f = fixture();
    const timing::DelayCalculator calculator(f.design);
    ASSERT_EQ(f.delays.cycles(), f.trace.cycles());
    EXPECT_EQ(f.delays.static_period_ps, calculator.static_period_ps());
    for (std::size_t c = 0; c < f.records.size(); c += 131) {
        EXPECT_EQ(f.delays.required_period_ps(c),
                  calculator.evaluate(f.records[c]).required_period_ps)
            << "cycle " << c;
    }
}

TEST(TraceDelays, OneUnitPassServesEveryVoltageBitIdentically) {
    // The tentpole contract: for every benchmark kernel, the single unit
    // pass scaled to each point of a dense voltage grid must be
    // byte-identical to the per-voltage reference pass
    // (compute_trace_delays) — every cycle, every voltage, no tolerances.
    // The reference runs over a prefix of each run's records so the dense
    // grid stays fast; the identity is per-cycle, so a prefix proves the
    // same thing.
    constexpr double kVoltages[] = {0.50, 0.55, 0.60, 0.65, 0.70,
                                    0.75, 0.80, 0.85, 0.90, 0.62};
    constexpr std::size_t kMaxCycles = 3000;
    for (const auto& kernel : workloads::benchmark_suite()) {
        SCOPED_TRACE(kernel.name);
        const auto program = assembler::assemble(kernel.source);
        const CycleRecords run = collect_records(program, kMaxCycles);
        timing::DesignConfig design;
        const auto unit = std::make_shared<const timing::UnitTraceDelays>(
            timing::record_unit_trace_delays(timing::DelayCalculator(design), program));
        ASSERT_EQ(unit->cycles(), run.cycles);
        const auto prefix = static_cast<std::ptrdiff_t>(run.records.size());
        for (const double voltage : kVoltages) {
            SCOPED_TRACE(voltage);
            design.voltage_v = voltage;
            const timing::DelayCalculator calculator(design);
            const timing::TraceDelays reference =
                timing::compute_trace_delays(calculator, run.records);
            const timing::ScaledTraceDelays scaled =
                timing::scale_trace_delays(unit, calculator);
            EXPECT_EQ(scaled.static_period_ps, reference.static_period_ps);
            const timing::TraceDelays materialized = scaled.materialize();
            ASSERT_EQ(materialized.cycles(), run.cycles);
            // Vector equality is element-exact: one comparison per grid
            // point instead of a quadratic EXPECT storm.
            EXPECT_EQ(std::vector<double>(materialized.required_period_ps.begin(),
                                          materialized.required_period_ps.begin() + prefix),
                      reference.required_period_ps);
            EXPECT_EQ(materialized.static_period_ps, reference.static_period_ps);
        }
    }
}

TEST(Replay, ScalarReferenceAndSimdKernelsAreByteIdentical) {
    // The tentpole contract of the vectorized kernels: the default engine
    // (SIMD kernel table when compiled + supported, portable scalar table
    // otherwise) and the force_scalar engine (always the portable scalar
    // table) must both reproduce the live DcaEngine byte for byte — for all
    // 7 policy kinds and all three generator families, across block sizes
    // including single-cycle blocks and one block spanning the whole
    // trace, at two operating points (the second voltage exercises a
    // non-nominal delay scale). The stateful PLL generator is the sharpest
    // detector of any divergence in the grant/integrate order.
    const ReplayFixture& f = fixture();
    const timing::CellLibrary& library = timing::CellLibrary::fdsoi28();
    const double nominal_scale = library.delay_scale(timing::DesignConfig{}.voltage_v);
    for (const double voltage : {timing::DesignConfig{}.voltage_v, 0.60}) {
        SCOPED_TRACE(voltage);
        timing::DesignConfig design = f.design;
        design.voltage_v = voltage;
        const timing::DelayCalculator calculator(design);
        const timing::ScaledTraceDelays delays = timing::scale_trace_delays(f.unit, calculator);
        const dta::DelayTable table =
            f.table.scaled(library.delay_scale(voltage) / nominal_scale);
        // One live run per (kind, generator): the oracle has no block size.
        std::vector<DcaRunResult> live;
        for (const PolicyKind kind : kAllKinds) {
            for (int which = 0; which < 3; ++which) {
                auto generator = make_generator(which, delays.static_period_ps);
                live.push_back(evaluate_cell(design, table, f.program, kind, generator.get()));
            }
        }
        for (const int block : {1, 3, 7, 1023, 1 << 20}) {
            ReplayOptions scalar_options;
            scalar_options.block_cycles = block;
            scalar_options.force_scalar = true;
            const ReplayEvaluationEngine scalar(f.trace, delays, table, scalar_options);
            ReplayOptions kernel_options;
            kernel_options.block_cycles = block;
            const ReplayEvaluationEngine kernels(f.trace, delays, table, kernel_options);
            // The comparison must actually cover the SIMD table wherever
            // one exists for this build/CPU (otherwise both sides pin the
            // portable kernel table against the live engine).
            EXPECT_EQ(kernels.simd_active(), simd_replay_kernels() != nullptr);
            EXPECT_FALSE(scalar.simd_active());
            EXPECT_STREQ(scalar.kernels_name(), "scalar");
            std::size_t cell = 0;
            for (const PolicyKind kind : kAllKinds) {
                for (int which = 0; which < 3; ++which, ++cell) {
                    SCOPED_TRACE("block=" + std::to_string(block) + " " +
                                 policy_kind_name(kind) + "/generator" + std::to_string(which));
                    auto generator_a = make_generator(which, delays.static_period_ps);
                    auto generator_b = make_generator(which, delays.static_period_ps);
                    expect_identical(live[cell], scalar.run(kind, generator_a.get()));
                    expect_identical(live[cell], kernels.run(kind, generator_b.get()));
                }
            }
        }
    }
}

TEST(Replay, ClassSelectMatchesLiveWithAClampedFastEntry) {
    // The class-select mask kernel is exact while slow >= fast >= 0. A v2
    // table whose fast-class entry has raw + guard above the static period
    // is clamped to it, so two-class's fast period meets its slow (static)
    // period and dual-cycle's fast period sits at static: the boundary of
    // that invariant. Two-class and dual-cycle replay must still reproduce
    // the live run on both kernel tables, every generator family and every
    // block size.
    const ReplayFixture& f = fixture();
    const double static_period = f.table.static_period_ps();
    const auto add = static_cast<dta::OccKey>(isa::Opcode::kAdd);
    const std::string add_ex =
        std::to_string(add) + " " + std::to_string(static_cast<int>(sim::Stage::kEx)) + " ";
    std::string text;
    std::istringstream lines(f.table.serialize());
    for (std::string line; std::getline(lines, line);) {
        if (!line.starts_with(add_ex)) text += line + "\n";
    }
    text += add_ex + std::to_string(1.5 * static_period) + "\n";
    const dta::DelayTable clamped = dta::DelayTable::deserialize(text);
    ASSERT_EQ(clamped.lookup(add, sim::Stage::kEx), static_period);
    ASSERT_EQ(TwoClassPolicy(clamped).fast_period_ps(), static_period);

    for (const PolicyKind kind : {PolicyKind::kTwoClass, PolicyKind::kDualCycle}) {
        for (int which = 0; which < 3; ++which) {
            auto live_generator = make_generator(which, f.delays.static_period_ps);
            const DcaRunResult live =
                evaluate_cell(f.design, clamped, f.program, kind, live_generator.get());
            for (const int block : {1, 7, 4096}) {
                for (const bool force_scalar : {false, true}) {
                    SCOPED_TRACE(policy_kind_name(kind) + " block=" + std::to_string(block) +
                                 " scalar=" + std::to_string(force_scalar) + " generator" +
                                 std::to_string(which));
                    ReplayOptions options;
                    options.block_cycles = block;
                    options.force_scalar = force_scalar;
                    const ReplayEvaluationEngine engine(f.trace, f.delays, clamped, options);
                    auto replay_generator = make_generator(which, f.delays.static_period_ps);
                    expect_identical(live, engine.run(kind, replay_generator.get()));
                }
            }
        }
    }
}

TEST(Replay, RandomCellsMatchLiveOnEveryKernelTable) {
    // Seeded property test over random replay cells: each draw picks a
    // policy spec (parameterized approx-lut:S / dual-cycle:S included), a
    // generator (ideal, taps:N or a PLL bank), a voltage in [0.5, 0.9] V
    // and a block size in [1, 65536] (log-uniform, so small blocks are
    // drawn often). The default engine, the force_scalar engine and the
    // live run must agree byte for byte, and every non-approximate policy
    // must be violation-free. The seed is part of every failure message.
    constexpr std::uint64_t kSeed = 0x5eedf0c5ULL;
    constexpr int kDraws = 24;
    SCOPED_TRACE("seed=" + std::to_string(kSeed));
    std::mt19937_64 rng(kSeed);
    const auto uniform = [&](double lo, double hi) {
        return lo + (hi - lo) * static_cast<double>(rng() >> 11) * 0x1.0p-53;
    };
    const auto pick = [&](int n) {
        return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    };

    const ReplayFixture& f = fixture();
    const timing::CellLibrary& library = timing::CellLibrary::fdsoi28();
    const double nominal_scale = library.delay_scale(timing::DesignConfig{}.voltage_v);
    for (int draw = 0; draw < kDraws; ++draw) {
        PolicySpec spec = kAllKinds[pick(7)];
        if (spec.kind == PolicyKind::kApproxLut) spec.param = uniform(0.5, 1.0);
        if (spec.kind == PolicyKind::kDualCycle) spec.param = uniform(1.0, 4.0);
        const int which = pick(3);
        const int taps = 2 + pick(15);
        const double fast_source = uniform(0.4, 0.7);
        const double mid_source = uniform(0.7, 1.0);
        const int dwell = pick(9);
        const double voltage = uniform(0.5, 0.9);
        const int block = std::clamp(static_cast<int>(std::exp2(uniform(0.0, 16.0))), 1, 65536);
        SCOPED_TRACE("draw " + std::to_string(draw) + ": " + spec.label() + " generator" +
                     std::to_string(which) + " taps=" + std::to_string(taps) +
                     " v=" + std::to_string(voltage) + " block=" + std::to_string(block));

        timing::DesignConfig design = f.design;
        design.voltage_v = voltage;
        const timing::ScaledTraceDelays delays =
            timing::scale_trace_delays(f.unit, timing::DelayCalculator(design));
        const dta::DelayTable table =
            f.table.scaled(library.delay_scale(voltage) / nominal_scale);
        const double period = delays.static_period_ps;
        const auto generator = [&]() -> std::unique_ptr<clocking::ClockGenerator> {
            switch (which) {
                case 1:
                    return std::make_unique<clocking::QuantizedClockGenerator>(
                        clocking::QuantizedClockGenerator::for_static_period(period, taps));
                case 2:
                    return std::make_unique<clocking::PllBankClockGenerator>(
                        std::vector<double>{fast_source * period, mid_source * period, period},
                        dwell);
                default: return nullptr;
            }
        };

        auto live_generator = generator();
        const DcaRunResult live =
            evaluate_cell(design, table, f.program, spec, live_generator.get());
        for (const bool force_scalar : {false, true}) {
            SCOPED_TRACE(force_scalar ? "force_scalar" : "default kernels");
            ReplayOptions options;
            options.block_cycles = block;
            options.force_scalar = force_scalar;
            const ReplayEvaluationEngine engine(f.trace, delays, table, options);
            auto replay_generator = generator();
            expect_identical(live, engine.run(spec, replay_generator.get()));
        }
        if (spec.kind != PolicyKind::kApproxLut) {
            EXPECT_EQ(live.timing_violations, 0u);
        }
    }
}

TEST(Replay, RejectsMismatchedDelays) {
    const ReplayFixture& f = fixture();
    timing::UnitTraceDelays truncated = *f.unit;
    truncated.unit_required_period_ps.pop_back();
    timing::ScaledTraceDelays bad = f.delays;
    bad.unit = std::make_shared<const timing::UnitTraceDelays>(std::move(truncated));
    EXPECT_THROW(ReplayEvaluationEngine(f.trace, bad, f.table), Error);
    timing::ScaledTraceDelays null_view;
    EXPECT_THROW(ReplayEvaluationEngine(f.trace, null_view, f.table), Error);
    ReplayOptions options;
    options.block_cycles = 0;
    EXPECT_THROW(ReplayEvaluationEngine(f.trace, f.delays, f.table, options), Error);
}

}  // namespace
}  // namespace focs::core
