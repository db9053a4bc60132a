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
#include <cstring>
#include <memory>
#include <random>
#include <set>
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

    // Every cycle's tuple is exactly attribution_keys of its record, and
    // the ids are dense in first-seen order: a cycle either reuses an id
    // already seen or takes the next unused one.
    ASSERT_EQ(f.records.size(), f.trace.cycles());
    std::uint32_t next_new = 0;
    for (std::size_t c = 0; c < f.records.size(); ++c) {
        const std::uint32_t id = f.trace.tuple_ids[c];
        ASSERT_LE(id, next_new) << "cycle " << c;
        if (id == next_new) ++next_new;
        ASSERT_LT(id, f.trace.tuples.size()) << "cycle " << c;
        ASSERT_EQ(f.trace.tuples[id], dta::attribution_keys(f.records[c])) << "cycle " << c;
    }
    EXPECT_EQ(next_new, f.trace.tuples.size());
    // The dictionary holds each tuple once.
    std::set<sim::StageKeyTuple> distinct(f.trace.tuples.begin(), f.trace.tuples.end());
    EXPECT_EQ(distinct.size(), f.trace.tuples.size());
    EXPECT_LT(f.trace.tuples.size(), f.trace.cycles());
}

TEST(TraceRecorder, EstimatedBytesChargesOnlyTheKeyRows) {
    // A trace is its tuple ids (4 B per cycle) and its tuple dictionary and
    // nothing per-cycle besides: the byte figure the cache's LRU budget
    // charges must be exactly the struct, the ids and the dictionary, so
    // per-cycle record or key storage cannot creep back. Recording trims
    // both arrays, so the charge is their size.
    const ReplayFixture& f = fixture();
    EXPECT_EQ(f.trace.tuple_ids.capacity(), f.trace.tuple_ids.size());
    EXPECT_EQ(f.trace.tuples.capacity(), f.trace.tuples.size());
    EXPECT_EQ(f.trace.estimated_bytes(),
              sizeof(sim::PipelineTrace) + f.trace.cycles() * sizeof(std::uint32_t) +
                  f.trace.tuples.size() * sizeof(sim::StageKeyTuple));
}

TEST(Replay, TraceWithMoreTuplesThanSixteenBitIdsMatchesPerStageMax) {
    // A hand-built trace with more distinct tuples than a 16-bit id can
    // name, every tuple used and then revisited in random order. The LUT
    // policy's replay under ideal, taps and PLL generators must equal a
    // test-local per-cycle reference: the zero-initialized max over the
    // six stages' table entries, granted per cycle and summed in order.
    const ReplayFixture& f = fixture();
    constexpr std::size_t kTuples = 70000;
    constexpr std::size_t kCycles = 150000;
    sim::PipelineTrace trace;
    std::mt19937_64 rng(0x71e5ULL);
    for (std::size_t t = 0; t < kTuples; ++t) {
        sim::StageKeyTuple tuple{};
        std::size_t digits = t;
        for (auto& key : tuple) {
            key = static_cast<dta::OccKey>(digits % dta::kKeyCount);
            digits /= dta::kKeyCount;
        }
        trace.tuples.push_back(tuple);
    }
    for (std::size_t c = 0; c < kCycles; ++c) {
        trace.tuple_ids.push_back(c < kTuples ? static_cast<std::uint32_t>(c)
                                              : static_cast<std::uint32_t>(rng() % kTuples));
    }
    auto unit = std::make_shared<timing::UnitTraceDelays>();
    unit->unit_static_period_ps = f.unit->unit_static_period_ps;
    for (std::size_t c = 0; c < kCycles; ++c) {
        // Requirements spread around the LUT entries, so some cycles violate.
        unit->unit_required_period_ps.push_back(
            f.unit->unit_required_period_ps[c % f.unit->cycles()] * (0.9 + 0.2 * (c % 7) / 6.0));
        unit->limiting_stage.push_back(sim::Stage::kEx);
    }
    timing::ScaledTraceDelays delays = f.delays;
    delays.unit = unit;

    const double period = delays.static_period_ps;
    const auto make_variants = [&] {
        std::vector<std::unique_ptr<clocking::ClockGenerator>> owned;
        owned.push_back(nullptr);
        owned.push_back(make_generator(1, period));
        owned.push_back(make_generator(2, period));
        return owned;
    };
    auto reference_generators = make_variants();
    std::vector<double> total(3, 0.0), worst(3, 0.0);
    std::vector<std::uint64_t> violations(3, 0);
    for (std::size_t c = 0; c < kCycles; ++c) {
        const sim::StageKeyTuple& tuple = trace.tuples[trace.tuple_ids[c]];
        double requested = 0.0;
        for (int s = 0; s < sim::kStageCount; ++s) {
            const double d =
                f.table.effective(tuple[static_cast<std::size_t>(s)], static_cast<sim::Stage>(s));
            if (d > requested) requested = d;
        }
        const double required = delays.required_period_ps(c);
        for (std::size_t v = 0; v < 3; ++v) {
            clocking::ClockGenerator* generator = reference_generators[v].get();
            const double granted =
                generator != nullptr ? generator->grant_period_ps(requested) : requested;
            total[v] += granted;
            if (granted + kViolationTolerancePs < required) {
                ++violations[v];
                worst[v] = std::max(worst[v], required - granted);
            }
        }
    }
    EXPECT_GT(violations[0], 0u);

    for (const int block : {4096, 999}) {
        for (const bool force_scalar : {false, true}) {
            SCOPED_TRACE("block=" + std::to_string(block) +
                         (force_scalar ? " force_scalar" : " default kernels"));
            ReplayOptions options;
            options.block_cycles = block;
            options.force_scalar = force_scalar;
            const ReplayEvaluationEngine engine(trace, delays, f.table, options);
            auto owned = make_variants();
            const auto results = engine.run_fused(
                PolicyKind::kInstructionLut, {nullptr, owned[1].get(), owned[2].get()});
            ASSERT_EQ(results.size(), 3u);
            for (std::size_t v = 0; v < 3; ++v) {
                SCOPED_TRACE("generator" + std::to_string(v));
                EXPECT_EQ(results[v].cycles, kCycles);
                EXPECT_EQ(results[v].total_time_ps, total[v]);
                EXPECT_EQ(results[v].timing_violations, violations[v]);
                EXPECT_EQ(results[v].worst_violation_ps, worst[v]);
            }
        }
    }
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

/// Bitwise equality (distinguishes -0.0 and compares NaN payloads).
bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(ReplayKernels, MultiVariantReduceMatchesPerVariantReference) {
    // The multi-variant reduce against a test-local per-variant loop (the
    // scalar single-variant reduction: strict-order total, violations when
    // fl(grant + tolerance) < fl(unit * scale), worst maxed over the deltas).
    // 1-6 variants cover one and two interleave groups, each variant reading
    // either a per-tuple row through the ids or per-cycle block grants,
    // mixed within a group or all rows; grants straddle the requirement so
    // every variant violates, and every variant starts from carried-in
    // figures. The carried-in totals sit in small and huge binades and just
    // below powers of two, and two tuple grants are exact halves of the
    // total's ulp in a binade the total passes through (640 = 2.5 ulps at
    // 2^60, 700 + 2^-32 at 2^21), so the AVX2 reduce's integer ulp steps,
    // their binade crossings and their tie fallback are all compared.
    // Checked after every block, on the scalar table and the SIMD table when
    // this build and CPU have one. A last input reads per-tuple rows longer
    // than 65,536 entries through a sparse id set reaching past 65,535.
    constexpr std::size_t kCycles = 5000;
    constexpr std::size_t kTuples = 37;
    constexpr double kScale = 1.037;
    std::mt19937_64 rng(0x2ed0ceULL);
    const auto uniform = [&](double lo, double hi) {
        return lo + (hi - lo) * static_cast<double>(rng() >> 11) * 0x1.0p-53;
    };
    std::vector<std::uint32_t> ids(kCycles);
    std::vector<double> unit(kCycles);
    for (std::size_t c = 0; c < kCycles; ++c) {
        ids[c] = static_cast<std::uint32_t>(rng() % kTuples);
        unit[c] = uniform(500.0, 1000.0);
    }
    constexpr std::size_t kMaxVariants = 6;
    std::vector<std::vector<double>> rows(kMaxVariants), cycles(kMaxVariants);
    for (std::size_t v = 0; v < kMaxVariants; ++v) {
        for (std::size_t t = 0; t < kTuples; ++t) rows[v].push_back(uniform(480.0, 1100.0));
        for (std::size_t c = 0; c < kCycles; ++c) cycles[v].push_back(uniform(480.0, 1100.0));
        rows[v][0] = 640.0;
        rows[v][1] = 700.0 + 0x1p-32;
    }
    const auto carried_in = [](std::size_t v) {
        // Odd variants read per-tuple rows: one ends in the tie binade of
        // 640, one crosses seven binades, one starts below 700 + 2^-32's.
        constexpr double kTotals[kMaxVariants] = {1000.25, 0x1p60 - 3.0e5, 3.0e6,
                                                  12345.678, 0x1p53, 0x1p21 - 2000.0};
        ReduceVariant sum;
        sum.total_time_ps = kTotals[v];
        sum.violations = v;
        sum.worst_violation_ps = 0.5 * static_cast<double>(v);
        return sum;
    };

    std::vector<const ReplayKernels*> tables = {&scalar_replay_kernels()};
    if (simd_replay_kernels() != nullptr) tables.push_back(simd_replay_kernels());
    for (const ReplayKernels* kernels : tables) {
        // n = 1..kMaxVariants variants, each count mixed and all rows.
        for (std::size_t layout = 0; layout < 2 * kMaxVariants; ++layout) {
            const std::size_t n = layout / 2 + 1;
            const bool all_rows = layout % 2 == 1;
            for (const std::size_t block : {std::size_t{1}, std::size_t{3}, std::size_t{4096}}) {
                SCOPED_TRACE(std::string(kernels->name) + " variants=" + std::to_string(n) +
                             (all_rows ? " all rows" : " mixed") +
                             " block=" + std::to_string(block));
                std::vector<ReduceVariant> sums, reference;
                for (std::size_t v = 0; v < n; ++v) {
                    sums.push_back(carried_in(v));
                    reference.push_back(carried_in(v));
                }
                std::vector<std::vector<double>> block_grants(n, std::vector<double>(block));
                for (std::size_t begin = 0; begin < kCycles; begin += block) {
                    const std::size_t count = std::min(block, kCycles - begin);
                    for (std::size_t v = 0; v < n; ++v) {
                        // Mixed: odd variants read per-tuple rows, even
                        // ones per-cycle block grants. All rows: every
                        // variant reads a per-tuple row.
                        sums[v].per_tuple = all_rows || v % 2 == 1;
                        if (sums[v].per_tuple) {
                            sums[v].grants = rows[v].data();
                        } else {
                            std::copy_n(cycles[v].begin() + static_cast<std::ptrdiff_t>(begin),
                                        count, block_grants[v].begin());
                            sums[v].grants = block_grants[v].data();
                        }
                        ReduceVariant& ref = reference[v];
                        for (std::size_t c = begin; c < begin + count; ++c) {
                            const double granted =
                                sums[v].per_tuple ? rows[v][ids[c]] : cycles[v][c];
                            ref.total_time_ps += granted;
                            const double required = unit[c] * kScale;
                            if (granted + kViolationTolerancePs < required) {
                                ++ref.violations;
                                ref.worst_violation_ps =
                                    std::max(ref.worst_violation_ps, required - granted);
                            }
                        }
                    }
                    kernels->reduce(sums.data(), n, ids.data(), kTuples, unit.data(), kScale,
                                    kViolationTolerancePs, begin, count);
                    for (std::size_t v = 0; v < n; ++v) {
                        ASSERT_TRUE(same_bits(sums[v].total_time_ps, reference[v].total_time_ps))
                            << "variant " << v << " after cycle " << begin + count - 1;
                        ASSERT_EQ(sums[v].violations, reference[v].violations)
                            << "variant " << v << " after cycle " << begin + count - 1;
                        ASSERT_TRUE(same_bits(sums[v].worst_violation_ps,
                                              reference[v].worst_violation_ps))
                            << "variant " << v << " after cycle " << begin + count - 1;
                    }
                }
                for (std::size_t v = 0; v < n; ++v) {
                    EXPECT_GT(sums[v].violations, v) << "variant " << v << " never violated";
                }
            }
        }
    }

    // Rows of 65,557 entries read through 37 ids i * 1821, up to 65,556, in
    // one call of 2^20 cycles from a zero total, as the engine runs one: the
    // AVX2 reduce caches a row's steps only for a binade and a call that
    // each last 4 cycles per row entry, which the totals' binades from 2^28
    // on do. The last id's grant, 700 + 2^-25, is a tie in the 2^28 binade.
    constexpr std::uint32_t kIdStride = 1821;
    constexpr std::size_t kLongRow = (kTuples - 1) * kIdStride + 1;
    constexpr std::size_t kLongCycles = std::size_t{1} << 20;
    std::vector<std::uint32_t> long_ids(kLongCycles);
    std::vector<double> long_unit(kLongCycles);
    for (std::size_t c = 0; c < kLongCycles; ++c) {
        long_ids[c] = static_cast<std::uint32_t>(rng() % kTuples) * kIdStride;
        long_unit[c] = uniform(500.0, 1000.0);
    }
    std::vector<std::vector<double>> long_rows(2, std::vector<double>(kLongRow, 0.0));
    for (auto& row : long_rows) {
        for (std::size_t t = 0; t < kTuples; ++t) row[t * kIdStride] = uniform(480.0, 1100.0);
    }
    long_rows[1][kLongRow - 1] = 700.0 + 0x1p-25;
    std::vector<ReduceVariant> reference(2);
    for (std::size_t v = 0; v < 2; ++v) {
        ReduceVariant& ref = reference[v];
        for (std::size_t c = 0; c < kLongCycles; ++c) {
            const double granted = long_rows[v][long_ids[c]];
            ref.total_time_ps += granted;
            const double required = long_unit[c] * kScale;
            if (granted + kViolationTolerancePs < required) {
                ++ref.violations;
                ref.worst_violation_ps = std::max(ref.worst_violation_ps, required - granted);
            }
        }
    }
    ASSERT_GT(reference[0].total_time_ps, 0x1p29);
    for (const ReplayKernels* kernels : tables) {
        SCOPED_TRACE(std::string(kernels->name) + " rows of " + std::to_string(kLongRow));
        std::vector<ReduceVariant> sums(2);
        for (std::size_t v = 0; v < 2; ++v) {
            sums[v].grants = long_rows[v].data();
            sums[v].per_tuple = true;
        }
        kernels->reduce(sums.data(), 2, long_ids.data(), kLongRow, long_unit.data(), kScale,
                        kViolationTolerancePs, 0, kLongCycles);
        for (std::size_t v = 0; v < 2; ++v) {
            EXPECT_TRUE(same_bits(sums[v].total_time_ps, reference[v].total_time_ps))
                << "variant " << v;
            EXPECT_EQ(sums[v].violations, reference[v].violations) << "variant " << v;
            EXPECT_TRUE(same_bits(sums[v].worst_violation_ps, reference[v].worst_violation_ps))
                << "variant " << v;
        }
    }
}

TEST(Replay, ClassSelectMatchesLiveWithAClampedFastEntry) {
    // The per-tuple class select (a max over per-stage slow-or-fast
    // selects) is exact while slow >= fast >= 0. A v2 table whose
    // fast-class entry has raw + guard above the static period is
    // clamped to it, so two-class's fast period meets its slow (static)
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
