// Core DCA tests: policy contracts, the engine's time accounting and the
// central safety property — a predictive policy must never grant a period
// below a cycle's actual requirement.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "asm/assembler.hpp"
#include "clock/clock_generator.hpp"
#include "common/error.hpp"
#include "core/dca_engine.hpp"
#include "core/flows.hpp"
#include "core/policies.hpp"
#include "isa/isa_info.hpp"
#include "workloads/kernel.hpp"

namespace focs::core {
namespace {

/// Shared characterization result (built once; characterization over the
/// full suite takes a moment).
const CharacterizationResult& characterization() {
    static const CharacterizationResult result = [] {
        const CharacterizationFlow flow(timing::DesignConfig{});
        return flow.run(workloads::assemble_programs(workloads::characterization_suite()));
    }();
    return result;
}

const assembler::Program& program_of(const char* name) {
    static std::map<std::string, assembler::Program>* cache =
        new std::map<std::string, assembler::Program>();
    auto it = cache->find(name);
    if (it == cache->end()) {
        it = cache->emplace(name, assembler::assemble(workloads::find_kernel(name).source)).first;
    }
    return it->second;
}

TEST(Policies, StaticRequestsConstantPeriod) {
    DcaEngine engine({});
    StaticClockPolicy policy(engine.calculator().static_period_ps());
    const DcaRunResult r = engine.run(program_of("fibcall"), policy);
    EXPECT_DOUBLE_EQ(r.avg_period_ps, engine.calculator().static_period_ps());
    EXPECT_DOUBLE_EQ(r.speedup_vs_static, 1.0);
    EXPECT_EQ(r.timing_violations, 0u);
}

TEST(Policies, GenieNeverViolatesAndIsFastest) {
    DcaEngine engine({});
    GenieOraclePolicy genie;
    InstructionLutPolicy lut(characterization().table);
    const DcaRunResult genie_run = engine.run(program_of("crc32"), genie);
    const DcaRunResult lut_run = engine.run(program_of("crc32"), lut);
    EXPECT_EQ(genie_run.timing_violations, 0u);
    EXPECT_EQ(lut_run.timing_violations, 0u);
    EXPECT_LE(genie_run.avg_period_ps, lut_run.avg_period_ps);
}

TEST(Policies, OrderingAcrossTheLadder) {
    // genie <= instruction-lut <= ex-only <= static, and two-class within
    // [instruction-lut, static], for every benchmark checked.
    DcaEngine engine({});
    const auto& table = characterization().table;
    for (const char* name : {"bubblesort", "matmult", "fsm"}) {
        GenieOraclePolicy genie;
        InstructionLutPolicy lut(table);
        ExOnlyPolicy ex_only(table);
        TwoClassPolicy two_class(table);
        StaticClockPolicy static_policy(engine.calculator().static_period_ps());
        const double t_genie = engine.run(program_of(name), genie).avg_period_ps;
        const double t_lut = engine.run(program_of(name), lut).avg_period_ps;
        const double t_ex = engine.run(program_of(name), ex_only).avg_period_ps;
        const double t_two = engine.run(program_of(name), two_class).avg_period_ps;
        const double t_static = engine.run(program_of(name), static_policy).avg_period_ps;
        EXPECT_LE(t_genie, t_lut + 1e-9) << name;
        EXPECT_LE(t_lut, t_ex + 1e-9) << name;
        EXPECT_LE(t_ex, t_static + 1e-9) << name;
        EXPECT_LE(t_lut, t_two + 1e-9) << name;
        EXPECT_LE(t_two, t_static + 1e-9) << name;
    }
}

TEST(Policies, SafetyAcrossWholeSuiteAndPolicies) {
    // THE core guarantee of the paper's approach: predictive adjustment
    // without timing-error detection requires zero violations, always.
    DcaEngine engine({});
    const auto& table = characterization().table;
    for (const auto& [name, program] : workloads::assemble_suite(workloads::benchmark_suite())) {
        // approx-lut is deliberately excluded: it trades violations for
        // speed by design (its accounting parity is covered in test_replay).
        for (const PolicyKind kind : {PolicyKind::kInstructionLut, PolicyKind::kExOnly,
                                      PolicyKind::kTwoClass, PolicyKind::kStatic,
                                      PolicyKind::kDualCycle}) {
            const auto policy = make_policy(kind, table, engine.calculator().static_period_ps());
            const DcaRunResult r = engine.run(program, *policy);
            EXPECT_EQ(r.timing_violations, 0u)
                << name << " under " << policy->name() << " worst " << r.worst_violation_ps;
            EXPECT_EQ(r.guest.exit_code, 0u) << name;
        }
    }
}

TEST(Policies, LutWithMarginIsSlowerButSafe) {
    DcaEngine engine({});
    InstructionLutPolicy no_margin(characterization().table, 0.0);
    InstructionLutPolicy margin(characterization().table, 100.0);
    const double plain = engine.run(program_of("edn"), no_margin).avg_period_ps;
    const double padded = engine.run(program_of("edn"), margin).avg_period_ps;
    EXPECT_NEAR(padded, plain + 100.0, 1.0);
}

TEST(Policies, ExOnlyFloorCoversNonExStages) {
    const ExOnlyPolicy policy(characterization().table);
    // The floor must cover the worst non-EX entry: the l.j ADR path.
    EXPECT_GE(policy.floor_ps(),
              characterization().table.lookup(static_cast<dta::OccKey>(isa::Opcode::kJ),
                                              sim::Stage::kAdr));
}

TEST(Policies, TwoClassTreatsMulAsSlow) {
    DcaEngine engine({});
    TwoClassPolicy policy(characterization().table);
    // fir is multiplier-heavy: two-class must be much slower than the LUT.
    InstructionLutPolicy lut(characterization().table);
    const double t_two = engine.run(program_of("fir"), policy).avg_period_ps;
    const double t_lut = engine.run(program_of("fir"), lut).avg_period_ps;
    EXPECT_GT(t_two, t_lut + 50.0);
}

TEST(Engine, TimeAccountingIsConsistent) {
    DcaEngine engine({});
    GenieOraclePolicy genie;
    const DcaRunResult r = engine.run(program_of("prime"), genie);
    EXPECT_NEAR(r.avg_period_ps * static_cast<double>(r.cycles), r.total_time_ps, 1e-3);
    EXPECT_NEAR(r.eff_freq_mhz, 1e6 / r.avg_period_ps, 1e-6);
    EXPECT_EQ(r.cycles, r.guest.cycles);
}

TEST(Engine, QuantizedGeneratorDegradesGracefully) {
    DcaEngine engine({});
    const auto& table = characterization().table;
    const double static_ps = engine.calculator().static_period_ps();
    double previous = 1e18;
    for (const int taps : {2, 4, 8, 32, 128}) {
        InstructionLutPolicy policy(table);
        clocking::QuantizedClockGenerator cg =
            clocking::QuantizedClockGenerator::for_static_period(static_ps, taps);
        const DcaRunResult r = engine.run(program_of("crc32"), policy, cg);
        EXPECT_EQ(r.timing_violations, 0u) << taps << " taps";
        EXPECT_LE(r.avg_period_ps, previous + 1e-9) << taps << " taps";
        previous = r.avg_period_ps;
    }
    // Many taps approach the ideal generator.
    InstructionLutPolicy policy(table);
    const double ideal = engine.run(program_of("crc32"), policy).avg_period_ps;
    EXPECT_NEAR(previous, ideal, 0.02 * ideal);
}

TEST(Engine, PllBankIsSafeDespiteDwell) {
    DcaEngine engine({});
    InstructionLutPolicy policy(characterization().table);
    clocking::PllBankClockGenerator cg({1300.0, 1500.0, 1700.0, 2026.0}, 8);
    const DcaRunResult r = engine.run(program_of("dijkstra"), policy, cg);
    EXPECT_EQ(r.timing_violations, 0u);
    EXPECT_GE(r.speedup_vs_static, 1.0);
}

TEST(Flows, EvaluationSuiteAggregates) {
    const EvaluationFlow flow(timing::DesignConfig{}, characterization().table);
    const auto suite = workloads::assemble_suite(
        {workloads::find_kernel("fibcall"), workloads::find_kernel("fsm")});
    const SuiteResult result = flow.run_suite(suite, PolicyKind::kInstructionLut);
    ASSERT_EQ(result.rows.size(), 2u);
    EXPECT_EQ(result.total_violations, 0u);
    EXPECT_NEAR(result.mean_speedup,
                (result.rows[0].result.speedup_vs_static + result.rows[1].result.speedup_vs_static) / 2,
                1e-9);
}

TEST(Flows, CharacterizationProducesCompleteTable) {
    const auto& result = characterization();
    EXPECT_GT(result.cycles, 10000u);
    EXPECT_GT(result.genie_speedup, 1.2);
    // Every opcode must be characterized in the EX stage (coverage test for
    // the characterization suite + extraction pipeline).
    for (int i = 0; i < isa::kOpcodeCount; ++i) {
        EXPECT_TRUE(result.table.characterized(static_cast<dta::OccKey>(i), sim::Stage::kEx))
            << isa::mnemonic(static_cast<isa::Opcode>(i));
    }
}

TEST(Flows, BatchedMatchesStreamingAcrossKernelsAndVoltages) {
    // The acceptance bar of the batched characterization engine: for every
    // operating point, the batched flow (the default mode), serial and with
    // intra-flow worker threads, must serialize the same delay table as the
    // per-cycle streaming reference.
    const std::vector<assembler::Program> programs = workloads::assemble_programs(
        {workloads::find_kernel("crc32"), workloads::find_kernel("fir"),
         workloads::find_kernel("bubblesort"), workloads::find_kernel("fsm")});
    for (const double voltage : {0.70, 0.80}) {
        timing::DesignConfig design;
        design.voltage_v = voltage;
        const CharacterizationFlow flow(design);
        const auto streaming = flow.run(programs, CharacterizationMode::kStreaming);
        for (const int threads : {1, 4}) {
            CharacterizationOptions options;
            options.threads = threads;
            options.batch_cycles = 311;  // odd boundary on purpose
            const auto batched = flow.run(programs, options);
            EXPECT_EQ(batched.table.serialize(), streaming.table.serialize())
                << voltage << " threads " << threads;
            EXPECT_EQ(batched.cycles, streaming.cycles);
            EXPECT_EQ(batched.genie_mean_period_ps, streaming.genie_mean_period_ps);
        }
    }
}

TEST(Flows, ScaledViewsMatchPerVoltageCharacterizationOnDenseGrid) {
    // The characterization-collapse contract at the table level: for each
    // benchmark kernel, every point of a dense voltage grid must get a
    // delay table bit-identical to a full per-voltage characterization
    // when derived as a scaled view of the single nominal table. This is
    // the rounding-monotonicity argument behind DelayTable::scaled made
    // concrete — fl(raw * s) plus the re-applied guard-band rule commutes
    // with the per-voltage flow's own arithmetic at every grid point.
    const auto& library = timing::CellLibrary::fdsoi28();
    for (const char* kernel : {"crc32", "fir", "fsm"}) {
        const std::vector<assembler::Program> programs =
            workloads::assemble_programs({workloads::find_kernel(kernel)});
        timing::DesignConfig nominal;
        nominal.voltage_v = timing::kNominalVoltageV;
        const dta::DelayTable nominal_table =
            CharacterizationFlow(nominal).run(programs).table;
        for (const double voltage : {0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90}) {
            timing::DesignConfig point;
            point.voltage_v = voltage;
            const dta::DelayTable reference =
                CharacterizationFlow(point).run(programs).table;
            const double ratio =
                library.delay_scale(voltage) / library.delay_scale(timing::kNominalVoltageV);
            EXPECT_EQ(nominal_table.scaled(ratio).serialize(), reference.serialize())
                << kernel << " @ " << voltage << " V";
        }
    }
}

TEST(Flows, MakePolicyFactoryCoversAllKinds) {
    const auto& table = characterization().table;
    for (const PolicyKind kind :
         {PolicyKind::kStatic, PolicyKind::kGenie, PolicyKind::kInstructionLut,
          PolicyKind::kExOnly, PolicyKind::kTwoClass, PolicyKind::kApproxLut,
          PolicyKind::kDualCycle}) {
        const auto policy = make_policy(kind, table, 2026.0);
        ASSERT_NE(policy, nullptr);
        EXPECT_EQ(parse_policy_kind(policy_kind_name(kind)), kind);
    }
}

TEST(PolicySpec, ParseLabelRoundTrip) {
    // Every label re-parses to an equal spec, bare kinds label as their
    // plain names, and an explicitly spelled default parameter normalizes
    // to the bare form (equal specs produce equal labels and spec hashes).
    for (const char* text : {"static", "lut", "genie", "ex-only", "two-class", "approx-lut",
                             "dual-cycle", "approx-lut:0.8", "approx-lut:0.125",
                             "dual-cycle:3", "dual-cycle:1.5", "dual-cycle:1"}) {
        const PolicySpec spec = PolicySpec::parse(text);
        EXPECT_EQ(spec.label(), text);
        EXPECT_EQ(PolicySpec::parse(spec.label()), spec);
    }
    EXPECT_EQ(PolicySpec::parse("approx-lut:0.9"), PolicySpec{PolicyKind::kApproxLut});
    EXPECT_EQ(PolicySpec::parse("approx-lut:0.9").label(), "approx-lut");
    EXPECT_EQ(PolicySpec::parse("dual-cycle:2"), PolicySpec{PolicyKind::kDualCycle});
    EXPECT_EQ(PolicySpec::parse("dual-cycle:2").label(), "dual-cycle");
    // Bare kinds convert implicitly and resolve to the kind's default.
    const PolicySpec bare = PolicyKind::kApproxLut;
    EXPECT_EQ(bare.param, -1.0);
    EXPECT_EQ(bare.resolved_param(), kApproxLutKindScale);
    EXPECT_EQ(PolicySpec::parse("dual-cycle:3").resolved_param(), 3.0);
}

TEST(PolicySpec, RejectsOutOfRangeAndMalformedParameters) {
    // approx-lut scale must land in (0, 1], dual-cycle stretch in [1, inf);
    // only those two kinds take a parameter at all. All rejections are
    // usage errors (focs::Error) raised at parse time, before any build.
    for (const char* text : {"approx-lut:0", "approx-lut:-0.5", "approx-lut:1.0001",
                             "approx-lut:2", "dual-cycle:0.99", "dual-cycle:0",
                             "dual-cycle:-3", "lut:0.8", "static:2", "genie:1",
                             "approx-lut:", "approx-lut:abc", "approx-lut:0.8x",
                             "dual-cycle:1e999", "bogus", "bogus:1"}) {
        EXPECT_THROW((void)PolicySpec::parse(text), Error) << text;
    }
}

TEST(PolicySpec, ParameterReachesTheConstructedPolicy) {
    const auto& table = characterization().table;
    // The factory hands the resolved parameter to the concrete policy: a
    // parameterized spec produces the same decisions as the directly
    // constructed policy object.
    const auto via_spec = make_policy(PolicySpec::parse("dual-cycle:3"), table, 2026.0);
    DualCyclePolicy direct(table, 3.0);
    EXPECT_EQ(via_spec->name(), direct.name());
    EXPECT_EQ(via_spec->name(), "dual-cycle/3.00");
    const auto approx = make_policy(PolicySpec::parse("approx-lut:0.8"), table, 2026.0);
    EXPECT_EQ(approx->name(), "approx-lut/0.80");
    // Defaults keep their historical names, so existing result documents
    // and golden files are unaffected.
    EXPECT_EQ(make_policy(PolicySpec::parse("dual-cycle"), table, 2026.0)->name(),
              "dual-cycle");
    EXPECT_EQ(make_policy(PolicyKind::kApproxLut, table, 2026.0)->name(), "approx-lut/0.90");
}

}  // namespace
}  // namespace focs::core
