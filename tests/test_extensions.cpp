// Tests for the extension features: approximate over-scaling (paper
// Sec. IV-A), online LUT updating under PVT drift (paper Sec. V), table
// rescaling, and the pipeline trace printer.
#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "common/error.hpp"
#include "core/dca_engine.hpp"
#include "core/flows.hpp"
#include "sim/machine.hpp"
#include "sim/trace_printer.hpp"
#include "timing/cell_library.hpp"
#include "workloads/kernel.hpp"

namespace focs::core {
namespace {

const CharacterizationResult& characterization() {
    static const CharacterizationResult result = [] {
        const CharacterizationFlow flow(timing::DesignConfig{});
        return flow.run(workloads::assemble_programs(workloads::characterization_suite()));
    }();
    return result;
}

const assembler::Program& fir_program() {
    static const assembler::Program program =
        assembler::assemble(workloads::find_kernel("fir").source);
    return program;
}

// ---- Approximate over-scaling --------------------------------------------------

TEST(Approximate, ScaleOneEqualsExactPolicy) {
    DcaEngine engine({});
    ApproximateLutPolicy approx(characterization().table, 1.0);
    InstructionLutPolicy exact(characterization().table);
    const auto a = engine.run(fir_program(), approx);
    const auto b = engine.run(fir_program(), exact);
    EXPECT_DOUBLE_EQ(a.total_time_ps, b.total_time_ps);
    EXPECT_EQ(a.timing_violations, 0u);
}

TEST(Approximate, SpeedAndViolationsGrowMonotonically) {
    DcaEngine engine({});
    double prev_time = 1e300;
    std::uint64_t prev_violations = 0;
    for (const double scale : {1.0, 0.95, 0.90, 0.85}) {
        ApproximateLutPolicy policy(characterization().table, scale);
        const auto r = engine.run(fir_program(), policy);
        EXPECT_LT(r.total_time_ps, prev_time) << scale;
        EXPECT_GE(r.timing_violations, prev_violations) << scale;
        prev_time = r.total_time_ps;
        prev_violations = r.timing_violations;
    }
    EXPECT_GT(prev_violations, 0u);  // aggressive scaling must violate
}

TEST(Approximate, RejectsBadScale) {
    EXPECT_THROW(ApproximateLutPolicy(characterization().table, 0.0), Error);
    EXPECT_THROW(ApproximateLutPolicy(characterization().table, 1.5), Error);
}

// ---- PVT drift and online updating ---------------------------------------------

TEST(PvtDrift, StaleLutViolatesAtLowerVoltage) {
    timing::DesignConfig drifted;
    drifted.voltage_v = 0.66;
    DcaEngine engine(drifted);
    InstructionLutPolicy stale(characterization().table);
    const auto r = engine.run(fir_program(), stale);
    EXPECT_GT(r.timing_violations, 0u);
}

TEST(PvtDrift, OnlineUpdatedLutStaysSafeEverywhere) {
    const auto& library = timing::CellLibrary::fdsoi28();
    for (const double voltage : {0.70, 0.68, 0.65, 0.60}) {
        timing::DesignConfig drifted;
        drifted.voltage_v = voltage;
        DcaEngine engine(drifted);
        const double ratio = library.delay_scale(voltage) / library.delay_scale(0.70);
        const dta::DelayTable updated = characterization().table.scaled(ratio);
        InstructionLutPolicy policy(updated);
        const auto r = engine.run(fir_program(), policy);
        EXPECT_EQ(r.timing_violations, 0u) << voltage;
        // Relative speedup is voltage-invariant: all paths scale together.
        EXPECT_NEAR(r.speedup_vs_static,
                    engine.calculator().static_period_ps() / r.avg_period_ps, 1e-9);
    }
}

TEST(PvtDrift, SpeedupIsVoltageInvariantWithUpdatedLut) {
    const auto& library = timing::CellLibrary::fdsoi28();
    double reference = 0;
    for (const double voltage : {0.70, 0.65, 0.60}) {
        timing::DesignConfig config;
        config.voltage_v = voltage;
        DcaEngine engine(config);
        const double ratio = library.delay_scale(voltage) / library.delay_scale(0.70);
        const dta::DelayTable updated = characterization().table.scaled(ratio);
        InstructionLutPolicy policy(updated);
        const double speedup = engine.run(fir_program(), policy).speedup_vs_static;
        if (reference == 0) {
            reference = speedup;
        } else {
            EXPECT_NEAR(speedup, reference, 0.01) << voltage;
        }
    }
}

// ---- DelayTable::scaled ----------------------------------------------------------

TEST(ScaledTable, EntriesAndFallbackScale) {
    dta::DelayTable table(2000.0);
    table.set_characterized(3, sim::Stage::kEx, 1500.0);
    const dta::DelayTable scaled = table.scaled(1.25);
    EXPECT_DOUBLE_EQ(scaled.static_period_ps(), 2500.0);
    EXPECT_DOUBLE_EQ(scaled.lookup(3, sim::Stage::kEx), 1875.0);
    EXPECT_DOUBLE_EQ(scaled.lookup(4, sim::Stage::kEx), 2500.0);  // fallback scaled too
    EXPECT_THROW(table.scaled(0.0), Error);
}

// ---- Trace printer -----------------------------------------------------------------

TEST(TracePrinter, RendersOccupancyAndRedirects) {
    sim::Machine machine;
    machine.load(assembler::assemble(R"(
_start:
  l.addi r5, r0, 1
  l.sfeq r5, r5
  l.bf target
  l.nop
  l.addi r6, r0, 9
target:
  l.addi r3, r0, 0
  l.nop 0x1
  l.nop
  l.nop
  l.nop
  l.nop
)"));
    sim::TracePrinter tracer;
    machine.run(&tracer);
    const std::string text = tracer.text();
    EXPECT_NE(text.find("l.addi"), std::string::npos);
    EXPECT_NE(text.find("l.sfeq"), std::string::npos);
    EXPECT_NE(text.find("redirect<-l.bf"), std::string::npos);
    EXPECT_NE(text.find("--------"), std::string::npos);  // squash bubbles visible
    EXPECT_NE(text.find(" cycle | adr"), std::string::npos);
}

TEST(TracePrinter, RespectsCycleLimit) {
    sim::Machine machine;
    machine.load(assembler::assemble(workloads::find_kernel("fibcall").source));
    sim::TracePrinter tracer(5);
    machine.run(&tracer);
    int lines = 0;
    for (const char c : tracer.text()) {
        if (c == '\n') ++lines;
    }
    EXPECT_EQ(lines, 2 + 5);  // header + rule + 5 rows
}

TEST(TracePrinter, MarksHeldSlots) {
    sim::Machine machine;
    machine.load(assembler::assemble(R"(
_start:
  l.addi r5, r0, 100
  l.addi r6, r0, 7
  l.divu r7, r5, r6
  l.addi r3, r0, 0
  l.nop 0x1
  l.nop
  l.nop
  l.nop
  l.nop
)"));
    sim::TracePrinter tracer;
    machine.run(&tracer);
    EXPECT_NE(tracer.text().find("l.addi*"), std::string::npos);  // stalled behind divider
}

}  // namespace
}  // namespace focs::core
