// DCA evaluation engine: the delay-annotated cycle-accurate ISS of the
// paper (Sec. III-B), plus a built-in timing-safety checker.
//
// Runs a guest program on the pipeline model; each cycle the selected
// policy requests a clock period, the clock generator grants one, and the
// engine integrates total execution time. In parallel the engine computes
// the cycle's *actual* timing requirement from the synthetic gate-level
// delay model and counts any violation (granted < required) — a correct
// predictive policy must finish every run with zero violations.
#pragma once

#include <string>

#include "asm/program.hpp"
#include "clock/clock_generator.hpp"
#include "core/policies.hpp"
#include "sim/machine.hpp"
#include "timing/delay_model.hpp"

namespace focs::core {

/// Safety-check tolerance (1 fs, absorbs rounding): a granted period this
/// close below the actual requirement is not a violation. Shared by the
/// live engine and the replay kernels — the replay==live byte-identity
/// contract depends on both using the same value.
inline constexpr double kViolationTolerancePs = 1e-3;

struct DcaRunResult {
    std::string policy;
    std::string clock_generator;
    std::uint64_t cycles = 0;
    double total_time_ps = 0;
    double avg_period_ps = 0;
    double eff_freq_mhz = 0;           ///< cycles / total time
    double static_period_ps = 0;
    double speedup_vs_static = 0;      ///< static period / average period
    std::uint64_t timing_violations = 0;
    double worst_violation_ps = 0;     ///< max (required - granted) over violations
    sim::RunResult guest;
};

class DcaEngine {
public:
    explicit DcaEngine(const timing::DesignConfig& design,
                       sim::MachineConfig machine_config = {});

    /// Runs `program` to completion under `policy` and `generator`.
    DcaRunResult run(const assembler::Program& program, ClockPolicy& policy,
                     clocking::ClockGenerator& generator);

    /// Convenience overload with an ideal (continuously tunable) generator.
    DcaRunResult run(const assembler::Program& program, ClockPolicy& policy);

    const timing::DelayCalculator& calculator() const { return calculator_; }

private:
    timing::DesignConfig design_;
    sim::MachineConfig machine_config_;
    timing::DelayCalculator calculator_;
};

/// Derives the ratio fields of a DcaRunResult from the accumulated raw
/// figures — the single definition shared by the live engine and the
/// replay kernels, so both assemble results identically (guest metadata is
/// filled by the caller).
DcaRunResult finish_run(std::string policy, std::string generator, std::uint64_t cycles,
                        double total_time_ps, double static_period_ps,
                        std::uint64_t timing_violations, double worst_violation_ps);

}  // namespace focs::core
