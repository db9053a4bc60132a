#include "core/dca_engine.hpp"

#include <algorithm>

#include "common/units.hpp"

namespace focs::core {

namespace {

/// Observer integrating execution time and checking timing safety.
class DcaObserver final : public sim::PipelineObserver {
public:
    DcaObserver(const timing::DelayCalculator& calculator, ClockPolicy& policy,
                clocking::ClockGenerator& generator)
        : calculator_(calculator), policy_(policy), generator_(generator) {}

    void on_cycle(const sim::CycleRecord& record) override {
        const timing::CycleDelays actual = calculator_.evaluate(record);
        const PolicyContext context{record, actual};
        const double requested = policy_.requested_period_ps(context);
        const double granted = generator_.grant_period_ps(requested);
        total_time_ps_ += granted;
        ++cycles_;
        // Safety: the granted period must cover the actual requirement of
        // every excited path this cycle.
        if (granted + kViolationTolerancePs < actual.required_period_ps) {
            ++violations_;
            worst_violation_ps_ =
                std::max(worst_violation_ps_, actual.required_period_ps - granted);
        }
    }

    double total_time_ps() const { return total_time_ps_; }
    std::uint64_t cycles() const { return cycles_; }
    std::uint64_t violations() const { return violations_; }
    double worst_violation_ps() const { return worst_violation_ps_; }

private:
    const timing::DelayCalculator& calculator_;
    ClockPolicy& policy_;
    clocking::ClockGenerator& generator_;
    double total_time_ps_ = 0;
    std::uint64_t cycles_ = 0;
    std::uint64_t violations_ = 0;
    double worst_violation_ps_ = 0;
};

}  // namespace

DcaEngine::DcaEngine(const timing::DesignConfig& design, sim::MachineConfig machine_config)
    : design_(design), machine_config_(machine_config), calculator_(design) {}

DcaRunResult DcaEngine::run(const assembler::Program& program, ClockPolicy& policy,
                            clocking::ClockGenerator& generator) {
    sim::Machine machine(machine_config_);
    machine.load(program);
    policy.reset();
    generator.reset();
    DcaObserver observer(calculator_, policy, generator);
    const sim::RunResult guest = machine.run(&observer);

    DcaRunResult result = finish_run(policy.name(), generator.name(), observer.cycles(),
                                     observer.total_time_ps(), calculator_.static_period_ps(),
                                     observer.violations(), observer.worst_violation_ps());
    result.guest = guest;
    return result;
}

DcaRunResult DcaEngine::run(const assembler::Program& program, ClockPolicy& policy) {
    clocking::IdealClockGenerator ideal;
    return run(program, policy, ideal);
}

DcaRunResult finish_run(std::string policy, std::string generator, std::uint64_t cycles,
                        double total_time_ps, double static_period_ps,
                        std::uint64_t timing_violations, double worst_violation_ps) {
    DcaRunResult result;
    result.policy = std::move(policy);
    result.clock_generator = std::move(generator);
    result.cycles = cycles;
    result.total_time_ps = total_time_ps;
    result.avg_period_ps =
        result.cycles > 0 ? result.total_time_ps / static_cast<double>(result.cycles) : 0;
    result.eff_freq_mhz = result.avg_period_ps > 0 ? mhz_from_period_ps(result.avg_period_ps) : 0;
    result.static_period_ps = static_period_ps;
    result.speedup_vs_static =
        result.avg_period_ps > 0 ? result.static_period_ps / result.avg_period_ps : 0;
    result.timing_violations = timing_violations;
    result.worst_violation_ps = worst_violation_ps;
    return result;
}

}  // namespace focs::core
