#include "core/flows.hpp"

#include "common/error.hpp"
#include "dta/batch_engine.hpp"
#include "dta/gatesim.hpp"

namespace focs::core {

CharacterizationFlow::CharacterizationFlow(const timing::DesignConfig& design,
                                           dta::AnalyzerConfig analyzer_config,
                                           sim::MachineConfig machine_config)
    : design_(design),
      analyzer_config_(analyzer_config),
      machine_config_(machine_config),
      netlist_(timing::SyntheticNetlist::generate(design)),
      calculator_(design) {
    if (analyzer_config_.static_period_ps <= 0) {
        analyzer_config_.static_period_ps = calculator_.static_period_ps();
    }
}

namespace {

void check_self_check(const sim::RunResult& run) {
    if (run.exit_code != 0) {
        throw GuestError("characterization program failed self-check (exit code " +
                         std::to_string(run.exit_code) + ")");
    }
}

}  // namespace

CharacterizationResult CharacterizationFlow::run(const std::vector<assembler::Program>& programs,
                                                 const CharacterizationOptions& options) const {
    check(!programs.empty(), "characterization needs at least one program");

    auto analysis = std::make_shared<dta::DynamicTimingAnalysis>(
        dta::PipelineSpec::from_netlist(netlist_), analyzer_config_);

    if (options.mode == CharacterizationMode::kBatched) {
        // One batch engine consumes every program's cycle stream back to
        // back: the pipeline produces distilled cycle batches, the SoA
        // endpoint kernel (optionally on options.threads workers) reduces
        // them, and the in-order merger folds blocks into the analyzer.
        dta::BatchOptions batch_options;
        batch_options.threads = options.threads;
        batch_options.batch_cycles = options.batch_cycles;
        batch_options.cancel = options.cancel;
        dta::BatchCharacterizationEngine engine(netlist_, calculator_, *analysis, batch_options);
        for (const auto& program : programs) {
            if (options.cancel != nullptr) options.cancel->throw_if_cancelled();
            sim::Machine machine(machine_config_);
            machine.load(program);
            check_self_check(machine.run(&engine));
        }
        engine.finish();
    } else {
        // Per-cycle reference: one analyzer consumes every program's cycle
        // stream back to back. Per-program cycle numbering is irrelevant to
        // the accumulators, so no merged timeline is needed.
        for (const auto& program : programs) {
            if (options.cancel != nullptr) options.cancel->throw_if_cancelled();
            sim::Machine machine(machine_config_);
            machine.load(program);
            dta::GateLevelSimulation gatesim(netlist_, calculator_, *analysis);
            check_self_check(machine.run(&gatesim));
        }
    }

    CharacterizationResult result;
    result.table = analysis->build_delay_table();
    result.static_period_ps = analyzer_config_.static_period_ps;
    result.genie_mean_period_ps = analysis->genie_mean_period_ps();
    result.genie_speedup = result.genie_mean_period_ps > 0
                               ? result.static_period_ps / result.genie_mean_period_ps
                               : 0;
    result.cycles = analysis->cycles();
    result.analysis = std::move(analysis);
    return result;
}

EvaluationFlow::EvaluationFlow(const timing::DesignConfig& design, const dta::DelayTable& table,
                               sim::MachineConfig machine_config)
    : design_(design), table_(&table), machine_config_(machine_config) {}

double EvaluationFlow::static_period_ps() const {
    return timing::DelayCalculator(design_).static_period_ps();
}

DcaRunResult evaluate_cell(const timing::DesignConfig& design, const dta::DelayTable& table,
                           const assembler::Program& program, const PolicySpec& policy_spec,
                           clocking::ClockGenerator* generator,
                           const sim::MachineConfig& machine_config) {
    DcaEngine engine(design, machine_config);
    const auto policy = make_policy(policy_spec, table, engine.calculator().static_period_ps());
    if (generator != nullptr) return engine.run(program, *policy, *generator);
    return engine.run(program, *policy);
}

DcaRunResult EvaluationFlow::run_one(const assembler::Program& program, PolicyKind kind,
                                     clocking::ClockGenerator* generator) const {
    return evaluate_cell(design_, *table_, program, kind, generator, machine_config_);
}

SuiteResult EvaluationFlow::run_suite(
    const std::vector<std::pair<std::string, assembler::Program>>& suite, PolicyKind kind,
    clocking::ClockGenerator* generator) const {
    check(!suite.empty(), "empty benchmark suite");
    SuiteResult result;
    for (const auto& [name, program] : suite) {
        BenchmarkRow row;
        row.benchmark = name;
        row.result = run_one(program, kind, generator);
        result.mean_eff_freq_mhz += row.result.eff_freq_mhz;
        result.mean_speedup += row.result.speedup_vs_static;
        result.total_violations += row.result.timing_violations;
        result.rows.push_back(std::move(row));
    }
    result.mean_eff_freq_mhz /= static_cast<double>(result.rows.size());
    result.mean_speedup /= static_cast<double>(result.rows.size());
    return result;
}

}  // namespace focs::core
