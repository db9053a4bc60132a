// The two sweep workloads and the layer-by-layer executor of traced runs.
//
// sweep_cold is the paper's full evaluation grid: replay (`core`) carries
// it, behind one characterization, 19 trace recordings and 19 unit-delay
// passes. design_space is its counter-workload: 16 design points over 4
// kernels, each forcing a fresh gate-level characterization (`dta`) while
// traces are reused and replay is tiny.
#include <algorithm>
#include <cmath>
#include <map>

#include "bench.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/replay_engine.hpp"
#include "runtime/result_io.hpp"
#include "timing/delay_model.hpp"
#include "timing/trace_delays.hpp"
#include "workloads/kernel.hpp"

namespace perfbench {

using focs::runtime::ArtifactCache;
using focs::runtime::ArtifactClass;
using focs::runtime::GeneratorSpec;
using focs::runtime::SweepEngine;
using focs::runtime::SweepResult;
using focs::runtime::SweepSpec;
using Clock = std::chrono::steady_clock;

namespace {

constexpr const char* kAllPolicies =
    "static, two-class, dual-cycle, ex-only, lut, approx-lut, genie";
constexpr const char* kAllGenerators = "ideal, taps:8, pll:1300/1500:4";
constexpr const char* kAllVoltages = "0.60, 0.65, 0.70, 0.75, 0.80";
/// Setup repetitions per run; setup_s is their median.
constexpr int kSetupReps = 3;

std::string join(const std::vector<std::string>& items) {
    std::string out;
    for (const auto& item : items) out += (out.empty() ? "" : ", ") + item;
    return out;
}

/// One workload: its spec texts in canonical order (digests and cell
/// checks use this order) and the order a run executes them in.
struct Workload {
    std::string name;
    std::vector<std::string> texts;
    std::vector<std::size_t> order;

    std::vector<SweepSpec> specs() const {
        std::vector<SweepSpec> specs;
        for (const std::size_t i : order) specs.push_back(SweepSpec::parse(texts[i]));
        return specs;
    }
};

Workload sweep_cold_workload() {
    Workload w{"sweep_cold", {}, {0}};
    w.texts.push_back("kernels = " + join(suite_kernels()) + "\npolicies = " + kAllPolicies +
                      "\ngenerators = " + kAllGenerators + "\nvoltages = " + kAllVoltages +
                      "\n");
    return w;
}

Workload design_space_workload(std::uint64_t seed) {
    Workload w{"design_space", {}, {}};
    for (const char* variant : {"critical-range", "conventional"}) {
        for (const int guard : {0, 5, 10, 20}) {
            for (const int min_occ : {1, 4}) {
                w.texts.push_back(std::string("kernels = coremark_mini, crc32, matmult, qsort\n"
                                              "policies = lut, approx-lut, two-class\n"
                                              "generators = ideal\nvoltages = 0.6, 0.7, 0.8\n") +
                                  "variant = " + variant + "\nguard_ps = " +
                                  std::to_string(guard) +
                                  "\nmin_occurrences = " + std::to_string(min_occ) + "\n");
            }
        }
    }
    // The seed orders the design points: which point pays for the shared
    // traces and unit delays moves, the results do not.
    for (std::size_t i = 0; i < w.texts.size(); ++i) w.order.push_back(i);
    focs::Rng rng(seed);
    for (std::size_t i = w.order.size(); i > 1; --i) {
        std::swap(w.order[i - 1], w.order[rng.next_below(i)]);
    }
    return w;
}

struct Pass {
    std::vector<SweepResult> results;  ///< in execution order
    double wall_ms = 0;
};

Pass run_pass(const std::vector<SweepSpec>& specs, int jobs,
              const std::shared_ptr<ArtifactCache>& cache) {
    Pass pass;
    const auto start = Clock::now();
    for (const SweepSpec& spec : specs) pass.results.push_back(SweepEngine(jobs, cache).run(spec));
    pass.wall_ms = ms_since(start);
    return pass;
}

/// Digest of a pass's canonical documents, concatenated in canonical order.
std::string digest(const Workload& w, const Pass& pass) {
    std::vector<std::string> docs(w.texts.size());
    for (std::size_t i = 0; i < w.order.size(); ++i) {
        docs[w.order[i]] = focs::runtime::to_json(pass.results[i], false);
    }
    std::string all;
    for (const auto& doc : docs) all += doc;
    return focs::runtime::stable_text_hash(all);
}

std::size_t generator_count(const SweepSpec& spec) {
    return std::max<std::size_t>(1, spec.resolved().generators.size());
}

}  // namespace

double mean_lut_speedup(const std::vector<SweepResult>& results) {
    double sum = 0;
    std::size_t n = 0;
    for (const SweepResult& result : results) {
        for (const auto& cell : result.cells) {
            if (cell.ok() && cell.policy == "lut" && cell.generator == "ideal" &&
                std::abs(cell.voltage_v - 0.70) < 1e-9) {
                sum += cell.result.speedup_vs_static;
                ++n;
            }
        }
    }
    return n ? sum / static_cast<double>(n) : 0;
}

LayerTimes run_layered(const std::vector<SweepSpec>& specs, ArtifactCache& cache,
                       focs::obs::SpanTracer& tracer, const std::vector<SweepResult>& reference,
                       Report& report) {
    LayerTimes out;
    const std::uint64_t chars_before = cache.characterizations_built();
    const std::uint64_t programs_before = cache.class_counters(ArtifactClass::kProgram).miss;
    // Replayed cells, compared with the engine's once tracing is over.
    std::vector<std::vector<focs::core::DcaRunResult>> replayed(specs.size());
    {
        auto root = tracer.span("bench.layered_pass");
        for (std::size_t s = 0; s < specs.size(); ++s) {
            const SweepSpec spec = specs[s].resolved();
            const auto analyzer = SweepEngine::analyzer_config_for(spec);
            for (const auto& kernel : spec.kernels) {
                auto span = tracer.span("cache.build.program");
                span.arg("key", kernel);
                cache.program(kernel).get();
            }
            // The first table of a design point runs the nominal
            // characterization (when not cached yet); the others are
            // scaled views of it.
            for (std::size_t v = 0; v < spec.voltages_v.size(); ++v) {
                auto span = tracer.span(v == 0 ? "cache.build.nominal_table"
                                               : "cache.build.delay_table");
                cache.delay_table(spec.design_for(spec.voltages_v[v]), analyzer).get();
            }
            for (const auto& kernel : spec.kernels) {
                const std::uint64_t before = cache.traces_recorded();
                auto span = tracer.span("cache.build.trace");
                span.arg("key", kernel);
                const auto cycles = cache.trace(kernel).get().cycles();
                span.finish();
                if (cache.traces_recorded() > before) out.trace_cycles += cycles;
            }
            for (const auto& kernel : spec.kernels) {
                const std::uint64_t before = cache.unit_delay_passes();
                auto span = tracer.span("cache.build.unit_delays");
                span.arg("key", kernel);
                cache.unit_trace_delays(kernel, spec.design_for(spec.voltages_v.front())).get();
                span.finish();
                if (cache.unit_delay_passes() > before) {
                    out.unit_delay_cycles += static_cast<double>(cache.trace(kernel).get().cycles());
                }
            }
            for (const double voltage : spec.voltages_v) {
                const auto design = spec.design_for(voltage);
                for (const auto& kernel : spec.kernels) {
                    for (const auto& policy : spec.policies) {
                        auto column = tracer.span("sweep.column");
                        const auto table = cache.delay_table(design, analyzer);
                        const auto trace = cache.trace(kernel);
                        const auto delays = focs::timing::scale_trace_delays(
                            cache.unit_trace_delays(kernel, design).get(),
                            focs::timing::DelayCalculator(design));
                        std::vector<std::unique_ptr<focs::clocking::ClockGenerator>> owned;
                        std::vector<focs::clocking::ClockGenerator*> variants;
                        for (const auto& generator : spec.generators) {
                            owned.push_back(generator.instantiate(delays.static_period_ps));
                            variants.push_back(generator.kind == GeneratorSpec::Kind::kIdeal
                                                   ? nullptr
                                                   : owned.back().get());
                        }
                        const focs::core::ReplayEvaluationEngine replay(trace.get(), delays,
                                                                        table.get());
                        auto fused_span = tracer.span("replay.run_fused");
                        auto fused = replay.run_fused(policy, variants);
                        fused_span.finish();
                        out.replayed_cycles += trace.get().cycles() * variants.size();
                        for (auto& r : fused) replayed[s].push_back(std::move(r));
                    }
                }
            }
        }
    }
    const auto events = tracer.snapshot();
    auto self = self_time_ms(events);
    out.asm_ms = self["cache.build.program"];
    out.dta_ms = self["cache.build.nominal_table"] + self["cache.build.delay_table"];
    out.sim_ms = self["cache.build.trace"];
    out.timing_ms = self["cache.build.unit_delays"];
    out.core_ms = self["replay.run_fused"];
    out.column_ms = self["sweep.column"];
    out.traced_wall_ms = total_ms(events, "bench.layered_pass");
    out.characterizations = cache.characterizations_built() - chars_before;
    out.programs = cache.class_counters(ArtifactClass::kProgram).miss - programs_before;

    std::size_t mismatched = 0, compared = 0;
    for (std::size_t s = 0; s < specs.size() && s < reference.size(); ++s) {
        const auto& cells = reference[s].cells;
        if (cells.size() != replayed[s].size()) {
            ++mismatched;
            continue;
        }
        for (std::size_t c = 0; c < cells.size(); ++c, ++compared) {
            auto mine = cells[c];
            mine.result = replayed[s][c];
            if (!same_cell(mine, cells[c])) ++mismatched;
        }
    }
    report.check(mismatched == 0 && compared > 0,
                 "layer-by-layer replay disagrees with SweepEngine on " +
                     std::to_string(mismatched) + " cells");
    return out;
}

double replay_rate(const std::vector<SweepSpec>& specs, ArtifactCache& cache,
                   GeneratorSpec::Kind kind) {
    std::uint64_t cycles = 0;
    double ms = 0;
    for (const SweepSpec& raw : specs) {
        const SweepSpec spec = raw.resolved();
        const auto analyzer = SweepEngine::analyzer_config_for(spec);
        for (const auto& generator : spec.generators) {
            if (generator.kind != kind) continue;
            for (const double voltage : spec.voltages_v) {
                const auto design = spec.design_for(voltage);
                for (const auto& kernel : spec.kernels) {
                    const auto table = cache.delay_table(design, analyzer);
                    const auto trace = cache.trace(kernel);
                    const auto delays = focs::timing::scale_trace_delays(
                        cache.unit_trace_delays(kernel, design).get(),
                        focs::timing::DelayCalculator(design));
                    const focs::core::ReplayEvaluationEngine replay(trace.get(), delays,
                                                                    table.get());
                    for (const auto& policy : spec.policies) {
                        auto owned = generator.instantiate(delays.static_period_ps);
                        const std::vector<focs::clocking::ClockGenerator*> variants = {
                            kind == GeneratorSpec::Kind::kIdeal ? nullptr : owned.get()};
                        const auto start = Clock::now();
                        replay.run_fused(policy, variants);
                        ms += ms_since(start);
                        cycles += trace.get().cycles();
                    }
                }
            }
        }
    }
    return ms > 0 ? static_cast<double>(cycles) / (ms / 1000.0) : 0;
}

void report_layers(Report& report, const LayerTimes& layers, double untraced_wall_ms,
                   std::size_t samples) {
    const auto rate = [](double count, double ms) { return ms > 0 ? count / (ms / 1000.0) : 0; };
    report.metric("asm.assemble_ms", layers.asm_ms, samples);
    report.metric("asm.programs", static_cast<double>(layers.programs));
    report.metric("dta.characterize_ms", layers.dta_ms, samples);
    report.metric("dta.characterizations", static_cast<double>(layers.characterizations));
    report.metric("sim.record_trace_ms", layers.sim_ms, samples);
    report.metric("sim.trace_cycles", static_cast<double>(layers.trace_cycles));
    report.metric("sim.trace_cycles_per_s",
                  rate(static_cast<double>(layers.trace_cycles), layers.sim_ms), samples);
    report.metric("timing.unit_delays_ms", layers.timing_ms, samples);
    report.metric("timing.unit_delay_cycles_per_s",
                  rate(layers.unit_delay_cycles, layers.timing_ms), samples);
    report.metric("core.replay_ms", layers.core_ms, samples);
    report.metric("core.replayed_cycles", static_cast<double>(layers.replayed_cycles));
    report.metric("runtime.column_ms", layers.column_ms, samples);
    report.metric("runtime.unattributed_ms", untraced_wall_ms - layers.sum_ms(), samples);
    report.metric("bench.tracing_overhead",
                  untraced_wall_ms > 0 ? layers.traced_wall_ms / untraced_wall_ms : 0, samples);

    const std::pair<const char*, double> shares[] = {
        {"asm", layers.asm_ms},         {"dta", layers.dta_ms},   {"sim", layers.sim_ms},
        {"timing", layers.timing_ms},   {"core", layers.core_ms}, {"runtime", layers.column_ms}};
    std::string line = "layer self time of the 1-job pass (ms):";
    for (const auto& [name, ms] : shares) line += std::string(" ") + name + "=" + std::to_string(ms);
    line += " unattributed=" + std::to_string(untraced_wall_ms - layers.sum_ms());
    report.note(line);
}

namespace {

/// Median of each LayerTimes field over a run's traced iterations.
LayerTimes median_layers(const std::vector<LayerTimes>& all) {
    LayerTimes out = all.back();  // counts repeat exactly
    const auto med = [&](double LayerTimes::*field) {
        std::vector<double> values;
        for (const auto& l : all) values.push_back(l.*field);
        return median(values);
    };
    out.asm_ms = med(&LayerTimes::asm_ms);
    out.dta_ms = med(&LayerTimes::dta_ms);
    out.sim_ms = med(&LayerTimes::sim_ms);
    out.timing_ms = med(&LayerTimes::timing_ms);
    out.core_ms = med(&LayerTimes::core_ms);
    out.column_ms = med(&LayerTimes::column_ms);
    out.traced_wall_ms = med(&LayerTimes::traced_wall_ms);
    return out;
}

void note_dominant(Report& report, const LayerTimes& l, const std::string& predicted) {
    const std::pair<const char*, double> layers[] = {
        {"asm", l.asm_ms},       {"dta", l.dta_ms},   {"sim", l.sim_ms},
        {"timing", l.timing_ms}, {"core", l.core_ms}, {"runtime", l.column_ms}};
    const auto* top = std::max_element(std::begin(layers), std::end(layers),
                                       [](const auto& a, const auto& b) { return a.second < b.second; });
    report.note(std::string("dominant layer: ") + top->first + " (predicted " + predicted + ": " +
                (predicted == top->first ? "confirmed" : "MISMATCH") + ")");
}

/// Cycles one characterization flow simulates: the characterization
/// suite's programs, recorded once on a scratch cache.
double characterization_cycles() {
    ArtifactCache scratch;
    double cycles = 0;
    for (const auto& kernel : focs::workloads::characterization_suite()) {
        cycles += static_cast<double>(scratch.trace(kernel.name).get().cycles());
    }
    return cycles;
}

void traced_sweep(const Options& options, Report& report, const Workload& w,
                  const std::string& predicted) {
    const auto specs = w.specs();
    const auto deadline = Clock::now() + std::chrono::duration<double>(options.seconds);
    focs::obs::SpanTracer tracer(true);
    std::vector<LayerTimes> layers;
    std::vector<double> untraced;
    std::shared_ptr<ArtifactCache> warm, traced_cache;
    Pass reference;
    report.calibrate();
    for (int it = 0; it < 2 || (Clock::now() < deadline && it < 20); ++it) {
        warm = std::make_shared<ArtifactCache>();
        reference = run_pass(specs, 1, warm);
        untraced.push_back(reference.wall_ms);
        traced_cache = std::make_shared<ArtifactCache>();
        tracer.reset();
        layers.push_back(run_layered(specs, *traced_cache, tracer, reference.results, report));
        report.calibrate();
    }
    write_trace(options, tracer, *traced_cache);
    const LayerTimes l = median_layers(layers);
    report_layers(report, l, median(untraced), layers.size());
    note_dominant(report, l, predicted);
    const double char_cycles = characterization_cycles();
    report.metric("dta.char_cycles_per_s",
                  l.dta_ms > 0 ? static_cast<double>(l.characterizations) * char_cycles /
                                     (l.dta_ms / 1000.0)
                               : 0,
                  layers.size());

    // Parallel runtime behaviour: a cold pass at the end-to-end job count.
    {
        auto cache = std::make_shared<ArtifactCache>();
        const Pass cold = run_pass(specs, options.jobs, cache);
        double busy = 0;
        int jobs_used = 1;
        focs::runtime::SweepMetrics sum;
        std::uint64_t retried = 0;
        for (std::size_t i = 0; i < cold.results.size(); ++i) {
            const auto& r = cold.results[i];
            busy += column_busy_ms(r, generator_count(specs[i]));
            jobs_used = std::max(jobs_used, r.jobs);
            for (auto [into, from] : {std::pair{&sum.program, &r.metrics.program},
                                      std::pair{&sum.delay_table, &r.metrics.delay_table},
                                      std::pair{&sum.trace, &r.metrics.trace},
                                      std::pair{&sum.unit_delays, &r.metrics.unit_delays}}) {
                into->miss += from->miss;
                into->hit += from->hit;
                into->wait += from->wait;
            }
            check_result(report, r, w.name + " jobs>1 cold pass");
        }
        for (const auto cls : {ArtifactClass::kProgram, ArtifactClass::kDelayTable,
                               ArtifactClass::kTrace, ArtifactClass::kUnitDelays}) {
            retried += cache->build_stats(cls).retried;
        }
        report.metric("runtime.parallel_efficiency", busy / (cold.wall_ms * jobs_used), 1);
        const std::pair<const char*, const focs::runtime::ArtifactClassCounters*> classes[] = {
            {"program", &sum.program},
            {"delay_table", &sum.delay_table},
            {"trace", &sum.trace},
            {"unit_delays", &sum.unit_delays}};
        for (const auto& [name, c] : classes) {
            const double lookups = static_cast<double>(c->miss + c->served());
            report.metric(std::string("runtime.cache_hit_ratio.") + name,
                          lookups > 0 ? static_cast<double>(c->served()) / lookups : 0, 1);
            report.metric(std::string("runtime.cache_wait.") + name,
                          static_cast<double>(c->wait));
        }
        report.metric("runtime.build_retried", static_cast<double>(retried));

        // Serialization, spec parsing and engine overhead of the workload.
        std::vector<double> to_json_ms;
        std::size_t bytes = 0;
        for (int rep = 0; rep < 5; ++rep) {
            const auto start = Clock::now();
            bytes = 0;
            for (const auto& r : cold.results) bytes += focs::runtime::to_json(r, true).size();
            to_json_ms.push_back(ms_since(start));
        }
        report.metric("runtime.to_json_ms", median(to_json_ms), to_json_ms.size());
        report.metric("runtime.json_bytes", static_cast<double>(bytes));
        std::vector<double> parse_us;
        for (int rep = 0; rep < 50; ++rep) {
            const auto start = Clock::now();
            for (const auto& text : w.texts) SweepSpec::parse(text);
            parse_us.push_back(ms_since(start) * 1000.0);
        }
        report.metric("runtime.spec_parse_us", median(parse_us), parse_us.size());
    }
    std::vector<double> overhead;
    for (int rep = 0; rep < 3; ++rep) {
        const Pass again = run_pass(specs, 1, warm);
        double busy = 0;
        for (std::size_t i = 0; i < again.results.size(); ++i) {
            busy += column_busy_ms(again.results[i], generator_count(specs[i]));
        }
        overhead.push_back(again.wall_ms - busy);
    }
    report.metric("runtime.engine_overhead_ms", median(overhead), overhead.size());
    report.metric("core.replay_cycles_per_s.ideal",
                  replay_rate(specs, *warm, GeneratorSpec::Kind::kIdeal), 1);
    report.metric("core.replay_cycles_per_s.taps",
                  replay_rate(specs, *warm, GeneratorSpec::Kind::kQuantized), 1);
    report.metric("core.replay_cycles_per_s.pll",
                  replay_rate(specs, *warm, GeneratorSpec::Kind::kPllBank), 1);
    report.calibrate();
}

void timed_sweep(const Options& options, Report& report, const Workload& w) {
    // Set-up: parse the spec list and run one untimed cold pass, so lazy
    // process state (allocator arenas, page faults, code) is warm before
    // the timed passes. Repeated; setup_s is the median.
    std::vector<double> setup_s;
    std::vector<SweepSpec> specs;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const auto start = rep == 0 ? options.process_start : Clock::now();
        specs = w.specs();
        run_pass(specs, options.jobs, std::make_shared<ArtifactCache>());
        setup_s.push_back(ms_since(start) / 1000.0);
    }
    report.calibrate();

    const std::string expected = expected_digest(options, w.name);
    std::vector<double> cold_ms, warm_ms, speedups;
    std::vector<std::string> digests;
    std::shared_ptr<ArtifactCache> last_cache;
    Pass last_cold;
    const auto deadline = Clock::now() + std::chrono::duration<double>(options.seconds);
    for (int it = 0; it < 3 || Clock::now() < deadline; ++it) {
        // Only one iteration's artifacts are alive at a time, so the peak
        // resident set is that of one cold + warm pass.
        last_cache.reset();
        last_cold = {};
        auto cache = std::make_shared<ArtifactCache>();
        Pass cold = run_pass(specs, options.jobs, cache);
        const Pass warm = run_pass(specs, options.jobs, cache);
        cold_ms.push_back(cold.wall_ms);
        warm_ms.push_back(warm.wall_ms);
        // Outside the timed passes: what the checks after the run need.
        digests.push_back(digest(w, cold));
        digests.push_back(digest(w, warm));
        speedups.push_back(mean_lut_speedup(cold.results));
        for (const auto& r : cold.results) check_result(report, r, w.name + " cold pass");
        for (const auto& r : warm.results) check_result(report, r, w.name + " warm pass");
        last_cache = std::move(cache);
        last_cold = std::move(cold);
        report.calibrate();
    }

    report.metric("sweep_cold_ms", median(cold_ms), cold_ms.size());
    report.metric("sweep_warm_ms", median(warm_ms), warm_ms.size());
    report.metric("mean_speedup", speedups.front(), speedups.size());
    report.metric("setup_s", median(setup_s), setup_s.size());

    // Correctness gate, after every timed pass.
    if (expected.empty()) report.note(w.name + " has no stored digest; computed " + digests[0]);
    for (const auto& d : digests) {
        report.check(d == expected, w.name + " canonical digest " + d + " != stored " + expected);
    }
    report.check(std::all_of(speedups.begin(), speedups.end(),
                             [&](double s) { return s == speedups.front(); }),
                 "mean_speedup differs between iterations");
    check_live_oracle(report, specs, last_cold.results, last_cache, options.seed, kOracleCells);
}

}  // namespace

void run_sweep_cold(const Options& options, Report& report) {
    const Workload w = sweep_cold_workload();
    if (options.trace) {
        traced_sweep(options, report, w, "core");
    } else {
        timed_sweep(options, report, w);
    }
}

void run_design_space(const Options& options, Report& report) {
    const Workload w = design_space_workload(options.seed);
    if (options.trace) {
        traced_sweep(options, report, w, "dta");
    } else {
        timed_sweep(options, report, w);
    }
}

}  // namespace perfbench
