// Dynamic timing analysis tests: delay table, the gate-level-simulation
// observer, analyzer recovery of the model's per-cycle ground truth
// (including clock skew and setup handling), and the batched engine's
// byte identity with the per-cycle streaming path.
#include <gtest/gtest.h>

#include <algorithm>

#include "asm/assembler.hpp"
#include "common/error.hpp"
#include "dta/analyzer.hpp"
#include "dta/batch_engine.hpp"
#include "dta/delay_table.hpp"
#include "dta/gatesim.hpp"
#include "sim/machine.hpp"
#include "timing/delay_model.hpp"
#include "timing/netlist.hpp"
#include "workloads/kernel.hpp"

namespace focs::dta {
namespace {

using sim::Stage;

// ---- DelayTable -------------------------------------------------------------

TEST(DelayTable, FallbackToStatic) {
    DelayTable table(2026.0);
    EXPECT_FALSE(table.characterized(0, Stage::kEx));
    EXPECT_DOUBLE_EQ(table.lookup(0, Stage::kEx), 2026.0);
    table.set_characterized(0, Stage::kEx, 1467.0);
    EXPECT_TRUE(table.characterized(0, Stage::kEx));
    EXPECT_DOUBLE_EQ(table.lookup(0, Stage::kEx), 1467.0);
}

TEST(DelayTable, CyclePeriodIsMaxOverStages) {
    DelayTable table(2026.0);
    sim::CycleRecord record;
    for (int s = 0; s < sim::kStageCount; ++s) {
        record.stages[static_cast<std::size_t>(s)].valid = true;
        record.stages[static_cast<std::size_t>(s)].inst.opcode = isa::Opcode::kAdd;
        table.set_characterized(static_cast<OccKey>(isa::Opcode::kAdd), static_cast<Stage>(s),
                                800.0 + 100.0 * s);
    }
    EXPECT_DOUBLE_EQ(table.cycle_period_ps(record), 800.0 + 100.0 * (sim::kStageCount - 1));
}

TEST(DelayTable, ScaledByOneIsIdentity) {
    // Factor 1.0 must reproduce the table bit for bit: fl(x * 1.0) == x for
    // every finite x, so the nominal view of the nominal table is itself.
    DelayTable table(2026.0, 10.0);
    table.set_characterized(static_cast<OccKey>(isa::Opcode::kMul), Stage::kEx, 1899.25);
    table.set_characterized(kKeyBubble, Stage::kAdr, 612.5);
    const DelayTable view = table.scaled(1.0);
    EXPECT_EQ(view.static_period_ps(), table.static_period_ps());
    EXPECT_EQ(view.lut_guard_ps(), table.lut_guard_ps());
    for (int key = 0; key < kKeyCount; ++key) {
        for (int stage = 0; stage < sim::kStageCount; ++stage) {
            const auto k = static_cast<OccKey>(key);
            const auto s = static_cast<Stage>(stage);
            EXPECT_EQ(view.characterized(k, s), table.characterized(k, s));
            EXPECT_EQ(view.lookup(k, s), table.lookup(k, s));
            EXPECT_EQ(view.effective(k, s), table.effective(k, s));
        }
    }
}

TEST(DelayTable, ScaledKeepsUncharacterizedFallback) {
    // Uncharacterized entries fall back to the static period; in a scaled
    // view they must fall back to the SCALED static period, not the nominal
    // one (the operating point's STA limit moves with the voltage).
    DelayTable table(2000.0, 5.0);
    table.set_characterized(static_cast<OccKey>(isa::Opcode::kAdd), Stage::kEx, 900.0);
    const DelayTable view = table.scaled(1.5);
    EXPECT_FALSE(view.characterized(kKeyBubble, Stage::kWb));
    EXPECT_EQ(view.lookup(kKeyBubble, Stage::kWb), 2000.0 * 1.5);
    EXPECT_EQ(view.effective(kKeyBubble, Stage::kWb), 2000.0 * 1.5);
    // The characterized entry follows the scaling rule: the raw part
    // scales, the guard band does not.
    EXPECT_EQ(view.lookup(static_cast<OccKey>(isa::Opcode::kAdd), Stage::kEx),
              900.0 * 1.5 + 5.0);
}

TEST(DelayTable, ScaledReappliesStaticClampAtBandBoundary) {
    // An entry whose raw+guard exceeds the static period is clamped to the
    // static period; the scaled view clamps against the SCALED static
    // period. An entry just under the boundary stays unclamped, on both
    // sides of the view.
    DelayTable table(1000.0, 50.0);
    table.set_characterized(static_cast<OccKey>(isa::Opcode::kDiv), Stage::kEx, 980.0);
    table.set_characterized(static_cast<OccKey>(isa::Opcode::kAdd), Stage::kEx, 940.0);
    EXPECT_EQ(table.lookup(static_cast<OccKey>(isa::Opcode::kDiv), Stage::kEx), 1000.0);
    EXPECT_EQ(table.lookup(static_cast<OccKey>(isa::Opcode::kAdd), Stage::kEx), 990.0);
    const DelayTable up = table.scaled(2.0);
    // raw 980 * 2 + guard 50 = 2010 > static 2000 -> clamped.
    EXPECT_EQ(up.lookup(static_cast<OccKey>(isa::Opcode::kDiv), Stage::kEx), 2000.0);
    // raw 940 * 2 + guard 50 = 1930 < 2000 -> exact scaled value. Note the
    // guard band did NOT double: at nominal this entry sat at 990, a naive
    // finished-entry multiply would give 1980.
    EXPECT_EQ(up.lookup(static_cast<OccKey>(isa::Opcode::kAdd), Stage::kEx), 1930.0);
    // Shrinking the period can push a previously-unclamped entry into the
    // clamp: raw 940 * 0.5 + 50 = 520 > static 500.
    const DelayTable down = table.scaled(0.5);
    EXPECT_EQ(down.lookup(static_cast<OccKey>(isa::Opcode::kAdd), Stage::kEx), 500.0);
}

TEST(DelayTable, SerializeRoundTrip) {
    // The v2 text keeps every raw maximum at full precision: a round trip
    // reproduces the file byte for byte and every entry bit for bit.
    DelayTable table(2026.0, 12.5);
    table.set_characterized(static_cast<OccKey>(isa::Opcode::kMul), Stage::kEx, 5000.0 / 3.0);
    table.set_characterized(kKeyBubble, Stage::kAdr, 612.5);
    const std::string text = table.serialize();
    const DelayTable copy = DelayTable::deserialize(text);
    EXPECT_EQ(copy.serialize(), text);
    EXPECT_EQ(copy.lookup(static_cast<OccKey>(isa::Opcode::kMul), Stage::kEx),
              table.lookup(static_cast<OccKey>(isa::Opcode::kMul), Stage::kEx));
    EXPECT_EQ(copy.lookup(kKeyBubble, Stage::kAdr), 612.5 + 12.5);
    EXPECT_FALSE(copy.characterized(kKeyHeld, Stage::kWb));
}

TEST(DelayTable, DeserializeRejectsGarbage) {
    // `--lut` files come from outside the program: every defect is a
    // ParseError naming its line, never an internal check that leaks a
    // source path, a bare "stod", or a silently accepted value.
    const auto rejects = [](const std::string& text, const std::string& line) {
        SCOPED_TRACE(text);
        try {
            DelayTable::deserialize(text);
            ADD_FAILURE() << "accepted";
        } catch (const ParseError& error) {
            const std::string what = error.what();
            EXPECT_EQ(what.rfind(line + ":", 0), 0u) << what;
            EXPECT_EQ(what.find(".cpp:"), std::string::npos) << what;
        }
    };
    const std::string header = "delay_table v2 static_ps=2026 guard_ps=0\n";
    rejects("not a table\n", "line 1");
    rejects("delay_table v1 static_ps=2026\n", "line 1");
    rejects("delay_table v1 static_ps=2026\n3 2 100\n", "line 1");
    rejects("delay_table v2 static_ps=abc guard_ps=0\n", "line 1");
    rejects("delay_table v2 static_ps=nan guard_ps=0\n", "line 1");
    rejects("delay_table v2 static_ps=0 guard_ps=0\n", "line 1");
    rejects("delay_table v2 static_ps=2026 guard_ps=-4\n", "line 1");
    rejects("delay_table v2 static_ps=2026 guard_ps=inf\n", "line 1");
    rejects("delay_table v2 static_ps=2026x guard_ps=0\n", "line 1");
    rejects(header + "999 0 100\n", "line 2");
    rejects(header + "3 2\n", "line 2");
    rejects(header + "3 2 100\n3 2 xyz\n", "line 3");
    rejects(header + "3 2 1e400\n", "line 2");
    rejects(header + "3 2 0\n", "line 2");
    rejects(header + "3 2 -5\n", "line 2");
    rejects(header + "3 2 100\n\n3 2 100\n", "line 4");
    EXPECT_NO_THROW(DelayTable::deserialize(header + "3 2 100\n3 3 100\n"));
}

TEST(Keys, BubbleHeldAndRedirectAttribution) {
    sim::StageView bubble;
    EXPECT_EQ(key_of(bubble), kKeyBubble);
    sim::StageView add;
    add.valid = true;
    add.inst.opcode = isa::Opcode::kAdd;
    EXPECT_EQ(key_of(add), static_cast<OccKey>(isa::Opcode::kAdd));
    add.held = true;
    EXPECT_EQ(key_of(add), kKeyHeld);

    sim::CycleRecord record;
    record.stages[static_cast<std::size_t>(Stage::kAdr)] = bubble;
    record.fetch_redirect = true;
    record.redirect_source = isa::Opcode::kJ;
    const auto keys = attribution_keys(record);
    EXPECT_EQ(keys[static_cast<std::size_t>(Stage::kAdr)], static_cast<OccKey>(isa::Opcode::kJ));
}

TEST(Keys, Names) {
    EXPECT_EQ(key_name(kKeyBubble), "<bubble>");
    EXPECT_EQ(key_name(kKeyHeld), "<held>");
    EXPECT_EQ(key_name(static_cast<OccKey>(isa::Opcode::kMul)), "l.mul");
}

// ---- Gate-level simulation + analyzer -----------------------------------------

/// Per-cycle ground truth of a gate-level run: the timing model's per-stage
/// delays and the occupancy attribution, straight from the cycle records.
struct GroundTruth {
    std::vector<std::array<OccKey, sim::kStageCount>> keys;
    std::vector<std::array<double, sim::kStageCount>> stage_ps;
};

/// Fan-out observer: records each cycle's ground truth, then forwards the
/// cycle to a streaming GateLevelSimulation that feeds `sink`. The analyzer
/// only ever sees the endpoint events, so comparing its accumulators with
/// the recorded truth checks the whole event-level recovery.
class GroundTruthTap final : public sim::PipelineObserver {
public:
    GroundTruthTap(const timing::SyntheticNetlist& netlist,
                   const timing::DelayCalculator& calculator, EventSink& sink, GroundTruth& truth)
        : calculator_(calculator), gatesim_(netlist, calculator, sink), truth_(truth) {}

    void on_cycle(const sim::CycleRecord& record) override {
        truth_.stage_ps.push_back(calculator_.evaluate(record).stage_ps);
        truth_.keys.push_back(attribution_keys(record));
        gatesim_.on_cycle(record);
    }

    std::uint64_t cycles_observed() const { return gatesim_.cycles_observed(); }

private:
    const timing::DelayCalculator& calculator_;
    GateLevelSimulation gatesim_;
    GroundTruth& truth_;
};

AnalyzerConfig default_config() {
    AnalyzerConfig config;
    config.static_period_ps = timing::DelayCalculator({}).static_period_ps();
    return config;
}

const PipelineSpec& default_spec() {
    static const PipelineSpec spec = PipelineSpec::from_netlist(timing::SyntheticNetlist::generate({}));
    return spec;
}

/// Runs `kernels` back to back through the streaming gate-level simulation
/// into `analysis` (one analyzer chained over every program, as
/// CharacterizationFlow's streaming mode does) and returns the ground truth
/// of the concatenated cycle stream.
GroundTruth run_gatesim(const std::vector<const char*>& kernels, DynamicTimingAnalysis& analysis) {
    const timing::DesignConfig design;
    static const auto netlist = timing::SyntheticNetlist::generate({});
    const timing::DelayCalculator calculator(design);
    GroundTruth truth;
    for (const char* kernel : kernels) {
        const std::size_t before = truth.stage_ps.size();
        sim::Machine machine;
        machine.load(assembler::assemble(workloads::find_kernel(kernel).source));
        GroundTruthTap tap(netlist, calculator, analysis, truth);
        machine.run(&tap);
        EXPECT_GT(tap.cycles_observed(), 0u);
        EXPECT_EQ(tap.cycles_observed(), truth.stage_ps.size() - before);
    }
    return truth;
}

/// Bit-exact histogram comparison: same binning, counts and sample stats.
void expect_identical_histograms(const Histogram& a, const Histogram& b) {
    ASSERT_EQ(a.bins(), b.bins());
    ASSERT_EQ(a.lo(), b.lo());
    ASSERT_EQ(a.hi(), b.hi());
    for (int bin = 0; bin < a.bins(); ++bin) ASSERT_EQ(a.count(bin), b.count(bin)) << bin;
    ASSERT_EQ(a.total(), b.total());
    ASSERT_EQ(a.stats().mean(), b.stats().mean());
    ASSERT_EQ(a.stats().min(), b.stats().min());
    ASSERT_EQ(a.stats().max(), b.stats().max());
}

/// Rebuilds every accumulator the analyzer exposes directly from the
/// ground truth, in cycle order, and requires the analyzer's values to be
/// bit-identical: events carry each endpoint's required period, so the
/// per-stage recovery must be an exact identity (the nominal-once
/// characterization rests on this exactness).
void expect_recovers_ground_truth(const DynamicTimingAnalysis& analysis,
                                  const GroundTruth& truth) {
    const double static_ps = default_config().static_period_ps;
    ASSERT_EQ(analysis.cycles(), truth.stage_ps.size());
    std::array<std::array<KeyStageStats, sim::kStageCount>, kKeyCount> key_stats{};
    std::array<std::uint64_t, sim::kStageCount> limiting{};
    RunningStats genie;
    Histogram genie_hist(0.0, static_ps * 1.02, kStreamingFigureBins);
    std::vector<Histogram> stage_hists(sim::kStageCount,
                                       Histogram(0.0, static_ps * 1.02, kStreamingFigureBins));
    for (std::size_t c = 0; c < truth.stage_ps.size(); ++c) {
        const auto& delays = truth.stage_ps[c];
        const auto worst = std::max_element(delays.begin(), delays.end());
        ++limiting[static_cast<std::size_t>(worst - delays.begin())];
        genie.add(*worst);
        genie_hist.add(*worst);
        for (std::size_t s = 0; s < delays.size(); ++s) {
            auto& ks = key_stats[static_cast<std::size_t>(truth.keys[c][s])][s];
            ++ks.occurrences;
            ks.max_ps = std::max(ks.max_ps, delays[s]);
            ks.stats.add(delays[s]);
            stage_hists[s].add(delays[s]);
        }
    }

    for (OccKey key = 0; key < kKeyCount; ++key) {
        for (int s = 0; s < sim::kStageCount; ++s) {
            SCOPED_TRACE("key " + std::string(key_name(key)) + " stage " + std::to_string(s));
            const auto& got = analysis.stats(key, static_cast<Stage>(s));
            const auto& want = key_stats[static_cast<std::size_t>(key)][static_cast<std::size_t>(s)];
            ASSERT_EQ(got.occurrences, want.occurrences);
            ASSERT_EQ(got.max_ps, want.max_ps);
            ASSERT_EQ(got.stats.mean(), want.stats.mean());
            ASSERT_EQ(got.stats.min(), want.stats.min());
            ASSERT_EQ(got.stats.max(), want.stats.max());
        }
    }
    EXPECT_EQ(analysis.limiting_stage_counts(), limiting);
    EXPECT_EQ(analysis.genie_mean_period_ps(), genie.mean());
    expect_identical_histograms(analysis.genie_histogram(kStreamingFigureBins), genie_hist);
    for (int s = 0; s < sim::kStageCount; ++s) {
        SCOPED_TRACE("stage " + std::to_string(s));
        expect_identical_histograms(
            analysis.stage_histogram(static_cast<Stage>(s), kStreamingFigureBins),
            stage_hists[static_cast<std::size_t>(s)]);
    }
}

TEST(Analyzer, RecoversReferenceDelaysExactly) {
    DynamicTimingAnalysis analysis(default_spec(), default_config());
    const GroundTruth truth = run_gatesim({"crc32"}, analysis);
    expect_recovers_ground_truth(analysis, truth);
}

TEST(Analyzer, LutDominatesEveryObservation) {
    DynamicTimingAnalysis analysis(default_spec(), default_config());
    const GroundTruth truth = run_gatesim({"fir"}, analysis);
    const DelayTable table = analysis.build_delay_table();
    for (std::size_t c = 0; c < truth.stage_ps.size(); ++c) {
        for (int s = 0; s < sim::kStageCount; ++s) {
            const double lut = table.lookup(truth.keys[c][static_cast<std::size_t>(s)],
                                            static_cast<Stage>(s));
            EXPECT_GE(lut + 1e-9, truth.stage_ps[c][static_cast<std::size_t>(s)])
                << "cycle " << c << " stage " << s;
        }
    }
}

TEST(Analyzer, EntriesNeverExceedStatic) {
    const AnalyzerConfig config = default_config();
    DynamicTimingAnalysis analysis(default_spec(), config);
    run_gatesim({"char_mul_div"}, analysis);
    const DelayTable table = analysis.build_delay_table();
    for (OccKey key = 0; key < kKeyCount; ++key) {
        for (int s = 0; s < sim::kStageCount; ++s) {
            EXPECT_LE(table.lookup(key, static_cast<Stage>(s)), config.static_period_ps + 1e-9);
        }
    }
}

TEST(Analyzer, MinOccurrencesFallsBackToStatic) {
    AnalyzerConfig config = default_config();
    config.min_occurrences = 1 << 30;  // nothing qualifies
    DynamicTimingAnalysis analysis(default_spec(), config);
    run_gatesim({"fibcall"}, analysis);
    const DelayTable table = analysis.build_delay_table();
    for (OccKey key = 0; key < kKeyCount; ++key) {
        for (int s = 0; s < sim::kStageCount; ++s) {
            EXPECT_FALSE(table.characterized(key, static_cast<Stage>(s)));
        }
    }
}

TEST(Analyzer, GenieMeanBelowStatic) {
    const AnalyzerConfig config = default_config();
    DynamicTimingAnalysis analysis(default_spec(), config);
    run_gatesim({"bubblesort"}, analysis);
    EXPECT_GT(analysis.genie_mean_period_ps(), 0.0);
    EXPECT_LT(analysis.genie_mean_period_ps(), config.static_period_ps);
    // The histogram of per-cycle maxima agrees with the mean accessor.
    EXPECT_NEAR(analysis.genie_histogram().stats().mean(), analysis.genie_mean_period_ps(), 1e-6);
}

TEST(Analyzer, LimitingStageCountsSumToCycles) {
    DynamicTimingAnalysis analysis(default_spec(), default_config());
    run_gatesim({"matmult"}, analysis);
    std::uint64_t total = 0;
    for (const auto count : analysis.limiting_stage_counts()) total += count;
    EXPECT_EQ(total, analysis.cycles());
}

// ---- Streaming (EventSink) ingestion ----------------------------------------

TEST(StreamingAnalyzer, ChainedProgramsRecoverConcatenatedGroundTruth) {
    // Three kernels through ONE streaming analyzer: the accumulators must
    // match the ground truth of the concatenated cycle stream bit for bit,
    // and the coarse figure views must agree with the exact statistics.
    DynamicTimingAnalysis streaming(default_spec(), default_config());
    const GroundTruth truth = run_gatesim({"crc32", "fir", "bubblesort"}, streaming);
    expect_recovers_ground_truth(streaming, truth);
    const Histogram genie = streaming.genie_histogram(40);
    EXPECT_EQ(genie.total(), streaming.cycles());
    EXPECT_NEAR(genie.stats().mean(), streaming.genie_mean_period_ps(), 1e-9);
}

// ---- Batched characterization engine ----------------------------------------

/// Runs `kernels` through ONE batched engine (threads/batch from `options`)
/// chained over all programs, exactly like CharacterizationFlow does.
void run_batched(const std::vector<const char*>& kernels, DynamicTimingAnalysis& analysis,
                 BatchOptions options) {
    const timing::DesignConfig design;
    static const auto netlist = timing::SyntheticNetlist::generate({});
    const timing::DelayCalculator calculator(design);
    BatchCharacterizationEngine engine(netlist, calculator, analysis, options);
    for (const char* kernel : kernels) {
        sim::Machine machine;
        machine.load(assembler::assemble(workloads::find_kernel(kernel).source));
        machine.run(&engine);
    }
    engine.finish();
    EXPECT_EQ(engine.cycles_observed(), analysis.cycles());
}

TEST(BatchedCharacterization, ByteIdenticalAcrossWorkersAndBatchBoundaries) {
    AnalyzerConfig config;
    config.static_period_ps = timing::DelayCalculator({}).static_period_ps();
    const auto spec = PipelineSpec::from_netlist(timing::SyntheticNetlist::generate({}));
    const std::vector<const char*> kernels = {"crc32", "fir", "bubblesort"};

    // Serial streaming reference: the per-cycle EventSink path.
    DynamicTimingAnalysis streaming(spec, config);
    run_gatesim(kernels, streaming);
    const std::string reference_table = streaming.build_delay_table().serialize();

    // Worker counts around the shard edges (1 = inline serial kernel, 8 >
    // stages) and batch sizes hitting odd block boundaries: every cycle its
    // own slot, non-divisor slot sizes, and one slot larger than the whole
    // run (flush-only path).
    const BatchOptions configs[] = {
        {.threads = 1, .batch_cycles = 1},      {.threads = 1, .batch_cycles = 7},
        {.threads = 1, .batch_cycles = 1024},   {.threads = 2, .batch_cycles = 64},
        {.threads = 2, .batch_cycles = 100000}, {.threads = 8, .batch_cycles = 257},
    };
    for (const BatchOptions& options : configs) {
        SCOPED_TRACE(std::to_string(options.threads) + " workers, batch " +
                     std::to_string(options.batch_cycles));
        DynamicTimingAnalysis batched(spec, config);
        run_batched(kernels, batched, options);

        EXPECT_EQ(batched.cycles(), streaming.cycles());
        EXPECT_EQ(batched.build_delay_table().serialize(), reference_table);
        EXPECT_DOUBLE_EQ(batched.genie_mean_period_ps(), streaming.genie_mean_period_ps());
        EXPECT_EQ(batched.limiting_stage_counts(), streaming.limiting_stage_counts());
        expect_identical_histograms(batched.genie_histogram(40), streaming.genie_histogram(40));
        for (int s = 0; s < sim::kStageCount; ++s) {
            const auto stage = static_cast<Stage>(s);
            expect_identical_histograms(batched.stage_histogram(stage, 50),
                                        streaming.stage_histogram(stage, 50));
        }
        for (OccKey key = 0; key < kKeyCount; ++key) {
            for (int s = 0; s < sim::kStageCount; ++s) {
                const auto stage = static_cast<Stage>(s);
                const auto& a = batched.stats(key, stage);
                const auto& b = streaming.stats(key, stage);
                ASSERT_EQ(a.occurrences, b.occurrences);
                ASSERT_DOUBLE_EQ(a.max_ps, b.max_ps);
                // The deterministic reservoir retains identical samples, so
                // even the per-(instruction, stage) histograms match.
                if (a.occurrences > 0) {
                    expect_identical_histograms(batched.key_stage_histogram(key, stage),
                                                streaming.key_stage_histogram(key, stage));
                }
            }
        }
    }
}

TEST(BatchedCharacterization, RejectsUseAfterFinish) {
    AnalyzerConfig config;
    config.static_period_ps = timing::DelayCalculator({}).static_period_ps();
    DynamicTimingAnalysis analysis(PipelineSpec::from_netlist(timing::SyntheticNetlist::generate({})),
                                   config);
    run_batched({"fibcall"}, analysis, {.threads = 2, .batch_cycles = 32});

    const timing::DesignConfig design;
    static const auto netlist = timing::SyntheticNetlist::generate({});
    const timing::DelayCalculator calculator(design);
    BatchCharacterizationEngine engine(netlist, calculator, analysis, {});
    engine.finish();
    EXPECT_THROW(engine.on_cycle(sim::CycleRecord{}), Error);
    engine.finish();  // idempotent
}

TEST(Analyzer, SampleCapBoundsHistogramMemory) {
    AnalyzerConfig config = default_config();
    config.sample_cap = 16;
    DynamicTimingAnalysis analysis(default_spec(), config);
    run_gatesim({"crc32"}, analysis);
    // Stats see every occurrence; the raw-sample histogram is truncated to
    // the cap (bubble slots occur in thousands of cycles).
    EXPECT_GT(analysis.stats(kKeyBubble, Stage::kEx).occurrences, 16u);
    EXPECT_EQ(analysis.key_stage_histogram(kKeyBubble, Stage::kEx).total(), 16u);
}

TEST(Analyzer, StageHistogramsMatchPerCycleData) {
    DynamicTimingAnalysis analysis(default_spec(), default_config());
    run_gatesim({"bsearch"}, analysis);
    for (int s = 0; s < sim::kStageCount; ++s) {
        const auto stage = static_cast<Stage>(s);
        const Histogram h = analysis.stage_histogram(stage);
        EXPECT_EQ(h.total(), analysis.cycles()) << s;
        // The EX stage must carry by far the largest mean (paper Fig. 6).
        if (stage != Stage::kEx) {
            EXPECT_LT(h.stats().mean(),
                      analysis.stage_histogram(Stage::kEx).stats().mean())
                << s;
        }
    }
}

TEST(Analyzer, MulHistogramShowsExSpread) {
    DynamicTimingAnalysis analysis(default_spec(), default_config());
    run_gatesim({"fir"}, analysis);  // multiplier heavy
    const auto mul_key = static_cast<OccKey>(isa::Opcode::kMul);
    const auto& ex_stats = analysis.stats(mul_key, Stage::kEx);
    ASSERT_GT(ex_stats.occurrences, 100u);
    // EX delays for l.mul sit far above its other stages (paper Fig. 7).
    EXPECT_GT(ex_stats.stats.mean(), analysis.stats(mul_key, Stage::kFe).stats.mean() + 400.0);
    EXPECT_GT(ex_stats.stats.mean(), analysis.stats(mul_key, Stage::kWb).stats.mean() + 400.0);
}

}  // namespace
}  // namespace focs::dta
