// Clock generator tests: request/grant contracts of all CG models.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "clock/clock_generator.hpp"
#include "common/error.hpp"
#include "core/replay_kernels.hpp"
#include "timing/delay_model.hpp"
#include "timing/design_config.hpp"

namespace focs::clocking {
namespace {

TEST(Ideal, GrantsExactly) {
    IdealClockGenerator cg;
    EXPECT_DOUBLE_EQ(cg.grant_period_ps(1234.5), 1234.5);
}

TEST(Quantized, CeilsToNextTap) {
    QuantizedClockGenerator cg(1000.0, 2000.0, 11);  // taps every 100 ps
    EXPECT_DOUBLE_EQ(cg.grant_period_ps(1000.0), 1000.0);
    EXPECT_DOUBLE_EQ(cg.grant_period_ps(1001.0), 1100.0);
    EXPECT_DOUBLE_EQ(cg.grant_period_ps(1399.9), 1400.0);
    EXPECT_DOUBLE_EQ(cg.grant_period_ps(555.0), 1000.0);  // below range: slowest-safe tap
}

TEST(Quantized, BeyondSlowestTapStretches) {
    QuantizedClockGenerator cg(1000.0, 2000.0, 3);
    EXPECT_DOUBLE_EQ(cg.grant_period_ps(2500.0), 2500.0);
}

TEST(Quantized, NeverUnsafe) {
    QuantizedClockGenerator cg = QuantizedClockGenerator::for_static_period(2026.0, 16);
    for (double request = 900.0; request < 2300.0; request += 13.7) {
        EXPECT_GE(cg.grant_period_ps(request), request);
    }
}

TEST(Quantized, SingleTapDegeneratesToStatic) {
    QuantizedClockGenerator cg = QuantizedClockGenerator::for_static_period(2026.0, 1);
    EXPECT_DOUBLE_EQ(cg.grant_period_ps(1100.0), 2026.0);
}

TEST(Quantized, MoreTapsNeverWorse) {
    QuantizedClockGenerator coarse = QuantizedClockGenerator::for_static_period(2026.0, 4);
    QuantizedClockGenerator fine = QuantizedClockGenerator::for_static_period(2026.0, 64);
    for (double request = 1013.0; request <= 2026.0; request += 7.0) {
        EXPECT_LE(fine.grant_period_ps(request), coarse.grant_period_ps(request));
    }
}

TEST(Quantized, RejectsBadConfig) {
    EXPECT_THROW(QuantizedClockGenerator(0.0, 100.0, 4), Error);
    EXPECT_THROW(QuantizedClockGenerator(200.0, 100.0, 4), Error);
    EXPECT_THROW(QuantizedClockGenerator(100.0, 200.0, 0), Error);
}

/// Bitwise equality (distinguishes -0.0 and compares NaN payloads).
bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Asserts that the quantize kernel of the scalar table and of the SIMD
/// table (when this build and CPU have one), and quantize_grant itself,
/// grant exactly what per-call grant_period_ps (lower_bound) grants, bit
/// for bit, at block sizes 1, 3 and 4096. The requests sit on, one ulp
/// either side of, below and above every tap, plus 0, -0, NaN and ±inf.
/// quantize_grant is what replay uses to grant a table-driven policy's
/// per-tuple requests, so the last check is the tap-row contract.
void expect_quantize_matches_lower_bound(QuantizedClockGenerator& cg) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const std::vector<double>& taps = cg.taps();
    const double lo = taps.front();
    const double hi = taps.back();
    std::vector<double> requests = {0.0, -0.0, -1.0, 1e-300, 0.5 * lo, std::nextafter(lo, 0.0),
                                    std::numeric_limits<double>::quiet_NaN(), 2.0 * hi, -kInf};
    for (const double tap : taps) {
        requests.push_back(tap);
        requests.push_back(std::nextafter(tap, kInf));
        requests.push_back(std::nextafter(tap, -kInf));
    }
    requests.push_back(kInf);

    std::vector<double> grants(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) grants[i] = cg.grant_period_ps(requests[i]);
    const core::TapLadder ladder(cg);
    std::vector<const core::ReplayKernels*> tables = {&core::scalar_replay_kernels()};
    if (core::simd_replay_kernels() != nullptr) tables.push_back(core::simd_replay_kernels());

    for (const std::size_t block : {std::size_t{1}, std::size_t{3}, std::size_t{4096}}) {
        for (const core::ReplayKernels* kernels : tables) {
            SCOPED_TRACE(std::string(kernels->name) + " block " + std::to_string(block));
            std::vector<double> out(requests.size());
            for (std::size_t begin = 0; begin < requests.size(); begin += block) {
                const std::size_t n = std::min(block, requests.size() - begin);
                kernels->quantize(requests.data() + begin, ladder, n, out.data() + begin);
            }
            for (std::size_t i = 0; i < requests.size(); ++i) {
                ASSERT_TRUE(same_bits(out[i], grants[i]))
                    << "request " << requests[i] << ": " << out[i] << " vs " << grants[i];
            }
        }
    }
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const double grant = core::quantize_grant(ladder, requests[i]);
        EXPECT_TRUE(same_bits(grant, grants[i]))
            << "request " << requests[i] << ": " << grant << " vs " << grants[i];
    }
}

TEST(Quantized, GrantBlockMatchesLowerBoundBitForBit) {
    // The replay kernel computes the tap index from the equal spacing
    // instead of searching; it must still land on the very tap lower_bound
    // finds, including for requests sitting exactly on, or one ulp either
    // side of, a tap whose value the spacing arithmetic rounds.
    std::vector<double> statics = {2026.0, 1000.0, 1234.5678, 333.3};
    for (const double voltage : {0.60, 0.65, 0.70, 0.75, 0.80}) {  // sweep_cold grid
        timing::DesignConfig design;
        design.voltage_v = voltage;
        statics.push_back(timing::DelayCalculator(design).static_period_ps());
    }
    for (const double static_period : statics) {
        for (int num_taps = 1; num_taps <= 64; ++num_taps) {
            SCOPED_TRACE(std::to_string(static_period) + "/" + std::to_string(num_taps));
            QuantizedClockGenerator cg =
                QuantizedClockGenerator::for_static_period(static_period, num_taps);
            expect_quantize_matches_lower_bound(cg);
        }
    }
}

TEST(Quantized, GrantBlockMatchesLowerBoundOnDegenerateSpacing) {
    // A wide tap range, and one whose spacing is a fraction of an ulp: the
    // rounded taps repeat and the index estimate lands many taps off, so
    // the SIMD kernel's lane check fails and the quad is granted by the
    // scalar quantizer.
    const double lo = 1000.0;
    for (const double hi : {1e6, std::nextafter(lo, 2 * lo)}) {
        for (int num_taps = 1; num_taps <= 64; ++num_taps) {
            SCOPED_TRACE(std::to_string(hi) + "/" + std::to_string(num_taps));
            QuantizedClockGenerator cg(lo, hi, num_taps);
            expect_quantize_matches_lower_bound(cg);
        }
    }
}

TEST(Quantized, RejectsTapCountAboveBound) {
    // The bound is checked before the taps are allocated.
    EXPECT_THROW(QuantizedClockGenerator(1000.0, 2000.0, kMaxTaps + 1), Error);
    EXPECT_THROW(QuantizedClockGenerator::for_static_period(2000.0, kMaxTaps + 1), Error);
}

TEST(PllBank, GrantBlockCarriesDwellAcrossBlocks) {
    // One request stream, granted per call and in blocks of 1, 3 and 4096:
    // the dwell state must carry across block boundaries, and a reset()
    // partway through must re-arm both forms identically. The levels sit
    // between sources, exactly on each source, one ulp either side of it,
    // above the slowest source and at NaN, so the hold-run fast path meets
    // every edge of its periods_[current_ - 1] < r <= periods_[current_]
    // test.
    const std::vector<double> sources = {1000.0, 1300.0, 1500.0, 2000.0};
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> levels = {900.0, 1175.0, 1450.0, 1725.0, 2500.0, 1e9,
                                  std::numeric_limits<double>::quiet_NaN()};
    for (const double source : sources) {
        levels.push_back(source);
        levels.push_back(std::nextafter(source, -kInf));
        levels.push_back(std::nextafter(source, kInf));
    }
    std::vector<double> stream;
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 5000; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        // Runs of equal requests interleaved with jumps, so dwell gating
        // both holds back and releases speed-ups.
        const double level = levels[(state >> 33) % levels.size()];
        const int run = 1 + static_cast<int>((state >> 20) % 7);
        for (int r = 0; r < run; ++r) stream.push_back(level);
    }
    const std::size_t reset_at = stream.size() / 2 + 1;
    const auto make = [&] { return PllBankClockGenerator(sources, /*min_dwell_cycles=*/4); };
    std::vector<double> expected(stream.size());
    PllBankClockGenerator per_call = make();
    for (std::size_t i = 0; i < stream.size(); ++i) {
        if (i == reset_at) per_call.reset();
        expected[i] = per_call.grant_period_ps(stream[i]);
    }
    for (const std::size_t block : {std::size_t{1}, std::size_t{3}, std::size_t{4096}}) {
        SCOPED_TRACE(block);
        PllBankClockGenerator cg = make();
        std::vector<double> granted(stream.size());
        const auto grant_range = [&](std::size_t begin, std::size_t end) {
            for (std::size_t b = begin; b < end; b += block) {
                const std::size_t n = std::min(block, end - b);
                cg.grant_block(stream.data() + b, n, granted.data() + b);
            }
        };
        grant_range(0, reset_at);
        cg.reset();
        grant_range(reset_at, stream.size());
        EXPECT_EQ(0, std::memcmp(granted.data(), expected.data(),
                                 expected.size() * sizeof(double)));
    }
}

TEST(PllBank, RejectsNonFiniteOrNonPositivePeriods) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double bad : {nan, inf, -inf, 0.0, -0.0, -5.0}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(PllBankClockGenerator({bad}, 4), Error);
        EXPECT_THROW(PllBankClockGenerator({1300.0, bad, 1500.0}, 4), Error);
    }
}

TEST(ClockGenerator, DefaultGrantBlockLoopsOverPerCycleCall) {
    // A generator that only implements grant_period_ps still serves the
    // block call, in order, with its state carried between calls.
    class Counting final : public ClockGenerator {
    public:
        double grant_period_ps(double requested_ps) override { return requested_ps + calls_++; }
        void reset() override { calls_ = 0; }
        std::string name() const override { return "counting"; }

    private:
        int calls_ = 0;
    };
    Counting cg;
    const std::vector<double> requests = {10.0, 20.0, 30.0};
    std::vector<double> out(requests.size());
    cg.grant_block(requests.data(), requests.size(), out.data());
    EXPECT_EQ(out, (std::vector<double>{10.0, 21.0, 32.0}));
    cg.grant_block(requests.data(), 1, out.data());
    EXPECT_DOUBLE_EQ(out[0], 13.0);
}

TEST(PllBank, SlowingDownIsImmediate) {
    PllBankClockGenerator cg({1000.0, 1500.0, 2000.0}, /*min_dwell_cycles=*/4);
    EXPECT_DOUBLE_EQ(cg.grant_period_ps(900.0), 1000.0);
    // Request slower: granted immediately.
    EXPECT_DOUBLE_EQ(cg.grant_period_ps(1800.0), 2000.0);
}

TEST(PllBank, SpeedingUpWaitsForDwell) {
    PllBankClockGenerator cg({1000.0, 2000.0}, /*min_dwell_cycles=*/3);
    EXPECT_DOUBLE_EQ(cg.grant_period_ps(2000.0), 2000.0);  // start slow, dwell=1
    EXPECT_DOUBLE_EQ(cg.grant_period_ps(1000.0), 2000.0);  // dwell 2: still slow
    EXPECT_DOUBLE_EQ(cg.grant_period_ps(1000.0), 2000.0);  // dwell 3: still slow
    EXPECT_DOUBLE_EQ(cg.grant_period_ps(1000.0), 1000.0);  // dwell satisfied
}

TEST(PllBank, AlwaysSafeDuringDwell) {
    PllBankClockGenerator cg({1000.0, 1400.0, 2000.0}, 5);
    for (double request : {2000.0, 1000.0, 1200.0, 1900.0, 1000.0, 1000.0, 1000.0}) {
        EXPECT_GE(cg.grant_period_ps(request), request);
    }
}

TEST(PllBank, ResetRestoresInitialState) {
    PllBankClockGenerator cg({1000.0, 2000.0}, 8);
    (void)cg.grant_period_ps(2000.0);
    cg.reset();
    EXPECT_DOUBLE_EQ(cg.grant_period_ps(1000.0), 1000.0);  // fresh start picks fast source
}

TEST(Names, AreDescriptive) {
    EXPECT_EQ(IdealClockGenerator().name(), "ideal");
    EXPECT_NE(QuantizedClockGenerator(1, 2, 4).name().find("4-taps"), std::string::npos);
    EXPECT_NE(PllBankClockGenerator({1.0}, 0).name().find("1-sources"), std::string::npos);
}

}  // namespace
}  // namespace focs::clocking
