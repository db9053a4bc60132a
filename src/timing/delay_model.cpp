#include "timing/delay_model.hpp"

#include <bit>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "isa/isa_info.hpp"

namespace focs::timing {

namespace {

using isa::Opcode;
using isa::TimingFamily;
using sim::Stage;
using sim::StageView;

/// Length of the longest carry-propagation run for a + b (the dynamic
/// depth actually exercised in a ripple/carry-select adder).
int carry_chain_length(std::uint32_t a, std::uint32_t b) {
    const std::uint32_t sum = a + b;
    // Carry into bit i+1 was generated or propagated: standard identity.
    std::uint32_t carries = (a & b) | ((a | b) & ~sum);
    int longest = 0;
    while (carries != 0) {
        carries &= carries << 1;
        ++longest;
    }
    return longest;
}

/// Effective operand width (position of the highest set bit).
int bit_width(std::uint32_t v) { return 32 - std::countl_zero(v); }

/// Operand-driven excitation factor in [0, 1]; 0 excites the family's worst
/// path. Only the EX stage sees real operand values; other stages use a
/// neutral 0.5.
double data_factor(const StageView& view, Stage stage) {
    if (stage != Stage::kEx || !view.valid) return 0.5;
    const std::uint32_t a = view.operand_a;
    const std::uint32_t b = view.operand_b;
    switch (isa::timing_family(view.inst.opcode)) {
        case TimingFamily::kAdd:
        case TimingFamily::kCompare:
        case TimingFamily::kDiv:
            return 1.0 - carry_chain_length(a, b) / 32.0;
        case TimingFamily::kMul:
            return 1.0 - (bit_width(a) + bit_width(b)) / 64.0;
        case TimingFamily::kLogicAnd:
        case TimingFamily::kLogicOr:
        case TimingFamily::kLogicXor:
            return 1.0 - std::popcount(a ^ b) / 32.0;
        case TimingFamily::kShift:
            return 1.0 - (b & 31u) / 31.0;
        case TimingFamily::kLoad:
        case TimingFamily::kStore:
            return 1.0 - std::popcount((a + static_cast<std::uint32_t>(view.inst.imm)) & 0xffffu) / 16.0;
        case TimingFamily::kBranch:
            return 0.35;  // flag-path excitation varies little with data
        case TimingFamily::kJump:
        case TimingFamily::kMovhi:
        case TimingFamily::kNop:
            return 0.5;
        case TimingFamily::kCount: break;
    }
    return 0.5;
}

}  // namespace

int occupancy_class(const StageView& view) {
    if (!view.valid) return kBubbleClass;
    if (view.held) {
        // A held divider keeps its datapath iterating; everything else that
        // is held shows almost no switching activity.
        const TimingFamily family = isa::timing_family(view.inst.opcode);
        if (family == TimingFamily::kDiv) return static_cast<int>(TimingFamily::kDiv);
        return kHeldClass;
    }
    return static_cast<int>(isa::timing_family(view.inst.opcode));
}

int adr_occupancy_class(const sim::CycleRecord& record) {
    if (record.fetch_redirect && record.redirect_source != Opcode::kInvalid) {
        return static_cast<int>(isa::timing_family(record.redirect_source));
    }
    return occupancy_class(record.stage(Stage::kAdr));
}

std::string_view occupancy_class_name(int occupancy_class_index) {
    if (occupancy_class_index == kBubbleClass) return "bubble";
    if (occupancy_class_index == kHeldClass) return "held";
    return isa::timing_family_name(static_cast<isa::TimingFamily>(occupancy_class_index));
}

DelayCalculator::DelayCalculator(const DesignConfig& config, const CellLibrary& library)
    : config_(config), params_(&timing_params(config.variant)) {
    voltage_scale_ = library.delay_scale(config.voltage_v);
    static_period_ps_ = params_->static_period_ps * voltage_scale_;
    for (int s = 0; s < sim::kStageCount; ++s) {
        for (int c = 0; c < kOccupancyClasses; ++c) {
            band_lut_[static_cast<std::size_t>(s)][static_cast<std::size_t>(c)] =
                &params_->bands[static_cast<std::size_t>(s)][static_cast<std::size_t>(c)];
        }
    }
    for (int c = 0; c < kOccupancyClasses; ++c) {
        band_lut_[sim::kStageCount][static_cast<std::size_t>(c)] =
            &params_->adr_redirect[static_cast<std::size_t>(c)];
    }
}

double DelayCalculator::unit_band_delay(const DelayBand& band, const StageView& view, Stage stage,
                                        std::uint64_t cycle) const {
    // Deterministic jitter: a function of (seed, cycle, stage, pc) so a
    // rerun of the same program reproduces the exact same "measurement".
    const std::uint64_t key =
        splitmix64(config_.seed ^ (cycle * 0x9e37'79b9'7f4a'7c15ULL) ^
                   (static_cast<std::uint64_t>(stage) << 56) ^
                   (static_cast<std::uint64_t>(view.pc) << 20) ^ view.operand_a);
    // Squared jitter biases samples toward the band's worst case: within one
    // path group the near-critical path variants dominate dynamic excitation
    // (which is what makes per-instruction prediction attractive at all).
    const double uniform = hash_unit_double(key);
    const double jitter = uniform * uniform;
    const double mix = (1.0 - kDataMixWeight) * jitter + kDataMixWeight * data_factor(view, stage);
    return band.anchor_ps - band.spread_ps * mix;
}

double DelayCalculator::band_delay(const DelayBand& band, const StageView& view, Stage stage,
                                   std::uint64_t cycle) const {
    return unit_band_delay(band, view, stage, cycle) * voltage_scale_;
}

namespace {

/// Shared cycle loop of the two evaluators. `delay_of(band, view, stage)`
/// supplies the per-stage delay in the caller's domain (scaled or unit);
/// the per-stage max, tie attribution (earliest stage wins) and guard
/// epsilon therefore apply in that same domain. The 1e-9 ps slack windows
/// of the two domains differ by < 1e-9·|1 − 1/scale| ps — far below any
/// modeled margin; the guard only trips on calibration bugs.
template <typename DelayOf>
CycleDelays evaluate_cycle(const sim::CycleRecord& record,
                           const DelayCalculator& calculator, double static_limit_ps,
                           DelayOf&& delay_of) {
    CycleDelays out;
    double worst = 0;
    // Hoisted once per cycle instead of per stage; when it holds, the ADR
    // stage resolves to the redirect band row of the cache.
    const bool adr_redirect =
        record.fetch_redirect && record.redirect_source != Opcode::kInvalid;
    for (int s = 0; s < sim::kStageCount; ++s) {
        const auto stage = static_cast<Stage>(s);
        const StageView& view = record.stages[static_cast<std::size_t>(s)];
        const DelayBand* band;
        if (s == static_cast<int>(Stage::kAdr) && adr_redirect) {
            band = &calculator.band(DelayCalculator::kAdrRedirectRow,
                                    static_cast<int>(isa::timing_family(record.redirect_source)));
        } else {
            band = &calculator.band(s, occupancy_class(view));
        }
        const double delay = delay_of(*band, view, stage);
        out.stage_ps[static_cast<std::size_t>(s)] = delay;
        if (delay > worst) {
            worst = delay;
            out.limiting_stage = stage;
        }
    }
    out.required_period_ps = worst;
    // Not check(): that would build its message string per cycle, and this
    // runs once per simulated cycle in every characterization flow.
    if (worst > static_limit_ps + 1e-9) [[unlikely]] {
        throw Error("dynamic delay exceeded the static period");
    }
    return out;
}

}  // namespace

CycleDelays DelayCalculator::evaluate(const sim::CycleRecord& record) const {
    return evaluate_cycle(record, *this, static_period_ps_,
                          [&](const DelayBand& band, const StageView& view, Stage stage) {
                              return band_delay(band, view, stage, record.cycle);
                          });
}

CycleDelays DelayCalculator::evaluate_unit(const sim::CycleRecord& record) const {
    return evaluate_cycle(record, *this, params_->static_period_ps,
                          [&](const DelayBand& band, const StageView& view, Stage stage) {
                              return unit_band_delay(band, view, stage, record.cycle);
                          });
}

}  // namespace focs::timing
