#include "core/policies.hpp"

#include <algorithm>
#include <cstdio>

#include "common/error.hpp"
#include "isa/isa_info.hpp"

namespace focs::core {

using dta::DelayTable;
using dta::OccKey;
using sim::Stage;

StaticClockPolicy::StaticClockPolicy(double static_period_ps)
    : static_period_ps_(static_period_ps) {
    check(static_period_ps > 0, "static period must be positive");
}

double StaticClockPolicy::requested_period_ps(const PolicyContext&) {
    return static_period_ps_;
}

double GenieOraclePolicy::requested_period_ps(const PolicyContext& context) {
    return context.actual.required_period_ps;
}

InstructionLutPolicy::InstructionLutPolicy(const DelayTable& table, double margin_ps)
    : table_(&table), margin_ps_(margin_ps) {
    check(margin_ps >= 0, "negative safety margin");
}

double InstructionLutPolicy::requested_period_ps(const PolicyContext& context) {
    // Fused attribution + lookup: this runs once per simulated cycle and is
    // the per-cycle cost the paper's controller would pay in hardware.
    return table_->cycle_period_ps(context.record) + margin_ps_;
}

ExOnlyPolicy::ExOnlyPolicy(const DelayTable& table) : table_(&table) {
    double floor = 0;
    for (OccKey key = 0; key < dta::kKeyCount; ++key) {
        for (int s = 0; s < sim::kStageCount; ++s) {
            const auto stage = static_cast<Stage>(s);
            if (stage == Stage::kEx) continue;
            if (!table.characterized(key, stage)) continue;
            floor = std::max(floor, table.lookup(key, stage));
        }
    }
    check(floor > 0, "delay table has no non-EX entries to build the floor from");
    floor_ps_ = floor;
}

double ExOnlyPolicy::requested_period_ps(const PolicyContext& context) {
    const auto keys = dta::attribution_keys(context.record);
    const double ex =
        table_->lookup(keys[static_cast<std::size_t>(Stage::kEx)], Stage::kEx);
    return std::max(ex, floor_ps_);
}

bool TwoClassPolicy::is_slow_key(OccKey key) {
    if (key == dta::kKeyBubble || key == dta::kKeyHeld) return false;
    const auto family = isa::timing_family(static_cast<isa::Opcode>(key));
    return family == isa::TimingFamily::kMul || family == isa::TimingFamily::kDiv;
}

TwoClassPolicy::TwoClassPolicy(const DelayTable& table) : table_(&table) {
    // The single fast-class period covers the worst *characterized* entry
    // of every fast-class instruction across all stages. Cycles containing
    // any uncharacterized (key, stage) pair are treated as slow at run
    // time, so characterization gaps can never become unsafe.
    double fast = 0;
    for (OccKey key = 0; key < dta::kKeyCount; ++key) {
        if (is_slow_key(key)) continue;
        for (int s = 0; s < sim::kStageCount; ++s) {
            const auto stage = static_cast<Stage>(s);
            if (table.characterized(key, stage)) {
                fast = std::max(fast, table.lookup(key, stage));
            }
        }
    }
    fast_period_ps_ = fast > 0 ? fast : table.static_period_ps();
}

double TwoClassPolicy::requested_period_ps(const PolicyContext& context) {
    const auto keys = dta::attribution_keys(context.record);
    for (int s = 0; s < sim::kStageCount; ++s) {
        const OccKey key = keys[static_cast<std::size_t>(s)];
        if (is_slow_key(key) || !table_->characterized(key, static_cast<Stage>(s))) {
            return table_->static_period_ps();
        }
    }
    return fast_period_ps_;
}

DualCyclePolicy::DualCyclePolicy(const DelayTable& table, double stretch)
    : table_(&table), stretch_(stretch) {
    check(stretch >= 1.0, "dual-cycle stretch must be >= 1");
    // The fast period covers every characterized non-critical entry; the
    // stretched period must cover the critical class and the
    // uncharacterized static fallback, or the scheme degenerates safely to
    // the fallback.
    double fast = 0;
    for (OccKey key = 0; key < dta::kKeyCount; ++key) {
        if (TwoClassPolicy::is_slow_key(key)) continue;
        for (int s = 0; s < sim::kStageCount; ++s) {
            const auto stage = static_cast<Stage>(s);
            if (table.characterized(key, stage)) {
                fast = std::max(fast, table.lookup(key, stage));
            }
        }
    }
    fast_period_ps_ = fast > 0 ? fast : table.static_period_ps();
    // `stretch` fast cycles must cover the static limit so stretched cycles
    // and fallback cases stay safe.
    fast_period_ps_ = std::max(fast_period_ps_, table.static_period_ps() / stretch_);
}

double DualCyclePolicy::requested_period_ps(const PolicyContext& context) {
    const auto keys = dta::attribution_keys(context.record);
    for (int s = 0; s < sim::kStageCount; ++s) {
        const OccKey key = keys[static_cast<std::size_t>(s)];
        if (TwoClassPolicy::is_slow_key(key) ||
            !table_->characterized(key, static_cast<Stage>(s))) {
            return stretch_ * fast_period_ps_;  // occasional stretched cycle
        }
    }
    return fast_period_ps_;
}

std::string DualCyclePolicy::name() const {
    if (stretch_ == kDualCycleKindStretch) return "dual-cycle";
    char buf[48];
    std::snprintf(buf, sizeof buf, "dual-cycle/%.2f", stretch_);
    return buf;
}

ApproximateLutPolicy::ApproximateLutPolicy(const DelayTable& table, double scale)
    : table_(&table), scale_(scale) {
    check(scale > 0 && scale <= 1.0, "approximation scale must be in (0, 1]");
}

double ApproximateLutPolicy::requested_period_ps(const PolicyContext& context) {
    return table_->cycle_period_ps(context.record) * scale_;
}

std::string ApproximateLutPolicy::name() const {
    char buf[48];
    std::snprintf(buf, sizeof buf, "approx-lut/%.2f", scale_);
    return buf;
}

double PolicySpec::resolved_param() const {
    if (param >= 0) return param;
    switch (kind) {
        case PolicyKind::kApproxLut: return kApproxLutKindScale;
        case PolicyKind::kDualCycle: return kDualCycleKindStretch;
        default: return param;
    }
}

namespace {

/// Shortest decimal that round-trips to `value` exactly (tries increasing
/// "%.*g" precision, 1..17). Keeps explicit policy parameters readable in
/// labels and canonical spec text ("0.8", not "0.80000000000000004") while
/// staying lossless.
std::string format_param(double value) {
    char buf[64];
    for (int precision = 1; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof buf, "%.*g", precision, value);
        if (std::stod(buf) == value) break;
    }
    return buf;
}

/// The default parameter of a kind, or -1 when the kind takes none.
double kind_default_param(PolicyKind kind) {
    return PolicySpec{kind}.resolved_param();
}

}  // namespace

std::string PolicySpec::label() const {
    std::string text = policy_kind_name(kind);
    if (param >= 0 && param != kind_default_param(kind)) {
        text += ':' + format_param(param);
    }
    return text;
}

PolicySpec PolicySpec::parse(const std::string& text) {
    const auto colon = text.find(':');
    PolicySpec spec;
    spec.kind = parse_policy_kind(colon == std::string::npos ? text : text.substr(0, colon));
    if (colon == std::string::npos) return spec;
    if (spec.kind != PolicyKind::kApproxLut && spec.kind != PolicyKind::kDualCycle) {
        throw Error("policy '" + text + "': only approx-lut and dual-cycle take a parameter");
    }
    const std::string param_text = text.substr(colon + 1);
    double param = 0;
    try {
        std::size_t pos = 0;
        param = std::stod(param_text, &pos);
        if (pos != param_text.size()) {
            throw Error("policy '" + text + "': trailing characters in parameter");
        }
    } catch (const std::invalid_argument&) {
        throw Error("policy '" + text + "': malformed parameter '" + param_text + "'");
    } catch (const std::out_of_range&) {
        throw Error("policy '" + text + "': parameter out of range");
    }
    if (spec.kind == PolicyKind::kApproxLut && !(param > 0 && param <= 1.0)) {
        throw Error("policy '" + text + "': approx-lut scale must be in (0, 1]");
    }
    if (spec.kind == PolicyKind::kDualCycle && !(param >= 1.0)) {
        throw Error("policy '" + text + "': dual-cycle stretch must be >= 1");
    }
    // Normalize a spelled-out default back to "no parameter" so equal grids
    // compare, hash and serialize identically.
    spec.param = param == kind_default_param(spec.kind) ? -1 : param;
    return spec;
}

std::unique_ptr<ClockPolicy> make_policy(PolicyKind kind, const DelayTable& table,
                                         double static_period_ps) {
    return make_policy(PolicySpec{kind}, table, static_period_ps);
}

std::unique_ptr<ClockPolicy> make_policy(const PolicySpec& spec, const DelayTable& table,
                                         double static_period_ps) {
    switch (spec.kind) {
        case PolicyKind::kStatic: return std::make_unique<StaticClockPolicy>(static_period_ps);
        case PolicyKind::kGenie: return std::make_unique<GenieOraclePolicy>();
        case PolicyKind::kInstructionLut: return std::make_unique<InstructionLutPolicy>(table);
        case PolicyKind::kExOnly: return std::make_unique<ExOnlyPolicy>(table);
        case PolicyKind::kTwoClass: return std::make_unique<TwoClassPolicy>(table);
        case PolicyKind::kApproxLut:
            return std::make_unique<ApproximateLutPolicy>(table, spec.resolved_param());
        case PolicyKind::kDualCycle:
            return std::make_unique<DualCyclePolicy>(table, spec.resolved_param());
    }
    check(false, "unknown policy kind");
    return nullptr;
}

std::string policy_kind_name(PolicyKind kind) {
    switch (kind) {
        case PolicyKind::kStatic: return "static";
        case PolicyKind::kGenie: return "genie";
        case PolicyKind::kInstructionLut: return "lut";
        case PolicyKind::kExOnly: return "ex-only";
        case PolicyKind::kTwoClass: return "two-class";
        case PolicyKind::kApproxLut: return "approx-lut";
        case PolicyKind::kDualCycle: return "dual-cycle";
    }
    check(false, "unknown policy kind");
    return {};
}

PolicyKind parse_policy_kind(const std::string& name) {
    if (name == "static") return PolicyKind::kStatic;
    if (name == "two-class") return PolicyKind::kTwoClass;
    if (name == "ex-only") return PolicyKind::kExOnly;
    if (name == "lut") return PolicyKind::kInstructionLut;
    if (name == "genie") return PolicyKind::kGenie;
    if (name == "approx-lut") return PolicyKind::kApproxLut;
    if (name == "dual-cycle") return PolicyKind::kDualCycle;
    throw Error("unknown policy '" + name +
                "' (static|two-class|ex-only|lut|genie|approx-lut|dual-cycle)");
}

}  // namespace focs::core
