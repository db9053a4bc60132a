#include "runtime/sweep_spec.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "workloads/kernel.hpp"

namespace focs::runtime {

namespace {

std::string format_double(double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

double parse_double(const std::string& text) {
    try {
        std::size_t pos = 0;
        const double value = std::stod(text, &pos);
        if (pos != text.size()) throw Error("trailing characters in number '" + text + "'");
        return value;
    } catch (const std::invalid_argument&) {
        throw Error("malformed number '" + text + "' in sweep spec");
    } catch (const std::out_of_range&) {
        throw Error("number out of range '" + text + "' in sweep spec");
    }
}

/// An integer field in [min, max]; nullopt when malformed or out of range
/// (never narrowed).
std::optional<int> parse_bounded_int(const std::string& text, int min,
                                     int max = std::numeric_limits<int>::max()) {
    const auto n = parse_int(text);
    if (!n || *n < min || *n > max) return std::nullopt;
    return static_cast<int>(*n);
}

std::vector<std::string> split_list(const std::string& value) {
    std::vector<std::string> items;
    for (const auto& piece : split(value, ',')) {
        if (!piece.empty()) items.push_back(piece);
    }
    return items;
}

}  // namespace

std::string GeneratorSpec::label() const {
    switch (kind) {
        case Kind::kIdeal: return "ideal";
        case Kind::kQuantized: return "taps:" + std::to_string(num_taps);
        case Kind::kPllBank: {
            std::string label = "pll:";
            for (std::size_t i = 0; i < periods_ps.size(); ++i) {
                if (i > 0) label += '/';
                label += format_double(periods_ps[i]);
            }
            label += ':' + std::to_string(min_dwell_cycles);
            return label;
        }
    }
    check(false, "unknown generator kind");
    return {};
}

GeneratorSpec GeneratorSpec::parse(const std::string& text) {
    GeneratorSpec spec;
    if (text == "ideal") return spec;
    if (starts_with(text, "taps:")) {
        spec.kind = Kind::kQuantized;
        const auto taps = parse_bounded_int(text.substr(5), 2, clocking::kMaxTaps);
        if (!taps) {
            throw Error("generator '" + text + "': need taps:N with 2 <= N <= " +
                        std::to_string(clocking::kMaxTaps));
        }
        spec.num_taps = *taps;
        return spec;
    }
    if (starts_with(text, "pll:")) {
        const auto parts = split(text.substr(4), ':');
        if (parts.size() != 2) throw Error("generator '" + text + "': want pll:P1/P2/...:DWELL");
        spec.kind = Kind::kPllBank;
        for (const auto& period : split(parts[0], '/')) {
            spec.periods_ps.push_back(parse_double(period));
            if (!std::isfinite(spec.periods_ps.back()) || spec.periods_ps.back() <= 0) {
                throw Error("generator '" + text + "': PLL period '" + period +
                            "' must be finite and > 0");
            }
        }
        if (spec.periods_ps.empty()) throw Error("generator '" + text + "': no PLL periods");
        const auto dwell = parse_bounded_int(parts[1], 0);
        if (!dwell) throw Error("generator '" + text + "': bad dwell (want 0 <= DWELL <= INT_MAX)");
        spec.min_dwell_cycles = *dwell;
        return spec;
    }
    throw Error("unknown generator '" + text + "' (ideal|taps:N|pll:P1/P2/...:DWELL)");
}

std::unique_ptr<clocking::ClockGenerator> GeneratorSpec::instantiate(
    double static_period_ps) const {
    switch (kind) {
        case Kind::kIdeal: return std::make_unique<clocking::IdealClockGenerator>();
        case Kind::kQuantized:
            return std::make_unique<clocking::QuantizedClockGenerator>(
                clocking::QuantizedClockGenerator::for_static_period(static_period_ps,
                                                                     num_taps));
        case Kind::kPllBank:
            return std::make_unique<clocking::PllBankClockGenerator>(periods_ps,
                                                                     min_dwell_cycles);
    }
    check(false, "unknown generator kind");
    return nullptr;
}

SweepSpec SweepSpec::resolved() const {
    SweepSpec out = *this;
    if (out.kernels.empty()) {
        for (const auto& kernel : workloads::benchmark_suite()) out.kernels.push_back(kernel.name);
    }
    if (out.policies.empty()) out.policies.push_back(core::PolicySpec{});
    if (out.generators.empty()) out.generators.push_back(GeneratorSpec{});
    if (out.voltages_v.empty()) out.voltages_v.push_back(timing::DesignConfig{}.voltage_v);
    return out;
}

std::size_t SweepSpec::cell_count() const {
    const SweepSpec spec = resolved();
    return spec.kernels.size() * spec.policies.size() * spec.generators.size() *
           spec.voltages_v.size();
}

timing::DesignConfig SweepSpec::design_for(double voltage_v) const {
    timing::DesignConfig design;
    design.variant = variant;
    design.voltage_v = voltage_v;
    return design;
}

SweepSpec SweepSpec::parse(const std::string& text) {
    SweepSpec spec;
    int line_no = 0;
    for (const auto& raw_line : split(text, '\n')) {
        ++line_no;
        std::string line = raw_line;
        if (const auto hash = line.find('#'); hash != std::string::npos) {
            line = line.substr(0, hash);
        }
        line = std::string(trim(line));
        if (line.empty()) continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos) {
            throw Error("sweep spec line " + std::to_string(line_no) + ": expected 'key = value'");
        }
        const std::string key = std::string(trim(line.substr(0, eq)));
        const std::string value = std::string(trim(line.substr(eq + 1)));
        if (key == "kernels") {
            spec.kernels = split_list(value);
        } else if (key == "policies") {
            for (const auto& name : split_list(value)) {
                spec.policies.push_back(core::PolicySpec::parse(name));
            }
        } else if (key == "generators") {
            for (const auto& label : split_list(value)) {
                spec.generators.push_back(GeneratorSpec::parse(label));
            }
        } else if (key == "voltages") {
            for (const auto& voltage : split_list(value)) {
                const double volts = parse_double(voltage);
                if (!std::isfinite(volts) || volts <= 0) {
                    throw Error("bad voltage '" + voltage + "' (want a finite number > 0)");
                }
                spec.voltages_v.push_back(volts);
            }
        } else if (key == "variant") {
            if (value == "conventional") {
                spec.variant = timing::DesignVariant::kConventional;
            } else if (value == "critical-range") {
                spec.variant = timing::DesignVariant::kCriticalRangeOptimized;
            } else {
                throw Error("unknown variant '" + value + "' (conventional|critical-range)");
            }
        } else if (key == "guard_ps") {
            // A negative or NaN guard would silently select the analyzer
            // default (lut_guard_ps < 0 means "unset") and vanish from the
            // spec stamp, so it is an error here.
            spec.lut_guard_ps = parse_double(value);
            if (!std::isfinite(spec.lut_guard_ps) || spec.lut_guard_ps < 0) {
                throw Error("bad guard_ps '" + value + "' (want a finite number >= 0)");
            }
        } else if (key == "min_occurrences") {
            const auto n = parse_bounded_int(value, 0);
            if (!n) throw Error("bad min_occurrences '" + value + "' (want 0 <= N <= INT_MAX)");
            spec.min_occurrences = *n;
        } else if (key == "jobs") {
            const auto n = parse_bounded_int(value, 0);
            if (!n) throw Error("bad jobs '" + value + "' (want 0 <= N <= INT_MAX)");
            spec.jobs = *n;
        } else {
            throw Error("unknown sweep spec key '" + key + "'");
        }
    }
    return spec;
}

std::string SweepSpec::serialize() const {
    std::string out;
    const auto join = [](const std::vector<std::string>& items) {
        std::string joined;
        for (std::size_t i = 0; i < items.size(); ++i) {
            if (i > 0) joined += ", ";
            joined += items[i];
        }
        return joined;
    };
    if (!kernels.empty()) out += "kernels = " + join(kernels) + "\n";
    if (!policies.empty()) {
        std::vector<std::string> names;
        for (const auto& policy : policies) names.push_back(policy.label());
        out += "policies = " + join(names) + "\n";
    }
    if (!generators.empty()) {
        std::vector<std::string> labels;
        for (const auto& generator : generators) labels.push_back(generator.label());
        out += "generators = " + join(labels) + "\n";
    }
    if (!voltages_v.empty()) {
        std::vector<std::string> values;
        for (const auto voltage : voltages_v) values.push_back(format_double(voltage));
        out += "voltages = " + join(values) + "\n";
    }
    out += std::string("variant = ") +
           (variant == timing::DesignVariant::kConventional ? "conventional" : "critical-range") +
           "\n";
    if (lut_guard_ps >= 0) out += "guard_ps = " + format_double(lut_guard_ps) + "\n";
    if (min_occurrences >= 0) out += "min_occurrences = " + std::to_string(min_occurrences) + "\n";
    if (jobs > 0) out += "jobs = " + std::to_string(jobs) + "\n";
    return out;
}

}  // namespace focs::runtime
