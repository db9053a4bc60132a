#include "dta/delay_table.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <system_error>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "isa/isa_info.hpp"
#include "timing/delay_model.hpp"

namespace focs::dta {

using sim::Stage;

OccKey key_of(const sim::StageView& view) {
    if (!view.valid) return kKeyBubble;
    if (view.held) {
        if (isa::timing_family(view.inst.opcode) == isa::TimingFamily::kDiv) {
            return static_cast<OccKey>(view.inst.opcode);
        }
        return kKeyHeld;
    }
    return static_cast<OccKey>(view.inst.opcode);
}

std::array<OccKey, sim::kStageCount> attribution_keys(const sim::CycleRecord& record) {
    std::array<OccKey, sim::kStageCount> keys{};
    for (int s = 0; s < sim::kStageCount; ++s) {
        keys[static_cast<std::size_t>(s)] = key_of(record.stages[static_cast<std::size_t>(s)]);
    }
    if (record.fetch_redirect && record.redirect_source != isa::Opcode::kInvalid) {
        keys[static_cast<std::size_t>(Stage::kAdr)] =
            static_cast<OccKey>(record.redirect_source);
    }
    return keys;
}

std::string_view key_name(OccKey key) {
    if (key == kKeyBubble) return "<bubble>";
    if (key == kKeyHeld) return "<held>";
    return isa::mnemonic(static_cast<isa::Opcode>(key));
}

DelayTable::DelayTable(double static_period_ps, double lut_guard_ps)
    : static_period_ps_(static_period_ps), lut_guard_ps_(lut_guard_ps) {
    check(static_period_ps >= 0, "negative static period");
    check(lut_guard_ps >= 0, "negative LUT guard band");
    for (auto& row : effective_) row.fill(static_period_ps_);
}

void DelayTable::set_characterized(OccKey key, Stage stage, double raw_max_ps) {
    check(key >= 0 && key < kKeyCount, "delay table key out of range");
    check(raw_max_ps > 0, "raw characterized maximum must be positive");
    raw_[static_cast<std::size_t>(key)][static_cast<std::size_t>(stage)] = raw_max_ps;
    effective_[static_cast<std::size_t>(key)][static_cast<std::size_t>(stage)] =
        std::min(raw_max_ps + lut_guard_ps_, static_period_ps_);
}

bool DelayTable::characterized(OccKey key, Stage stage) const {
    check(key >= 0 && key < kKeyCount, "delay table key out of range");
    return raw_[static_cast<std::size_t>(key)][static_cast<std::size_t>(stage)] > 0;
}

double DelayTable::lookup(OccKey key, Stage stage) const {
    check(key >= 0 && key < kKeyCount, "delay table key out of range");
    return effective(key, stage);
}

double DelayTable::cycle_period_ps(const sim::CycleRecord& record) const {
    const bool adr_redirect =
        record.fetch_redirect && record.redirect_source != isa::Opcode::kInvalid;
    double period = 0;
    for (int s = 0; s < sim::kStageCount; ++s) {
        const OccKey key = s == static_cast<int>(Stage::kAdr) && adr_redirect
                               ? static_cast<OccKey>(record.redirect_source)
                               : key_of(record.stages[static_cast<std::size_t>(s)]);
        const double d = effective_[static_cast<std::size_t>(key)][static_cast<std::size_t>(s)];
        if (d > period) period = d;
    }
    return period;
}

DelayTable DelayTable::scaled(double factor) const {
    check(factor > 0, "scale factor must be positive");
    DelayTable out(static_period_ps_ * factor, lut_guard_ps_);
    for (OccKey key = 0; key < kKeyCount; ++key) {
        for (int s = 0; s < sim::kStageCount; ++s) {
            if (!characterized(key, static_cast<Stage>(s))) continue;
            // Scale the raw maximum, then re-apply the voltage-independent
            // guard band and the scaled static clamp inside
            // set_characterized — the exact expression a reference
            // characterization at the target operating point computes.
            out.set_characterized(
                key, static_cast<Stage>(s),
                raw_[static_cast<std::size_t>(key)][static_cast<std::size_t>(s)] * factor);
        }
    }
    return out;
}

std::string DelayTable::serialize() const {
    char line[160];
    std::snprintf(line, sizeof line, "delay_table v2 static_ps=%.17g guard_ps=%.17g\n",
                  static_period_ps_, lut_guard_ps_);
    std::string out = line;
    for (OccKey key = 0; key < kKeyCount; ++key) {
        for (int s = 0; s < sim::kStageCount; ++s) {
            if (!characterized(key, static_cast<Stage>(s))) continue;
            std::snprintf(line, sizeof line, "%d %d %.17g\n", key, s,
                          raw_[static_cast<std::size_t>(key)][static_cast<std::size_t>(s)]);
            out += line;
        }
    }
    return out;
}

namespace {

/// One whole, finite number of a table file; anything else (trailing
/// characters, overflow, inf, nan) is a ParseError naming the field.
double parse_number(std::string_view text, const char* field, int line_no) {
    double value = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end || !std::isfinite(value)) {
        throw ParseError("bad " + std::string(field) + " '" + std::string(text) + "'", line_no);
    }
    return value;
}

}  // namespace

DelayTable DelayTable::deserialize(const std::string& text) {
    std::istringstream in(text);
    std::string header;
    std::getline(in, header);
    const auto fields = split_whitespace(header);
    if (fields.size() != 4 || fields[0] != "delay_table" || fields[1] != "v2" ||
        !starts_with(fields[2], "static_ps=") || !starts_with(fields[3], "guard_ps=")) {
        throw ParseError(
            "malformed delay table header (want 'delay_table v2 static_ps=P guard_ps=G'): " +
                header,
            1);
    }
    const double static_ps = parse_number(std::string_view(fields[2]).substr(10), "static_ps", 1);
    const double guard_ps = parse_number(std::string_view(fields[3]).substr(9), "guard_ps", 1);
    if (static_ps <= 0) throw ParseError("static_ps must be > 0", 1);
    if (guard_ps < 0) throw ParseError("guard_ps must be >= 0", 1);
    DelayTable table(static_ps, guard_ps);
    std::string line;
    int line_no = 1;
    while (std::getline(in, line)) {
        ++line_no;
        if (trim(line).empty()) continue;
        const auto parts = split_whitespace(line);
        if (parts.size() != 3) throw ParseError("malformed delay table entry", line_no);
        const auto key = parse_int(parts[0]);
        const auto stage = parse_int(parts[1]);
        if (!key || !stage || *key < 0 || *key >= kKeyCount || *stage < 0 ||
            *stage >= sim::kStageCount) {
            throw ParseError("delay table entry out of range", line_no);
        }
        const double raw = parse_number(parts[2], "raw maximum", line_no);
        if (raw <= 0) throw ParseError("raw maximum must be > 0", line_no);
        const auto occ = static_cast<OccKey>(*key);
        const auto st = static_cast<Stage>(*stage);
        if (table.characterized(occ, st)) {
            throw ParseError("repeated delay table entry " + parts[0] + " " + parts[1], line_no);
        }
        table.set_characterized(occ, st, raw);
    }
    return table;
}

}  // namespace focs::dta
