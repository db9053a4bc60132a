// Per-instruction / per-stage delay lookup table (the LUT of paper Fig. 1).
//
// Rows are occupancy keys: one per opcode plus `bubble` (squashed/empty
// pipeline slot) and `held` (stalled slot). Columns are the six pipeline
// stages. Entries hold the worst dynamic delay observed during
// characterization (plus the guard band); uncharacterized entries fall back
// to the static timing limit, exactly as the paper handles instructions
// with too few occurrences in the characterization benchmark. Every entry
// is stored split into its scalable raw maximum and the voltage-independent
// guard band, so one nominal characterization serves every operating point
// through exact scaled() views, and the text form (v2) round-trips the
// split at full precision.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "isa/opcode.hpp"
#include "sim/cycle_record.hpp"

namespace focs::dta {

/// Row index into the delay table.
using OccKey = std::int16_t;

inline constexpr OccKey kKeyBubble = isa::kOpcodeCount;
inline constexpr OccKey kKeyHeld = isa::kOpcodeCount + 1;
inline constexpr int kKeyCount = isa::kOpcodeCount + 2;

/// Occupancy key of one stage slot (opcode, bubble, or held).
OccKey key_of(const sim::StageView& view);

/// Per-stage attribution keys for one cycle. Matches the timing model's
/// attribution rules: the ADR stage is charged to the redirecting
/// control-transfer instruction on redirect cycles (DESIGN.md,
/// "ADR attribution"); a held divider stays charged as l.div.
std::array<OccKey, sim::kStageCount> attribution_keys(const sim::CycleRecord& record);

/// Display name for a key: mnemonic, "<bubble>" or "<held>".
std::string_view key_name(OccKey key);

class DelayTable {
public:
    /// `static_period_ps` is the STA clock period used as fallback;
    /// `lut_guard_ps` is the guard band added on top of raw characterized
    /// maxima by set_characterized().
    explicit DelayTable(double static_period_ps = 0, double lut_guard_ps = 0);

    double static_period_ps() const { return static_period_ps_; }
    double lut_guard_ps() const { return lut_guard_ps_; }

    /// Sets a characterized entry from the RAW observed maximum (before the
    /// guard band): the finished LUT value becomes
    /// min(raw_max_ps + lut_guard_ps, static_period_ps). Keeping the raw
    /// maximum lets scaled() reproduce a per-voltage reference
    /// characterization bit-identically (scale the raw part, then re-apply
    /// the voltage-independent guard band and the scaled static clamp).
    void set_characterized(OccKey key, sim::Stage stage, double raw_max_ps);

    /// True when characterization produced an entry for (key, stage).
    bool characterized(OccKey key, sim::Stage stage) const;

    /// Characterized delay, or the static period as a safe fallback.
    double lookup(OccKey key, sim::Stage stage) const;

    /// Clock period for a whole cycle (paper eq. 2): the max over stages of
    /// the entry of each stage's attribution key (attribution_keys), derived
    /// inline with no per-stage range checks — keys produced by attribution
    /// are in range by construction.
    double cycle_period_ps(const sim::CycleRecord& record) const;

    /// Unchecked fallback-resolved read for the replay engine's SoA policy
    /// kernels: identical to lookup(), but a single indexed load. `key`
    /// must come from attribution (in range by construction).
    double effective(OccKey key, sim::Stage stage) const {
        return effective_[static_cast<std::size_t>(key)][static_cast<std::size_t>(stage)];
    }

    /// Voltage view: retargets the table to another operating point by
    /// `factor` (the cell library's delay-scale ratio). This is the paper's
    /// proposed "(online-)updating of the used delay prediction table".
    /// The view is bit-identical to re-running the characterization at the
    /// target operating point: the per-voltage reference computes
    ///   min(fl(fl(raw * factor) + guard), fl(static * factor))
    /// because per-cycle delays scale as fl(unit * factor) and max commutes
    /// with multiplication by a positive constant under IEEE rounding
    /// (rounding monotonicity), and scaled() evaluates exactly that
    /// expression.
    DelayTable scaled(double factor) const;

    /// Text form, one line per characterized entry: the v2 format (static
    /// period and guard band in the header, full-precision raw maxima), so
    /// a deserialized table keeps producing bit-identical scaled() views.
    /// deserialize() reads only v2 and throws ParseError, with the line
    /// number, on anything else: another header, a number that is not one
    /// whole finite token, static_ps <= 0, guard_ps < 0, raw <= 0, a key or
    /// stage out of range, or a repeated (key, stage) entry.
    std::string serialize() const;
    static DelayTable deserialize(const std::string& text);

    /// Resident size for cache byte budgeting: the table is a fixed-shape
    /// value type (key x stage arrays), so its footprint is its own size.
    std::uint64_t estimated_bytes() const { return sizeof *this; }

private:
    double static_period_ps_;
    double lut_guard_ps_;
    /// Raw characterized maxima (before the guard band); the scalable part
    /// of each entry. set_characterized() rejects raw <= 0, so 0 marks an
    /// uncharacterized entry.
    std::array<std::array<double, sim::kStageCount>, kKeyCount> raw_{};
    /// Fallback-resolved view of the table: the finished entry where
    /// characterized, the static period otherwise, so the per-cycle hot
    /// path is a plain load per stage.
    std::array<std::array<double, sim::kStageCount>, kKeyCount> effective_{};
};

}  // namespace focs::dta
