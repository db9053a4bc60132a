// Clock-adjustment policies.
//
// A policy decides, per cycle, the clock period requested from the clock
// generator. All policies except the genie are *predictive*: they only look
// at which instructions occupy the pipeline (paper eq. 2), never at actual
// signal arrival times, so no timing-error detection/recovery is needed.
#pragma once

#include <memory>
#include <string>

#include "dta/delay_table.hpp"
#include "sim/cycle_record.hpp"
#include "timing/delay_model.hpp"

namespace focs::core {

struct PolicyContext {
    const sim::CycleRecord& record;
    /// Ground-truth requirements of this cycle. Reserved for the genie
    /// bound; predictive policies must not read it.
    const timing::CycleDelays& actual;
};

class ClockPolicy {
public:
    virtual ~ClockPolicy() = default;
    virtual double requested_period_ps(const PolicyContext& context) = 0;
    virtual std::string name() const = 0;
    virtual void reset() {}
};

/// Conventional synchronous clocking: the STA worst-case period, always.
class StaticClockPolicy final : public ClockPolicy {
public:
    explicit StaticClockPolicy(double static_period_ps);
    double requested_period_ps(const PolicyContext& context) override;
    std::string name() const override { return "static"; }

private:
    double static_period_ps_;
};

/// Genie-aided per-cycle oracle (paper Sec. IV-A): adjusts to the
/// a-posteriori measured requirement of every cycle. Upper bound on any
/// realizable policy (~50% speedup in the paper).
class GenieOraclePolicy final : public ClockPolicy {
public:
    double requested_period_ps(const PolicyContext& context) override;
    std::string name() const override { return "genie"; }
};

/// The paper's proposal: per-cycle LUT lookup of the worst-case delay of
/// the instruction in each pipeline stage, clocked at the max over stages.
class InstructionLutPolicy final : public ClockPolicy {
public:
    /// `table` must outlive the policy. `margin_ps` adds an optional safety
    /// margin on top of every granted period (0 in the paper's setup).
    explicit InstructionLutPolicy(const dta::DelayTable& table, double margin_ps = 0);
    double requested_period_ps(const PolicyContext& context) override;
    std::string name() const override { return "instruction-lut"; }

private:
    const dta::DelayTable* table_;
    double margin_ps_;
};

/// The paper's simplified controller (Sec. IV-A): monitor only the EX-stage
/// instruction, and cover every other stage by a constant floor equal to
/// the worst LUT entry outside EX (dominated by the instruction-memory
/// address timing, l.j at 1172 ps). Needs far less monitoring hardware.
class ExOnlyPolicy final : public ClockPolicy {
public:
    explicit ExOnlyPolicy(const dta::DelayTable& table);
    double requested_period_ps(const PolicyContext& context) override;
    std::string name() const override { return "ex-only"; }
    double floor_ps() const { return floor_ps_; }

private:
    const dta::DelayTable* table_;
    double floor_ps_;  ///< worst characterized delay of all non-EX stages
};

/// Coarse two-class baseline in the spirit of application-adaptive
/// guardbanding [8] (Rahimi et al.): instructions are split into a slow
/// class (multiplier/divider and anything uncharacterized, clocked at the
/// static limit) and a single fast class (clocked at the worst fast-class
/// LUT entry). Only one bit of pipeline monitoring is required.
class TwoClassPolicy final : public ClockPolicy {
public:
    explicit TwoClassPolicy(const dta::DelayTable& table);
    double requested_period_ps(const PolicyContext& context) override;
    std::string name() const override { return "two-class"; }
    double fast_period_ps() const { return fast_period_ps_; }

    /// True for the critical instruction class (multiplier/divider).
    static bool is_slow_key(dta::OccKey key);

private:
    const dta::DelayTable* table_;
    double fast_period_ps_;
};

/// Approximate-computing extension (paper Sec. IV-A, last paragraph): run
/// with clock periods *shorter* than the characterized worst case,
/// deliberately accepting occasional timing violations in exchange for
/// speed — e.g. approximate multiplication results. `scale` < 1 compresses
/// every LUT period; the DcaEngine's violation counters then quantify the
/// error-incidence/speedup trade-off.
class ApproximateLutPolicy final : public ClockPolicy {
public:
    ApproximateLutPolicy(const dta::DelayTable& table, double scale);
    double requested_period_ps(const PolicyContext& context) override;
    std::string name() const override;
    double scale() const { return scale_; }

private:
    const dta::DelayTable* table_;
    double scale_;
};

/// Dual-cycle baseline in the spirit of CRISTA [6] (Ghosh et al., TCAD'07):
/// the clock runs at a fixed fast period that covers everything except the
/// isolated critical unit (multiplier/divider); when a critical instruction
/// is in flight the cycle is stretched to `stretch` fast periods (two in
/// the original scheme). No per-instruction LUT, only a single
/// critical-class detector.
class DualCyclePolicy final : public ClockPolicy {
public:
    /// `stretch` >= 1 scales the stretched (critical) cycle relative to the
    /// fast period; the fast period is floored at static/stretch so the
    /// stretched cycle always covers the static limit.
    explicit DualCyclePolicy(const dta::DelayTable& table, double stretch = 2.0);
    double requested_period_ps(const PolicyContext& context) override;
    std::string name() const override;
    double fast_period_ps() const { return fast_period_ps_; }
    double stretch() const { return stretch_; }

private:
    const dta::DelayTable* table_;
    double fast_period_ps_;
    double stretch_;
};

/// Factory enum used by the evaluation flow, the sweep axis and benches.
/// kApproxLut and kDualCycle are the promoted forms of the approximate /
/// dual-cycle baselines, so sweeps can grid over them (with any parameter,
/// see PolicySpec) through the devirtualized replay kernels.
enum class PolicyKind {
    kStatic,
    kGenie,
    kInstructionLut,
    kExOnly,
    kTwoClass,
    kApproxLut,
    kDualCycle,
};

/// Period compression of the promoted approx-lut PolicyKind when no
/// explicit parameter is given (the paper's Sec. IV-A approximate-operation
/// trade-off at one canonical grid point).
inline constexpr double kApproxLutKindScale = 0.9;

/// Stretch factor of the promoted dual-cycle PolicyKind when no explicit
/// parameter is given (the original CRISTA-style two-cycle operation).
inline constexpr double kDualCycleKindStretch = 2.0;

/// One policy axis point: a kind plus its optional parameter. The two
/// parameterized kinds are approx-lut (param = compression scale in
/// (0, 1], default kApproxLutKindScale) and dual-cycle (param = critical-
/// cycle stretch >= 1, default kDualCycleKindStretch); every other kind
/// takes no parameter. Implicitly constructible from a bare PolicyKind so
/// kind-only call sites keep working unchanged.
struct PolicySpec {
    PolicyKind kind = PolicyKind::kInstructionLut;
    /// < 0 means "the kind's default" (see resolved_param); parse()
    /// normalizes an explicit parameter equal to the default back to -1, so
    /// equal grids compare and serialize equal.
    double param = -1;

    PolicySpec() = default;
    PolicySpec(PolicyKind kind, double param = -1) : kind(kind), param(param) {}

    /// The effective parameter: `param` when explicit, the kind's default
    /// otherwise (meaningful only for the parameterized kinds).
    double resolved_param() const;

    /// Stable label, also the spec-file syntax: the kind's short name, plus
    /// ":PARAM" (shortest round-trip decimal) when the parameter differs
    /// from the kind's default — "approx-lut:0.8", "dual-cycle:3".
    std::string label() const;

    /// Inverse of label(). Validates at parse time: approx-lut scale must
    /// be in (0, 1], dual-cycle stretch >= 1, and no other kind accepts a
    /// parameter; violations throw focs::Error (a usage error — the CLI
    /// reports it and exits 1).
    static PolicySpec parse(const std::string& text);

    friend bool operator==(const PolicySpec&, const PolicySpec&) = default;
};

std::unique_ptr<ClockPolicy> make_policy(PolicyKind kind, const dta::DelayTable& table,
                                         double static_period_ps);

/// PolicySpec-aware factory: threads the spec's resolved parameter into the
/// approx-lut / dual-cycle constructors; identical to the kind overload for
/// every other kind.
std::unique_ptr<ClockPolicy> make_policy(const PolicySpec& spec, const dta::DelayTable& table,
                                         double static_period_ps);

/// Stable short name of a kind ("static"|"two-class"|"ex-only"|"lut"|
/// "genie"|"approx-lut"|"dual-cycle"); inverse of parse_policy_kind. Used
/// by the CLI and the sweep runtime.
std::string policy_kind_name(PolicyKind kind);
PolicyKind parse_policy_kind(const std::string& name);

}  // namespace focs::core
