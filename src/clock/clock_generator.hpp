// Tunable clock generator models.
//
// The paper assumes a cycle-by-cycle tunable clock generator (CG), e.g. a
// tunable ring oscillator with a muxed output [9][10] or a multi-PLL
// clocking unit [11], and notes its design is outside the paper's scope.
// These models capture the first-order constraint such a CG imposes on DCA:
// the granted period is the requested period rounded UP to a realizable
// one, and some CGs cannot retune to a faster clock instantly.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace focs::clocking {

/// Largest tap count a QuantizedClockGenerator accepts (sweep specs'
/// taps:N, `focs evaluate --taps`): the generator keeps one period per tap,
/// so the bound keeps a typo from allocating without limit.
inline constexpr int kMaxTaps = 1 << 16;

class ClockGenerator {
public:
    virtual ~ClockGenerator() = default;

    /// Returns the period the CG actually produces for this cycle.
    /// Postcondition: granted >= requested (never unsafe).
    virtual double grant_period_ps(double requested_ps) = 0;

    /// Block form of grant_period_ps: out[i] is bit-identical to the i-th
    /// of n consecutive grant_period_ps(requested[i]) calls, state carried
    /// across calls and blocks alike. `out` may alias `requested`. The
    /// default loops over grant_period_ps; a stateful generator overrides it
    /// with a non-virtual loop so replay pays one virtual call per block.
    /// Replay never calls it for a QuantizedClockGenerator: that one is
    /// stateless, and replay grants through core::quantize_grant and the
    /// quantize kernel (core/replay_kernels.hpp).
    virtual void grant_block(const double* requested, std::size_t n, double* out);

    /// Re-arms the CG for a new run.
    virtual void reset() = 0;

    virtual std::string name() const = 0;
};

/// Continuously tunable CG: grants exactly the requested period.
class IdealClockGenerator final : public ClockGenerator {
public:
    double grant_period_ps(double requested_ps) override { return requested_ps; }
    void reset() override {}
    std::string name() const override { return "ideal"; }
};

/// Ring-oscillator style CG with `num_taps` (1..kMaxTaps) equally spaced
/// periods in [min_period_ps, max_period_ps]; requests are ceiled to the
/// next tap. Requests above the slowest tap are granted verbatim (cycle
/// stretching). grant_period_ps is a lower_bound search; replay grants
/// through core::quantize_grant and the quantize kernels instead, which
/// compute the tap index from the equal spacing (taps() and inv_step())
/// and land on the same tap.
class QuantizedClockGenerator final : public ClockGenerator {
public:
    QuantizedClockGenerator(double min_period_ps, double max_period_ps, int num_taps);

    /// Convenience: taps spanning [0.5 * static, static].
    static QuantizedClockGenerator for_static_period(double static_period_ps, int num_taps);

    double grant_period_ps(double requested_ps) override;
    void reset() override {}
    std::string name() const override;

    const std::vector<double>& taps() const { return taps_; }
    /// 1 / tap spacing, the tap-index estimate's factor; 0 for one tap.
    double inv_step() const { return inv_step_; }

private:
    std::vector<double> taps_;  ///< ascending
    double inv_step_ = 0;
};

/// Multi-PLL CG: a small set of clock sources; switching to a *faster*
/// clock is only possible after `min_dwell_cycles` on the current source
/// (relock/mux constraints), while switching to a slower clock (stretching)
/// is always possible. Safety is preserved by staying slow when in doubt.
class PllBankClockGenerator final : public ClockGenerator {
public:
    /// Every period must be finite and > 0 (any order; they are sorted).
    PllBankClockGenerator(std::vector<double> periods_ps, int min_dwell_cycles);

    double grant_period_ps(double requested_ps) override { return grant(requested_ps); }
    /// The dwell state machine in a non-virtual loop; the state carries
    /// across blocks exactly as across single calls. A hold run — requests
    /// whose covering source is the held one, or any request above the
    /// slowest source while it is held — is granted in a tight loop that
    /// only counts the dwell; every other request takes the state machine.
    void grant_block(const double* requested, std::size_t n, double* out) override;
    void reset() override;
    std::string name() const override;

private:
    double grant(double requested_ps);

    std::vector<double> periods_;  ///< ascending
    int min_dwell_cycles_;
    std::size_t current_ = 0;  ///< index of the currently selected source
    int dwell_ = 0;            ///< cycles spent on the current source
    bool started_ = false;
};

}  // namespace focs::clocking
