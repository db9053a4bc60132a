#!/usr/bin/env python3
"""Enforce perf thresholds on a fresh BENCH_sim_throughput.json.

Compares a freshly measured artifact against the committed one and fails
(exit 1) on a regression beyond the tolerance. Two classes of figures:

- Ratio figures (replay vs live, batched vs streaming) are within-host
  ratios of the same code path: they transfer across machines and are
  enforced unconditionally.
- Absolute throughput figures (replay_lut_cycles_per_s, the batched
  characterization series) and cross-code-path ratios (the voltage-axis
  amortization) only mean something on comparable hosts. Host
  comparability is judged by the artifact's fixed-work calibration loop
  (host.calibration_mops: xorshift64 steps per microsecond, best of 7
  repeats), which runs no focs code, so no change to the program can move
  it. When the fresh host's calibration figure deviates from the committed
  one by more than --calibration-band, the absolute checks are skipped
  (reported, not enforced) instead of producing false alarms on
  slower/faster CI runners.

Usage:
  check_bench_regression.py --committed BENCH_sim_throughput.json \
                            --fresh fresh.json [--tolerance 0.25] \
                            [--calibration-band 0.33]
"""

import argparse
import json
import sys


def lookup(doc, dotted):
    node = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node if isinstance(node, (int, float)) else None


# Host-independent ratio figures: always enforced. Only ratios of the
# *same* code path under the same memory-access pattern belong here —
# those transfer across machines.
RATIO_FIGURES = [
    "evaluation.replay_speedup_vs_live",
    "characterization.batched_speedup_vs_streaming",
]

# Figures enforced only on comparable hosts: absolute throughputs, plus
# ratios of differently-bound code paths (the voltage-axis speedup pits a
# per-cycle pass against a memory-streaming fused pass, so it shifts with
# the host's cache/bandwidth profile).
ABSOLUTE_FIGURES = [
    "evaluation.replay_lut_cycles_per_s",
    "evaluation.lut_cycles_per_s",
    "characterization.characterization_batched_cycles_per_s.threads_1",
    "characterization.streaming_cycles_per_s",
    "voltage_axis.delay_pass.axis_speedup",
    "characterization_axis.fused_replay_speedup",
]

CALIBRATION_FIGURE = "host.calibration_mops"

# Absolute floors on the *fresh* artifact alone (no committed comparison):
# host-independent invariants of the code itself. The dormant
# observability layer must never tax the replay hot loop — the shipping
# default (instrumentation compiled in but switched off) has to run at
# effectively the compiled-out instantiation's speed. The same contract
# holds for the fault-tolerance machinery: a dormant CancellationToken
# threaded through the replay engine must be free.
FLOOR_FIGURES = {
    "instrumentation.disabled_vs_compiled_out_ratio": 0.97,
    "robustness.dormant_cancel_vs_plain_ratio": 0.97,
    # The sweep daemon's serving contract: a warm burst against the shared
    # cache performs zero characterizations / guest simulations / unit
    # delay passes (emitted as 1 when it held, 0 otherwise — determinism,
    # not a throughput figure, so no tolerance applies).
    "service.warm_zero_build": 1.0,
    # The characterization-collapse contract: a 10-point voltage axis paid
    # as one nominal pass plus scaled views must be several times cheaper
    # than 10 per-voltage reference passes (same code path run V times vs
    # once, so the ratio transfers across hosts), and the scaled views must
    # serialize bit-identically to the reference tables (determinism bit).
    "characterization_axis.nominal_pass_speedup": 5.0,
    "characterization_axis.scaled_views_identical": 1.0,
}

# Floors enforced only when the fresh artifact reports a live SIMD ISA
# (simd.simd_active == 1): the vectorized replay kernels must beat the
# byte-identical portable scalar kernel table by this factor on the
# replay-LUT cell. Skipped (reported, not enforced) on hosts where the
# build fell back to the scalar table — there is no vector unit to hold to
# a floor. The floor sits 10% below the lowest of 70 interleaved samples
# of the figure on a 4-vCPU AVX2 VM (median 1.89, lowest 1.55), rounded
# down to one decimal, so unchanged code does not flip it.
SIMD_FLOOR_FIGURES = {
    "simd.replay_simd_speedup": 1.3,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--committed", required=True)
    parser.add_argument("--fresh", required=True)
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="max fractional regression (default 0.25 = 25%%)")
    parser.add_argument("--calibration-band", type=float, default=0.33,
                        help="max fractional host-speed deviation for the "
                             "absolute checks to apply (default 0.33)")
    args = parser.parse_args()

    with open(args.committed) as f:
        committed = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)

    failures = []

    def check(name, enforced):
        old = lookup(committed, name)
        new = lookup(fresh, name)
        if old is None or new is None or old <= 0:
            print(f"  skip  {name}: not present in both artifacts")
            return
        change = new / old - 1.0
        regressed = change < -args.tolerance
        tag = "FAIL" if (regressed and enforced) else ("warn" if regressed else "ok")
        print(f"  {tag:4}  {name}: {old:.6g} -> {new:.6g} ({change:+.1%})")
        if regressed and enforced:
            failures.append(name)

    old_cal = lookup(committed, CALIBRATION_FIGURE)
    new_cal = lookup(fresh, CALIBRATION_FIGURE)
    comparable = False
    if old_cal and new_cal and old_cal > 0:
        deviation = new_cal / old_cal - 1.0
        comparable = abs(deviation) <= args.calibration_band
        print(f"host calibration ({CALIBRATION_FIGURE}): "
              f"{old_cal:.6g} -> {new_cal:.6g} ({deviation:+.1%}) — "
              f"{'comparable' if comparable else 'NOT comparable'} hosts")
    else:
        print("host calibration figure missing — absolute checks skipped")

    print(f"ratio figures (enforced, tolerance {args.tolerance:.0%}):")
    for name in RATIO_FIGURES:
        check(name, enforced=True)

    print(f"absolute figures ({'enforced' if comparable else 'report-only: hosts differ'}):")
    for name in ABSOLUTE_FIGURES:
        check(name, enforced=comparable)

    print("floor figures (enforced on the fresh artifact alone):")
    for name, floor in FLOOR_FIGURES.items():
        value = lookup(fresh, name)
        if value is None:
            print(f"  skip  {name}: not present in the fresh artifact")
            continue
        ok = value >= floor
        print(f"  {'ok' if ok else 'FAIL':4}  {name}: {value:.6g} (floor {floor:g})")
        if not ok:
            failures.append(name)

    simd_active = lookup(fresh, "simd.simd_active")
    simd_enforced = simd_active == 1
    print("SIMD floor figures "
          f"({'enforced: SIMD ISA active' if simd_enforced else 'report-only: scalar host'}):")
    for name, floor in SIMD_FLOOR_FIGURES.items():
        value = lookup(fresh, name)
        if value is None:
            print(f"  skip  {name}: not present in the fresh artifact")
            continue
        ok = value >= floor
        tag = "ok" if ok else ("FAIL" if simd_enforced else "warn")
        print(f"  {tag:4}  {name}: {value:.6g} (floor {floor:g})")
        if not ok and simd_enforced:
            failures.append(name)

    if failures:
        print(f"\nFAIL: {len(failures)} figure(s) regressed beyond "
              f"{args.tolerance:.0%}: {', '.join(failures)}")
        return 1
    print("\nOK: no tracked figure regressed beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
