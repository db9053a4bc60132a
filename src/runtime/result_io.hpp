// JSON serialization of sweep results.
//
// The bench trajectory (policy search, training corpora à la the unified
// DFS learning platform, cross-run comparisons) consumes sweep output as
// data, not as pretty-printed tables — so results are written as a stable,
// dependency-free JSON document. Formatting is deterministic (fixed key
// order, "%.17g" doubles, i.e. shortest round-trippable form), which makes
// byte-comparison of two runs a valid determinism check. from_json parses
// exactly the documents to_json emits (plus whitespace), enough for
// lossless round-trips and for downstream tools to re-load result sets.
#pragma once

#include <string>

#include "runtime/sweep_engine.hpp"

namespace focs::runtime {

/// Deterministic JSON scalar formatting shared by every artifact emitter
/// (sweep results, bench reports): "%.17g" doubles (shortest round-
/// trippable form) and fully escaped strings. Throws focs::Error on
/// non-finite numbers — JSON has no inf/nan, and silently clamping would
/// hide bugs.
std::string json_number(double value);
std::string json_string(const std::string& value);

/// Serializes a sweep result (schema "focs-sweep-v6", which adds the
/// characterization-collapse counters to v5: header nominal_passes /
/// scaled_views, stamped alongside the other run-dependent counters). v5
/// added the fault-tolerance vocabulary (header cells_ok / cells_failed /
/// cells_cancelled counts and per-cell status / error_code / error
/// fields); failure fields are emitted only when present — a fully
/// successful sweep's document differs from v4 solely in the schema
/// string, so canonical byte-comparison across job counts and evaluation
/// modes stays valid. The originating spec text and its stable hash are
/// always stamped into the header so cached results.json files stay
/// traceable. `include_timing` controls the run-dependent fields
/// (wall_ms, jobs, mode, cache counters, the metrics block and the
/// per-cell timing); switch it off to obtain the canonical document.
std::string to_json(const SweepResult& result, bool include_timing = true);

/// Parses a focs-sweep-v6 document produced by to_json. Throws focs::Error
/// on malformed input or any other schema. Run-dependent fields absent from
/// a canonical document are left zero/empty; per-status cell counts are
/// derived from the cells when the header lacks them (all-ok documents).
SweepResult from_json(const std::string& text);

}  // namespace focs::runtime
