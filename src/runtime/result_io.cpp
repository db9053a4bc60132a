#include "runtime/result_io.hpp"

#include <cstdint>

#include "common/error.hpp"
#include "common/json.hpp"

namespace focs::runtime {

// ---------------------------------------------------------------- writing

std::string json_number(double value) { return json::number(value); }

std::string json_string(const std::string& value) { return json::quote(value); }

namespace {

using json::Array;
using json::Object;
using json::Value;
using json::field;

void append_cell(std::string& out, const SweepCell& cell, bool include_timing) {
    const core::DcaRunResult& r = cell.result;
    out += "    {";
    out += "\"kernel\": " + json_string(cell.kernel);
    out += ", \"policy\": " + json_string(cell.policy);
    out += ", \"generator\": " + json_string(cell.generator);
    out += ", \"voltage_v\": " + json_number(cell.voltage_v);
    if (!cell.ok()) {
        // Failure fields appear only on non-ok cells: an all-ok document
        // is byte-identical to the v4 layout (modulo the schema string).
        out += ", \"status\": " + json_string(cell_status_name(cell.status));
        out += ", \"error_code\": " + json_string(error_code_name(cell.error_code));
        out += ", \"error\": " + json_string(cell.error);
    }
    out += ", \"engine_policy\": " + json_string(r.policy);
    out += ", \"engine_generator\": " + json_string(r.clock_generator);
    out += ", \"cycles\": " + std::to_string(r.cycles);
    out += ", \"total_time_ps\": " + json_number(r.total_time_ps);
    out += ", \"avg_period_ps\": " + json_number(r.avg_period_ps);
    out += ", \"eff_freq_mhz\": " + json_number(r.eff_freq_mhz);
    out += ", \"static_period_ps\": " + json_number(r.static_period_ps);
    out += ", \"speedup_vs_static\": " + json_number(r.speedup_vs_static);
    out += ", \"timing_violations\": " + std::to_string(r.timing_violations);
    out += ", \"worst_violation_ps\": " + json_number(r.worst_violation_ps);
    if (include_timing) {
        // Run-dependent, so gated like the timing header: the canonical
        // (include_timing=false) document stays byte-comparable across job
        // counts and evaluation modes.
        out += ", \"wall_ms\": " + json_number(cell.wall_ms);
        out += ", \"queue_wait_ms\": " + json_number(cell.queue_wait_ms);
    }
    out += ", \"guest\": {\"exit_code\": " + std::to_string(r.guest.exit_code);
    out += ", \"cycles\": " + std::to_string(r.guest.cycles);
    out += ", \"instructions\": " + std::to_string(r.guest.instructions);
    out += ", \"reports\": [";
    for (std::size_t i = 0; i < r.guest.reports.size(); ++i) {
        if (i > 0) out += ", ";
        out += std::to_string(r.guest.reports[i]);
    }
    out += "]}}";
}

std::string class_counters_json(const ArtifactClassCounters& counters) {
    return "{\"miss\": " + std::to_string(counters.miss) +
           ", \"hit\": " + std::to_string(counters.hit) +
           ", \"wait\": " + std::to_string(counters.wait) + "}";
}

std::string metrics_json(const SweepMetrics& metrics) {
    std::string out = "{\n";
    out += "    \"cache\": {";
    out += "\"program\": " + class_counters_json(metrics.program);
    out += ", \"delay_table\": " + class_counters_json(metrics.delay_table);
    out += ", \"trace\": " + class_counters_json(metrics.trace);
    out += ", \"unit_delays\": " + class_counters_json(metrics.unit_delays);
    out += "},\n";
    out += "    \"cell_wall_ms\": {\"p50\": " + json_number(metrics.cell_wall_ms_p50) +
           ", \"p95\": " + json_number(metrics.cell_wall_ms_p95) +
           ", \"max\": " + json_number(metrics.cell_wall_ms_max) + "},\n";
    out += "    \"queue_wait_ms_total\": " + json_number(metrics.queue_wait_ms_total) + "\n";
    out += "  }";
    return out;
}

std::uint64_t as_u64(const Value& value) { return static_cast<std::uint64_t>(value.number()); }

ArtifactClassCounters parse_class_counters(const Value& value) {
    const Object& o = value.object();
    return {as_u64(field(o, "miss")), as_u64(field(o, "hit")), as_u64(field(o, "wait"))};
}

}  // namespace

std::string to_json(const SweepResult& result, bool include_timing) {
    std::string out = "{\n";
    out += "  \"schema\": \"focs-sweep-v6\",\n";
    // The spec stamp is canonical (grid-derived, not run-dependent): two
    // runs of the same spec carry the same stamp regardless of job count or
    // evaluation mode, so cached results.json files stay traceable AND the
    // replay-vs-live byte-diff stays valid.
    out += "  \"spec\": " + json_string(result.spec_text) + ",\n";
    out += "  \"spec_hash\": " + json_string(result.spec_hash) + ",\n";
    if (include_timing) {
        out += "  \"jobs\": " + std::to_string(result.jobs) + ",\n";
        out += "  \"mode\": " + json_string(result.mode) + ",\n";
        out += "  \"wall_ms\": " + json_number(result.wall_ms) + ",\n";
        out += "  \"characterizations\": " + std::to_string(result.characterizations) + ",\n";
        out += "  \"nominal_passes\": " + std::to_string(result.nominal_passes) + ",\n";
        out += "  \"scaled_views\": " + std::to_string(result.scaled_views) + ",\n";
        out += "  \"cache_hits\": " + std::to_string(result.cache_hits) + ",\n";
        out += "  \"guest_simulations\": " + std::to_string(result.guest_simulations) + ",\n";
        out += "  \"unit_delay_passes\": " + std::to_string(result.unit_delay_passes) + ",\n";
        out += "  \"unit_delay_reuses\": " + std::to_string(result.unit_delay_reuses) + ",\n";
        out += "  \"metrics\": " + metrics_json(result.metrics) + ",\n";
    }
    if (result.cells_failed > 0 || result.cells_cancelled > 0) {
        // Partial-result header; omitted from fully successful documents so
        // the canonical all-ok layout matches v4 (schema string aside).
        out += "  \"cells_ok\": " + std::to_string(result.cells_ok) + ",\n";
        out += "  \"cells_failed\": " + std::to_string(result.cells_failed) + ",\n";
        out += "  \"cells_cancelled\": " + std::to_string(result.cells_cancelled) + ",\n";
    }
    out += "  \"mean_eff_freq_mhz\": " + json_number(result.mean_eff_freq_mhz) + ",\n";
    out += "  \"mean_speedup\": " + json_number(result.mean_speedup) + ",\n";
    out += "  \"total_violations\": " + std::to_string(result.total_violations) + ",\n";
    out += "  \"cells\": [\n";
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
        append_cell(out, result.cells[i], include_timing);
        if (i + 1 < result.cells.size()) out += ',';
        out += '\n';
    }
    out += "  ]\n}\n";
    return out;
}

SweepResult from_json(const std::string& text) {
    const Value document = json::parse(text);
    const Object& root = document.object();
    const std::string& schema = field(root, "schema").string();
    // Only the current schema: no older document is stored anywhere, so
    // there is nothing to migrate. Optional fields below are the ones v6
    // itself omits (the run-dependent header and per-cell timing of a
    // canonical document, the failure fields of an all-ok one).
    check(schema == "focs-sweep-v6", "unknown sweep result schema '" + schema + "'");

    SweepResult result;
    result.spec_text = field(root, "spec").string();
    result.spec_hash = field(root, "spec_hash").string();
    // The run-dependent header is all or nothing: to_json writes every
    // field of it, or none (canonical documents).
    if (root.find("jobs") != root.end()) {
        result.jobs = static_cast<int>(field(root, "jobs").number());
        result.mode = field(root, "mode").string();
        result.wall_ms = field(root, "wall_ms").number();
        result.characterizations = as_u64(field(root, "characterizations"));
        result.nominal_passes = as_u64(field(root, "nominal_passes"));
        result.scaled_views = as_u64(field(root, "scaled_views"));
        result.cache_hits = as_u64(field(root, "cache_hits"));
        result.guest_simulations = as_u64(field(root, "guest_simulations"));
        result.unit_delay_passes = as_u64(field(root, "unit_delay_passes"));
        result.unit_delay_reuses = as_u64(field(root, "unit_delay_reuses"));
        const Object& m = field(root, "metrics").object();
        const Object& cache = field(m, "cache").object();
        result.metrics.program = parse_class_counters(field(cache, "program"));
        result.metrics.delay_table = parse_class_counters(field(cache, "delay_table"));
        result.metrics.trace = parse_class_counters(field(cache, "trace"));
        result.metrics.unit_delays = parse_class_counters(field(cache, "unit_delays"));
        const Object& walls = field(m, "cell_wall_ms").object();
        result.metrics.cell_wall_ms_p50 = field(walls, "p50").number();
        result.metrics.cell_wall_ms_p95 = field(walls, "p95").number();
        result.metrics.cell_wall_ms_max = field(walls, "max").number();
        result.metrics.queue_wait_ms_total = field(m, "queue_wait_ms_total").number();
    }
    result.mean_eff_freq_mhz = field(root, "mean_eff_freq_mhz").number();
    result.mean_speedup = field(root, "mean_speedup").number();
    result.total_violations = as_u64(field(root, "total_violations"));

    for (const Value& entry : field(root, "cells").array()) {
        const Object& o = entry.object();
        SweepCell cell;
        cell.kernel = field(o, "kernel").string();
        cell.policy = field(o, "policy").string();
        cell.generator = field(o, "generator").string();
        cell.voltage_v = field(o, "voltage_v").number();
        if (const auto it = o.find("status"); it != o.end()) {
            cell.status = parse_cell_status(it->second.string());
        }
        if (const auto it = o.find("error_code"); it != o.end()) {
            cell.error_code = parse_error_code(it->second.string());
        }
        if (const auto it = o.find("error"); it != o.end()) {
            cell.error = it->second.string();
        }
        if (const auto it = o.find("wall_ms"); it != o.end()) {
            cell.wall_ms = it->second.number();
        }
        if (const auto it = o.find("queue_wait_ms"); it != o.end()) {
            cell.queue_wait_ms = it->second.number();
        }
        core::DcaRunResult& r = cell.result;
        r.policy = field(o, "engine_policy").string();
        r.clock_generator = field(o, "engine_generator").string();
        r.cycles = as_u64(field(o, "cycles"));
        r.total_time_ps = field(o, "total_time_ps").number();
        r.avg_period_ps = field(o, "avg_period_ps").number();
        r.eff_freq_mhz = field(o, "eff_freq_mhz").number();
        r.static_period_ps = field(o, "static_period_ps").number();
        r.speedup_vs_static = field(o, "speedup_vs_static").number();
        r.timing_violations = as_u64(field(o, "timing_violations"));
        r.worst_violation_ps = field(o, "worst_violation_ps").number();
        const Object& guest = field(o, "guest").object();
        r.guest.exit_code = static_cast<std::uint32_t>(as_u64(field(guest, "exit_code")));
        r.guest.cycles = as_u64(field(guest, "cycles"));
        r.guest.instructions = as_u64(field(guest, "instructions"));
        for (const Value& report : field(guest, "reports").array()) {
            r.guest.reports.push_back(static_cast<std::uint32_t>(as_u64(report)));
        }
        result.cells.push_back(std::move(cell));
    }
    // Per-status counts: trust the header when stamped (partial-result
    // documents), otherwise derive from the cells so all-ok documents
    // report cells_ok == cells.size().
    if (const auto it = root.find("cells_ok"); it != root.end()) {
        result.cells_ok = as_u64(it->second);
        if (const auto failed = root.find("cells_failed"); failed != root.end()) {
            result.cells_failed = as_u64(failed->second);
        }
        if (const auto cancelled = root.find("cells_cancelled"); cancelled != root.end()) {
            result.cells_cancelled = as_u64(cancelled->second);
        }
    } else {
        for (const SweepCell& cell : result.cells) {
            switch (cell.status) {
                case CellStatus::kOk: ++result.cells_ok; break;
                case CellStatus::kFailed: ++result.cells_failed; break;
                case CellStatus::kCancelled: ++result.cells_cancelled; break;
            }
        }
    }
    return result;
}

}  // namespace focs::runtime
