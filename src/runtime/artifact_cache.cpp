#include "runtime/artifact_cache.hpp"

#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <utility>

#include "asm/assembler.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/strings.hpp"
#include "core/flows.hpp"
#include "obs/span_tracer.hpp"
#include "timing/cell_library.hpp"
#include "workloads/kernel.hpp"

namespace focs::runtime {

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
        .count();
}

/// Byte-accounting dispatch: every artifact class exposes its own
/// deterministic estimated_bytes().
std::uint64_t estimated_bytes_of(const assembler::Program& program) {
    return program.estimated_bytes();
}
std::uint64_t estimated_bytes_of(const dta::DelayTable& table) { return table.estimated_bytes(); }
std::uint64_t estimated_bytes_of(const sim::PipelineTrace& trace) {
    return trace.estimated_bytes();
}
std::uint64_t estimated_bytes_of(const std::shared_ptr<const timing::UnitTraceDelays>& unit) {
    return unit == nullptr ? 0 : unit->estimated_bytes();
}
std::uint64_t estimated_bytes_of(const std::shared_ptr<const dta::CharacterizationStats>& stats) {
    return stats == nullptr ? 0 : stats->estimated_bytes();
}

}  // namespace

std::string artifact_class_name(ArtifactClass artifact_class) {
    switch (artifact_class) {
        case ArtifactClass::kProgram: return "program";
        case ArtifactClass::kDelayTable: return "delay_table";
        case ArtifactClass::kTrace: return "trace";
        case ArtifactClass::kUnitDelays: return "unit_delays";
    }
    check(false, "unknown artifact class");
    return {};
}

ArtifactCache::ArtifactCache(int max_build_attempts)
    : max_build_attempts_(max_build_attempts < 1 ? 1 : max_build_attempts) {
    for (const ArtifactClass artifact_class :
         {ArtifactClass::kProgram, ArtifactClass::kDelayTable, ArtifactClass::kTrace,
          ArtifactClass::kUnitDelays}) {
        const std::string prefix = "cache." + artifact_class_name(artifact_class) + ".";
        ClassIds& ids = ids_[static_cast<std::size_t>(artifact_class)];
        ids.miss = metrics_.counter(prefix + "miss");
        ids.hit = metrics_.counter(prefix + "hit");
        ids.wait = metrics_.counter(prefix + "wait");
        ids.built = metrics_.counter(prefix + "built");
        ids.build_ms = metrics_.histogram(prefix + "build_ms", obs::latency_ms_bounds());
        ids.build_failed = metrics_.counter(prefix + "build_failed");
        ids.retried = metrics_.counter(prefix + "retried");
        ids.evicted = metrics_.counter(prefix + "evicted");
        ids.evicted_lru = metrics_.counter(prefix + "evicted_lru");
    }
    nominal_passes_id_ = metrics_.counter("cache.delay_table.nominal_passes");
    scaled_views_id_ = metrics_.counter("cache.delay_table.scaled_views");
    reference_passes_id_ = metrics_.counter("cache.delay_table.reference_passes");
}

template <typename T>
void ArtifactCache::count_found(ArtifactClass artifact_class,
                                const std::shared_future<T>& future) {
    const bool ready = future.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
    metrics_.add(ready ? ids(artifact_class).hit : ids(artifact_class).wait);
}

std::uint64_t ArtifactCache::next_build_attempt(ArtifactClass artifact_class,
                                                const std::string& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    return build_attempts_[artifact_class_name(artifact_class) + "/" + key]++;
}

template <typename T, typename Build>
void ArtifactCache::run_build(ArtifactClass artifact_class, const std::string& key,
                              std::map<std::string, Entry<T>>& entries, std::promise<T>& promise,
                              Build&& build, [[maybe_unused]] const CancellationToken* cancel) {
    const ClassIds& ids = this->ids(artifact_class);
    const std::string name = artifact_class_name(artifact_class);
    const std::string site = "build." + name;
    std::exception_ptr failure;
    for (int attempt = 0; attempt < max_build_attempts_; ++attempt) {
        if (attempt > 0) metrics_.add(ids.retried);
        try {
            FOCS_FAULT_POINT_AT_CANCEL(site, key, next_build_attempt(artifact_class, key),
                                       cancel);
            T value = build();
            const std::uint64_t bytes = estimated_bytes_of(value);
            // Publish first (waiters unblock), then account: the entry is
            // pinned until make_resident links it into the LRU list.
            promise.set_value(std::move(value));
            metrics_.add(ids.built);
            make_resident(artifact_class, key, entries, bytes);
            return;
        } catch (const CancelledError& e) {
            // Cancellation is terminal by design: the caller asked to stop,
            // so retrying would only burn the deadline further.
            metrics_.add(ids.build_failed);
            failure = std::make_exception_ptr(CancelledError(
                "artifact build cancelled (" + name + " '" + key + "'): " + e.what(), e.code()));
            break;
        } catch (const std::exception& e) {
            metrics_.add(ids.build_failed);
            failure = std::make_exception_ptr(
                Error("artifact build failed (" + name + " '" + key + "'): " + e.what(),
                      ErrorCode::kArtifactBuild));
        } catch (...) {
            metrics_.add(ids.build_failed);
            failure = std::make_exception_ptr(Error("artifact build failed (" + name + " '" +
                                                        key + "'): unknown exception",
                                                    ErrorCode::kArtifactBuild));
        }
    }
    // Terminal failure: publish the classified exception to the waiters
    // already parked on the shared_future, then evict the entry under the
    // mutex so the *next* requester of this key re-elects a builder instead
    // of inheriting the stale exception. Resident entries are left alone:
    // the slot was replaced (pre-seeded) while this build was failing.
    promise.set_exception(failure);
    metrics_.add(ids.evicted);
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = entries.find(key); it != entries.end() && !it->second.resident) {
        entries.erase(it);
    }
}

template <typename T>
void ArtifactCache::make_resident(ArtifactClass artifact_class, const std::string& key,
                                  std::map<std::string, Entry<T>>& entries, std::uint64_t bytes) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries.find(key);
    if (it == entries.end() || it->second.resident) return;
    it->second.bytes = bytes;
    it->second.resident = true;
    it->second.lru = lru_.insert(lru_.end(), LruNode{artifact_class, key});
    cached_bytes_ += bytes;
    evict_over_budget_locked();
}

template <typename T>
void ArtifactCache::unlink_locked(Entry<T>& entry) {
    cached_bytes_ -= entry.bytes;
    lru_.erase(entry.lru);
    entry.bytes = 0;
    entry.resident = false;
}

void ArtifactCache::evict_over_budget_locked() {
    if (byte_budget_ == 0) return;
    const auto evict = [&](auto& entries, const LruNode& victim) {
        const auto it = entries.find(victim.key);
        check(it != entries.end(), "LRU node without a matching cache entry");
        cached_bytes_ -= it->second.bytes;
        entries.erase(it);
        lru_.pop_front();
        metrics_.add(ids(victim.artifact_class).evicted_lru);
    };
    // The newest entry (LRU back) is never evicted here: a single artifact
    // larger than the whole budget stays resident until the next entry
    // completes and pushes it to the front.
    while (cached_bytes_ > byte_budget_ && lru_.size() > 1) {
        const LruNode victim = lru_.front();
        switch (victim.artifact_class) {
            case ArtifactClass::kProgram: evict(programs_, victim); break;
            case ArtifactClass::kDelayTable:
                // Derived tables and the shared nominal statistics live in
                // separate maps under the same class; the key prefix tells
                // them apart.
                if (starts_with(victim.key, "nominal/")) {
                    evict(nominal_stats_, victim);
                } else {
                    evict(tables_, victim);
                }
                break;
            case ArtifactClass::kTrace: evict(traces_, victim); break;
            case ArtifactClass::kUnitDelays: evict(unit_delays_, victim); break;
        }
    }
}

void ArtifactCache::set_byte_budget(std::uint64_t bytes) {
    std::lock_guard<std::mutex> lock(mutex_);
    byte_budget_ = bytes;
    evict_over_budget_locked();
}

std::uint64_t ArtifactCache::byte_budget() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return byte_budget_;
}

std::uint64_t ArtifactCache::cached_bytes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return cached_bytes_;
}

std::uint64_t ArtifactCache::lru_evictions() const {
    std::uint64_t total = 0;
    for (const ArtifactClass artifact_class :
         {ArtifactClass::kProgram, ArtifactClass::kDelayTable, ArtifactClass::kTrace,
          ArtifactClass::kUnitDelays}) {
        total += metrics_.counter_value(ids(artifact_class).evicted_lru);
    }
    return total;
}

std::string ArtifactCache::design_key(const timing::DesignConfig& design,
                                      const dta::AnalyzerConfig& analyzer_config) {
    // %.17g round-trips every double, so two operating points that differ
    // in any bit never share a table.
    char buf[160];
    std::snprintf(buf, sizeof buf, "v%d:%.17g:%llu:g%.17g:m%d",
                  static_cast<int>(design.variant), design.voltage_v,
                  static_cast<unsigned long long>(design.seed), analyzer_config.lut_guard_ps,
                  analyzer_config.min_occurrences);
    return buf;
}

std::string ArtifactCache::nominal_key(const timing::DesignConfig& design) {
    // Free of the voltage, the guard band and the occurrence floor: one
    // nominal characterization serves every table of a (variant, seed).
    char buf[64];
    std::snprintf(buf, sizeof buf, "nominal/v%d:%llu", static_cast<int>(design.variant),
                  static_cast<unsigned long long>(design.seed));
    return buf;
}

std::string ArtifactCache::trace_key(const std::string& kernel,
                                     const sim::MachineConfig& machine_config) {
    char buf[160];
    std::snprintf(buf, sizeof buf, ":i%u:d%u:%u:w%llu:l%d", machine_config.imem_size,
                  machine_config.dmem_base, machine_config.dmem_size,
                  static_cast<unsigned long long>(machine_config.max_cycles),
                  machine_config.pipeline.div_latency);
    return kernel + buf;
}

std::shared_future<assembler::Program> ArtifactCache::program(const std::string& kernel) {
    std::promise<assembler::Program> promise;
    std::shared_future<assembler::Program> future = promise.get_future().share();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (const auto it = programs_.find(kernel); it != programs_.end()) {
            count_found(ArtifactClass::kProgram, it->second.future);
            if (it->second.resident) lru_.splice(lru_.end(), lru_, it->second.lru);
            return it->second.future;
        }
        programs_.emplace(kernel, Entry<assembler::Program>{future});
    }
    // This thread won the build; assemble outside the lock.
    metrics_.add(ids(ArtifactClass::kProgram).miss);
    const auto start = std::chrono::steady_clock::now();
    FOCS_OBS_SPAN(span, obs::global_tracer(), "cache.build.program");
    span.arg("key", kernel);
    run_build(ArtifactClass::kProgram, kernel, programs_, promise, [&] {
        return assembler::assemble(workloads::find_kernel(kernel).source);
    });
    metrics_.observe(ids(ArtifactClass::kProgram).build_ms, ms_since(start));
    return future;
}

std::shared_future<std::vector<assembler::Program>> ArtifactCache::characterization_programs() {
    std::promise<std::vector<assembler::Program>> promise;
    std::shared_future<std::vector<assembler::Program>> future = promise.get_future().share();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (characterization_programs_started_) return characterization_programs_;
        characterization_programs_ = future;
        characterization_programs_started_ = true;
    }
    try {
        promise.set_value(workloads::assemble_programs(workloads::characterization_suite()));
    } catch (...) {
        // Publish to current waiters, then clear the slot so a later
        // delay-table build attempt re-runs the suite assembly.
        promise.set_exception(std::current_exception());
        std::lock_guard<std::mutex> lock(mutex_);
        characterization_programs_started_ = false;
        characterization_programs_ = {};
    }
    return future;
}

std::shared_future<dta::DelayTable> ArtifactCache::delay_table(
    const timing::DesignConfig& design, const dta::AnalyzerConfig& analyzer_config,
    int flow_threads, const CancellationToken* cancel, bool reference_characterization) {
    const std::string key = design_key(design, analyzer_config);
    std::promise<dta::DelayTable> promise;
    std::shared_future<dta::DelayTable> future = promise.get_future().share();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (const auto it = tables_.find(key); it != tables_.end()) {
            count_found(ArtifactClass::kDelayTable, it->second.future);
            if (it->second.resident) lru_.splice(lru_.end(), lru_, it->second.lru);
            return it->second.future;
        }
        tables_.emplace(key, Entry<dta::DelayTable>{future});
    }
    // An explicit static-period override breaks the pure delay-scale
    // relation between operating points, so such requests always take the
    // reference flow.
    const bool reference = reference_characterization || analyzer_config.static_period_ps > 0;
    metrics_.add(ids(ArtifactClass::kDelayTable).miss);
    const auto start = std::chrono::steady_clock::now();
    FOCS_OBS_SPAN(span, obs::global_tracer(), "cache.build.delay_table");
    span.arg("key", key).arg("flow_threads", static_cast<std::int64_t>(flow_threads));
    run_build(
        ArtifactClass::kDelayTable, key, tables_, promise,
        [&]() -> dta::DelayTable {
            if (reference) {
                // Per-design-point reference characterization: the byte-identity
                // escape hatch (and the explicit-static-period path).
                // Dependency fetched inside the build so a retry after a
                // failed suite assembly re-elects that builder too.
                const auto programs = characterization_programs();
                const core::CharacterizationFlow flow(design, analyzer_config);
                core::CharacterizationOptions options;
                options.threads = flow_threads;
                options.cancel = cancel;
                dta::DelayTable table = flow.run(programs.get(), options).table;
                metrics_.add(reference_passes_id_);
                return table;
            }
            // Derived view: build this design point's guard band and
            // occurrence floor over the shared nominal statistics, scaled
            // by the cell library's delay ratio. delay_scale(kNominalVoltageV)
            // == 1.0 exactly, so the ratio is delay_scale(target) itself and
            // the table is bit-identical to a reference characterization of
            // the same design point (dta::build_delay_table).
            const auto nominal = nominal_stats(design, flow_threads, cancel);
            const double factor =
                timing::CellLibrary::fdsoi28().delay_scale(design.voltage_v);
            dta::DelayTable table =
                dta::build_delay_table(*nominal.get(), analyzer_config.lut_guard_ps,
                                       analyzer_config.min_occurrences, factor);
            metrics_.add(scaled_views_id_);
            return table;
        },
        cancel);
    metrics_.observe(ids(ArtifactClass::kDelayTable).build_ms, ms_since(start));
    return future;
}

std::shared_future<std::shared_ptr<const dta::CharacterizationStats>>
ArtifactCache::nominal_stats(const timing::DesignConfig& design, int flow_threads,
                             const CancellationToken* cancel) {
    const std::string key = nominal_key(design);
    std::promise<std::shared_ptr<const dta::CharacterizationStats>> promise;
    std::shared_future<std::shared_ptr<const dta::CharacterizationStats>> future =
        promise.get_future().share();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (const auto it = nominal_stats_.find(key); it != nominal_stats_.end()) {
            if (it->second.resident) lru_.splice(lru_.end(), lru_, it->second.lru);
            return it->second.future;
        }
        nominal_stats_.emplace(key,
                               Entry<std::shared_ptr<const dta::CharacterizationStats>>{future});
    }
    // This thread won the nominal build. No in-place retry here: a failure
    // is published to the current waiters and the slot cleared, so the
    // per-voltage builder's retry (run_build) re-elects a nominal builder
    // with a fresh attempt ordinal.
    const auto start = std::chrono::steady_clock::now();
    FOCS_OBS_SPAN(span, obs::global_tracer(), "cache.build.nominal_table");
    span.arg("key", key).arg("flow_threads", static_cast<std::int64_t>(flow_threads));
    try {
        FOCS_FAULT_POINT_AT_CANCEL("build.nominal_table", key,
                                   next_build_attempt(ArtifactClass::kDelayTable, key), cancel);
        timing::DesignConfig nominal_design = design;
        nominal_design.voltage_v = timing::kNominalVoltageV;
        const auto programs = characterization_programs();
        // The guard band and occurrence floor only shape the final table,
        // so the default analyzer config serves every design point. Only
        // the statistics are kept: the analysis, with its sample
        // reservoirs and figure histograms, dies with the flow result.
        const core::CharacterizationFlow flow(nominal_design);
        core::CharacterizationOptions options;
        options.threads = flow_threads;
        options.cancel = cancel;
        auto stats = std::make_shared<const dta::CharacterizationStats>(
            flow.run(programs.get(), options).analysis->characterization_stats());
        const std::uint64_t bytes = estimated_bytes_of(stats);
        promise.set_value(std::move(stats));
        metrics_.add(nominal_passes_id_);
        make_resident(ArtifactClass::kDelayTable, key, nominal_stats_, bytes);
    } catch (...) {
        promise.set_exception(std::current_exception());
        std::lock_guard<std::mutex> lock(mutex_);
        if (const auto it = nominal_stats_.find(key);
            it != nominal_stats_.end() && !it->second.resident) {
            nominal_stats_.erase(it);
        }
    }
    metrics_.observe(ids(ArtifactClass::kDelayTable).build_ms, ms_since(start));
    return future;
}

std::shared_future<sim::PipelineTrace> ArtifactCache::trace(
    const std::string& kernel, const sim::MachineConfig& machine_config) {
    const std::string key = trace_key(kernel, machine_config);
    std::promise<sim::PipelineTrace> promise;
    std::shared_future<sim::PipelineTrace> future = promise.get_future().share();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (const auto it = traces_.find(key); it != traces_.end()) {
            count_found(ArtifactClass::kTrace, it->second.future);
            if (it->second.resident) lru_.splice(lru_.end(), lru_, it->second.lru);
            return it->second.future;
        }
        traces_.emplace(key, Entry<sim::PipelineTrace>{future});
    }
    metrics_.add(ids(ArtifactClass::kTrace).miss);
    const auto start = std::chrono::steady_clock::now();
    FOCS_OBS_SPAN(span, obs::global_tracer(), "cache.build.trace");
    span.arg("key", key);
    run_build(ArtifactClass::kTrace, key, traces_, promise, [&] {
        const auto program = this->program(kernel);
        return sim::record_trace(program.get(), machine_config);
    });
    metrics_.observe(ids(ArtifactClass::kTrace).build_ms, ms_since(start));
    return future;
}

std::shared_future<std::shared_ptr<const timing::UnitTraceDelays>>
ArtifactCache::unit_trace_delays(const std::string& kernel, const timing::DesignConfig& design,
                                 const sim::MachineConfig& machine_config) {
    // Voltage-free key: the unit pass depends on the trace, the variant's
    // calibration bands and the jitter seed only, so every voltage point of
    // a sweep resolves to the same entry. The build steps its own guest run
    // rather than reading the trace entry, which keeps no CycleRecords.
    char design_part[64];
    std::snprintf(design_part, sizeof design_part, "@u%d:%llu",
                  static_cast<int>(design.variant),
                  static_cast<unsigned long long>(design.seed));
    const std::string key = trace_key(kernel, machine_config) + design_part;
    std::promise<std::shared_ptr<const timing::UnitTraceDelays>> promise;
    std::shared_future<std::shared_ptr<const timing::UnitTraceDelays>> future =
        promise.get_future().share();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (const auto it = unit_delays_.find(key); it != unit_delays_.end()) {
            count_found(ArtifactClass::kUnitDelays, it->second.future);
            if (it->second.resident) lru_.splice(lru_.end(), lru_, it->second.lru);
            return it->second.future;
        }
        unit_delays_.emplace(key,
                             Entry<std::shared_ptr<const timing::UnitTraceDelays>>{future});
    }
    metrics_.add(ids(ArtifactClass::kUnitDelays).miss);
    const auto start = std::chrono::steady_clock::now();
    FOCS_OBS_SPAN(span, obs::global_tracer(), "cache.build.unit_delays");
    span.arg("key", key);
    run_build(ArtifactClass::kUnitDelays, key, unit_delays_, promise,
              [&]() -> std::shared_ptr<const timing::UnitTraceDelays> {
                  const auto program = this->program(kernel);
                  const timing::DelayCalculator calculator(design);
                  return std::make_shared<const timing::UnitTraceDelays>(
                      timing::record_unit_trace_delays(calculator, program.get(),
                                                       machine_config));
              });
    metrics_.observe(ids(ArtifactClass::kUnitDelays).build_ms, ms_since(start));
    return future;
}

void ArtifactCache::put_delay_table(const timing::DesignConfig& design,
                                    const dta::AnalyzerConfig& analyzer_config,
                                    dta::DelayTable table) {
    const std::string key = design_key(design, analyzer_config);
    std::promise<dta::DelayTable> promise;
    const std::uint64_t bytes = table.estimated_bytes();
    promise.set_value(std::move(table));
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = tables_.find(key); it != tables_.end()) {
        if (it->second.resident) unlink_locked(it->second);
        tables_.erase(it);
    }
    Entry<dta::DelayTable> entry{promise.get_future().share()};
    entry.bytes = bytes;
    entry.resident = true;
    entry.lru = lru_.insert(lru_.end(), LruNode{ArtifactClass::kDelayTable, key});
    cached_bytes_ += bytes;
    tables_.emplace(key, std::move(entry));
    evict_over_budget_locked();
}

// ------------------------------------------------------ counter accessors

ArtifactClassCounters ArtifactCache::class_counters(ArtifactClass artifact_class) const {
    const ClassIds& ids = this->ids(artifact_class);
    return {metrics_.counter_value(ids.miss), metrics_.counter_value(ids.hit),
            metrics_.counter_value(ids.wait)};
}

ArtifactBuildStats ArtifactCache::build_stats(ArtifactClass artifact_class) const {
    const ClassIds& ids = this->ids(artifact_class);
    return {metrics_.counter_value(ids.built), metrics_.counter_value(ids.build_failed),
            metrics_.counter_value(ids.retried), metrics_.counter_value(ids.evicted),
            metrics_.counter_value(ids.evicted_lru)};
}

std::uint64_t ArtifactCache::characterizations_built() const {
    return metrics_.counter_value(nominal_passes_id_) +
           metrics_.counter_value(reference_passes_id_);
}

std::uint64_t ArtifactCache::nominal_passes() const {
    return metrics_.counter_value(nominal_passes_id_);
}

std::uint64_t ArtifactCache::scaled_views() const {
    return metrics_.counter_value(scaled_views_id_);
}

std::uint64_t ArtifactCache::reference_passes() const {
    return metrics_.counter_value(reference_passes_id_);
}

std::uint64_t ArtifactCache::cache_hits() const {
    std::uint64_t total = 0;
    for (const ArtifactClass artifact_class :
         {ArtifactClass::kProgram, ArtifactClass::kDelayTable, ArtifactClass::kTrace,
          ArtifactClass::kUnitDelays}) {
        total += class_counters(artifact_class).served();
    }
    return total;
}

std::uint64_t ArtifactCache::traces_recorded() const {
    return metrics_.counter_value(ids(ArtifactClass::kTrace).built);
}

std::uint64_t ArtifactCache::unit_delay_passes() const {
    return metrics_.counter_value(ids(ArtifactClass::kUnitDelays).built);
}

std::uint64_t ArtifactCache::unit_delay_reuses() const {
    return class_counters(ArtifactClass::kUnitDelays).served();
}

}  // namespace focs::runtime
