// Shared-artifact cache for the sweep runtime.
//
// A sweep grid re-uses four expensive artifacts across many cells:
// assembled Programs (one per kernel, shared by every policy/generator/
// voltage cell), the characterization DelayTable (see below), recorded
// PipelineTraces (one guest simulation per (kernel, machine config), shared
// by every clocking scheme replayed over it), and UnitTraceDelays (the
// voltage-free per-cycle required-period ground truth, one per (trace,
// design variant) — the *entire voltage axis* of a sweep derives its
// ScaledTraceDelays views from this one array). The cache computes each
// artifact exactly once behind a std::shared_future: the first requester
// becomes the builder, every concurrent requester blocks on the same
// future, and later requesters get the cached value immediately. All
// artifacts are immutable after construction, so sharing references across
// worker threads is safe.
//
// Delay tables are factorized along three design axes: voltage, guard band
// and occurrence floor. The expensive gate-level characterization flow runs
// exactly once per nominal key (variant, seed) at the cell library's
// nominal operating point (0.70 V, where delay_scale == 1.0 exactly), and
// keeps only its dta::CharacterizationStats: per-(key, stage) occurrence
// counts and raw maxima. Every per-(voltage, guard, floor) table is derived
// from that shared nominal entry by dta::build_delay_table — bit-identical
// to a reference characterization of the same design point (see
// DelayTable::scaled for the rounding-monotonicity argument). The nominal
// entry sits behind its own
// shared_future<shared_ptr<const CharacterizationStats>> with the same
// exactly-once election, and participates in the byte-budget LRU like any
// other entry. cache.delay_table.nominal_passes counts nominal flows
// actually executed and cache.delay_table.scaled_views counts derived
// tables; the per-design-point reference flow stays available behind
// delay_table(..., reference_characterization=true), counted in
// cache.delay_table.reference_passes.
//
// Every lookup lands in exactly one of three outcomes per artifact class,
// counted on an embedded (always-enabled, private) metrics registry:
//  - miss: this requester became the builder and ran the build;
//  - hit:  the entry was present and its future already ready;
//  - wait: the entry was present but still being built — the requester
//          blocks on the builder's shared_future.
// Misses are deterministic (the exactly-once contract: one per distinct
// key); the hit/wait split depends on thread scheduling, so consumers
// assert on misses and on hit+wait sums ("served"). Build durations land
// in per-class histograms, and builds record spans on the global tracer.
//
// Builder failures do NOT poison the cache. An elected builder retries a
// failing build in place (bounded by max_build_attempts, deterministic —
// the fault-injection attempt ordinal is cumulative per key); if every
// attempt fails, the exception is classified (ErrorCode::kArtifactBuild,
// or the cancellation code when a CancellationToken fired mid-build),
// published to the current waiters through the shared_future, and the
// entry is *evicted* under the mutex — so the next requester of the same
// key re-elects a builder instead of inheriting a stale exception for the
// process lifetime. Outcomes land in cache.<class>.build_failed /
// retried / evicted counters next to the lookup taxonomy above.
//
// Memory is bounded by an optional byte budget (set_byte_budget; 0 =
// unbounded, the default). Every completed entry is accounted at its
// artifact's estimated_bytes() and linked into one global LRU list
// (lookups touch entries most-recently-used); when the resident total
// exceeds the budget, least-recently-used entries are evicted until it
// fits, counted per class in cache.<class>.evicted_lru. In-flight entries
// (build still running) are pinned — they are not in the LRU list and can
// never be evicted, preserving the exactly-once builder election. Evicting
// a ready entry is always safe: consumers hold shared_future copies that
// keep the value alive, so eviction only drops the *cache's* reference —
// the next requester of that key re-builds. A single artifact larger than
// the whole budget is admitted (the build already paid for it) and then
// evicted as soon as the next entry completes.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "asm/program.hpp"
#include "common/cancel.hpp"
#include "dta/analyzer.hpp"
#include "dta/delay_table.hpp"
#include "obs/metrics.hpp"
#include "sim/trace_recorder.hpp"
#include "timing/design_config.hpp"
#include "timing/trace_delays.hpp"

namespace focs::runtime {

/// The four artifact classes the cache serves.
enum class ArtifactClass { kProgram, kDelayTable, kTrace, kUnitDelays };

/// Stable short name ("program"|"delay_table"|"trace"|"unit_delays") used
/// in metric names and JSON keys.
std::string artifact_class_name(ArtifactClass artifact_class);

/// Lookup-outcome counters of one artifact class (see the header comment
/// for the miss/hit/wait taxonomy).
struct ArtifactClassCounters {
    std::uint64_t miss = 0;
    std::uint64_t hit = 0;
    std::uint64_t wait = 0;

    /// Requests answered without building: hit + wait. Deterministic where
    /// the individual split is not.
    std::uint64_t served() const { return hit + wait; }
};

/// Build-outcome counters of one artifact class: `failed` counts failed
/// build attempts, `retried` in-place re-attempts after a failure,
/// `evicted` entries removed after a terminal failure (every attempt
/// exhausted) so later requesters re-elect a builder, `evicted_lru`
/// entries dropped by the byte-budget LRU policy.
struct ArtifactBuildStats {
    std::uint64_t built = 0;
    std::uint64_t failed = 0;
    std::uint64_t retried = 0;
    std::uint64_t evicted = 0;
    std::uint64_t evicted_lru = 0;
};

class ArtifactCache {
public:
    /// `max_build_attempts` bounds the in-place retry of a failing build
    /// (>= 1; the default pays one deterministic retry before declaring
    /// the failure terminal and evicting the entry).
    explicit ArtifactCache(int max_build_attempts = 2);

    /// Assembled program of a bundled kernel (benchmark or characterization
    /// suite). Throws focs::Error through the future on unknown kernels.
    std::shared_future<assembler::Program> program(const std::string& kernel);

    /// Characterization delay table of one design point (operating point,
    /// guard band, occurrence floor). By default the table is derived from
    /// the shared nominal statistics of (variant, seed) by
    /// dta::build_delay_table (one gate-level characterization per nominal
    /// key, bit-identical to characterizing the design point itself); pass
    /// `reference_characterization = true` to force the per-design-point
    /// reference flow instead (the byte-identity escape hatch). A table
    /// pre-seeded via put_delay_table for this design point always wins
    /// over both paths. The guard band and occurrence floor of
    /// `analyzer_config` are part of the table's key, so each design point
    /// is its own derived table, but not of the nominal key; an explicit
    /// analyzer_config.static_period_ps (> 0) disables the nominal
    /// factorization for that request (the override breaks the pure
    /// delay-scale relation the derivation depends on). `flow_threads` sets the
    /// batched characterization engine's intra-flow worker count for a
    /// build triggered by this request (it does not affect the artifact —
    /// every thread count produces the same table — so it is not part of
    /// the cache key); sweeps pass > 1 when grid-level parallelism would
    /// otherwise sit idle behind the build. `cancel` (optional, like
    /// flow_threads not part of the key) is polled by the characterization
    /// flow at batch boundaries: a fired token fails the build with the
    /// token's cancellation code, which evicts the entry — a later request
    /// without the token rebuilds.
    std::shared_future<dta::DelayTable> delay_table(const timing::DesignConfig& design,
                                                    const dta::AnalyzerConfig& analyzer_config,
                                                    int flow_threads = 1,
                                                    const CancellationToken* cancel = nullptr,
                                                    bool reference_characterization = false);

    /// Pre-seeds the table cache (e.g. a LUT loaded from disk with --lut),
    /// so the sweep skips characterization for this operating point.
    /// Counts as neither miss nor hit (nothing was built or requested).
    void put_delay_table(const timing::DesignConfig& design,
                         const dta::AnalyzerConfig& analyzer_config, dta::DelayTable table);

    /// Canonical recorded run of one (kernel, machine config): the guest is
    /// simulated exactly once, then every clocking scheme replays the
    /// trace. Recording triggers the kernel's program artifact on demand.
    std::shared_future<sim::PipelineTrace> trace(const std::string& kernel,
                                                 const sim::MachineConfig& machine_config = {});

    /// Voltage-free required-period ground truth of one trace: one unit
    /// pass per (kernel, design variant, seed, machine config),
    /// keyed *without* the voltage — every operating point on the voltage
    /// axis derives its ScaledTraceDelays view from this shared array
    /// (timing::scale_trace_delays), so a V-point grid pays one delay-model
    /// pass instead of V. `design.voltage_v` is ignored. The pass steps
    /// its own guest run of the kernel's program (the trace entry keeps no
    /// per-cycle records), so it neither requests nor waits on trace().
    std::shared_future<std::shared_ptr<const timing::UnitTraceDelays>> unit_trace_delays(
        const std::string& kernel, const timing::DesignConfig& design,
        const sim::MachineConfig& machine_config = {});

    /// Number of gate-level characterization flows actually executed (not
    /// pre-seeded, not cache hits, not derived tables): nominal passes plus
    /// reference passes. A sweep of one (variant, seed) pays exactly one
    /// (the nominal pass), however many voltages, guard bands and
    /// occurrence floors it spans.
    std::uint64_t characterizations_built() const;

    /// Nominal characterization flows executed (one per distinct nominal
    /// key (variant, seed); the cache.delay_table.nominal_passes counter).
    std::uint64_t nominal_passes() const;

    /// Per-(voltage, guard, floor) tables derived from a nominal entry via
    /// dta::build_delay_table (the cache.delay_table.scaled_views counter).
    std::uint64_t scaled_views() const;

    /// Per-design-point reference characterization flows executed on behalf of
    /// delay_table(..., reference_characterization=true) requests (the
    /// cache.delay_table.reference_passes counter).
    std::uint64_t reference_passes() const;

    /// Total requests answered from an already-present entry (hit + wait,
    /// summed over all four artifact classes).
    std::uint64_t cache_hits() const;

    /// Guest simulations actually recorded as traces (not cache hits). A
    /// replay sweep's exactly-once contract is asserted on this counter:
    /// one per distinct (kernel, machine config), independent of how many
    /// policy/generator/voltage cells consume the trace.
    std::uint64_t traces_recorded() const;

    /// Unit delay passes executed (not cache hits), each one guest run:
    /// exactly one per distinct (kernel, design variant, seed, machine
    /// config), independent of how many voltage points consume the array.
    std::uint64_t unit_delay_passes() const;

    /// Requests for a unit delay artifact answered from an already-present
    /// entry — the per-voltage (and per-cell) reuse count of the shared
    /// arrays.
    std::uint64_t unit_delay_reuses() const;

    /// Current miss/hit/wait totals of one artifact class. Exact once the
    /// requesting threads have quiesced; sweeps stamp before/after deltas
    /// into their JSON metrics block.
    ArtifactClassCounters class_counters(ArtifactClass artifact_class) const;

    /// Current built/failed/retried/evicted totals of one artifact class.
    ArtifactBuildStats build_stats(ArtifactClass artifact_class) const;

    int max_build_attempts() const { return max_build_attempts_; }

    /// Arms (or re-arms) the byte budget: when the resident total exceeds
    /// `bytes`, least-recently-used completed entries are evicted until it
    /// fits (immediately, and after every build completion). 0 disarms the
    /// budget (the default — sweeps on a private cache keep everything).
    void set_byte_budget(std::uint64_t bytes);
    std::uint64_t byte_budget() const;

    /// Bytes currently accounted to resident (completed, unpinned) entries.
    /// In-flight builds are pinned at 0 bytes until they complete.
    std::uint64_t cached_bytes() const;

    /// Total LRU evictions over all four classes (sum of the per-class
    /// cache.<class>.evicted_lru counters).
    std::uint64_t lru_evictions() const;

    /// Point-in-time view of the embedded registry (counters plus build
    /// duration histograms), e.g. for embedding into a trace export.
    obs::MetricsSnapshot metrics_snapshot() const { return metrics_.snapshot(); }

    static std::string design_key(const timing::DesignConfig& design,
                                  const dta::AnalyzerConfig& analyzer_config);
    /// Key of the shared nominal characterization statistics ("nominal/"
    /// prefix + variant, seed): free of the voltage, the guard band and the
    /// occurrence floor, which only shape the derived tables.
    static std::string nominal_key(const timing::DesignConfig& design);
    static std::string trace_key(const std::string& kernel,
                                 const sim::MachineConfig& machine_config);

private:
    /// One LRU list node: enough identity to erase the entry from its
    /// class map when evicted.
    struct LruNode {
        ArtifactClass artifact_class;
        std::string key;
    };
    using LruList = std::list<LruNode>;

    /// One cached artifact: the shared future every requester receives,
    /// plus LRU/byte-accounting state. `resident` is false while the build
    /// is in flight (pinned: not in the LRU list, never evicted) and true
    /// once the value was published and accounted.
    template <typename T>
    struct Entry {
        std::shared_future<T> future;
        std::uint64_t bytes = 0;
        bool resident = false;
        LruList::iterator lru{};
    };

    /// Assembled characterization suite, shared by every operating point's
    /// characterization run (assembly is voltage-independent).
    std::shared_future<std::vector<assembler::Program>> characterization_programs();

    /// Shared nominal characterization statistics: runs the
    /// characterization flow at the nominal operating point (delay_scale ==
    /// 1.0) exactly once per nominal_key and keeps only its
    /// CharacterizationStats. Internal lookups on this map are not counted
    /// in the miss/hit/wait taxonomy (the public per-design-point lookup
    /// already was); executed flows bump cache.delay_table.nominal_passes.
    /// On failure the slot is cleared so the derived table builder's
    /// in-place retry re-elects a nominal builder.
    std::shared_future<std::shared_ptr<const dta::CharacterizationStats>> nominal_stats(
        const timing::DesignConfig& design, int flow_threads, const CancellationToken* cancel);

    /// Classifies a found entry as hit (ready) or wait (pending) and bumps
    /// the class counter accordingly.
    template <typename T>
    void count_found(ArtifactClass artifact_class, const std::shared_future<T>& future);

    /// Shared builder-side protocol of all four artifact classes: runs
    /// `build` with bounded in-place retry and fault-injection attempt
    /// ordinals (delay rules observe `cancel`), publishes the value (or
    /// the classified terminal failure) through `promise`; on success the
    /// entry becomes resident in the LRU accounting, on terminal failure
    /// `key` is evicted from `entries` under the mutex. Cancellation is
    /// never retried.
    template <typename T, typename Build>
    void run_build(ArtifactClass artifact_class, const std::string& key,
                   std::map<std::string, Entry<T>>& entries, std::promise<T>& promise,
                   Build&& build, const CancellationToken* cancel = nullptr);

    /// Marks a just-built entry resident: accounts `bytes`, links the LRU
    /// node, and evicts over-budget entries. No-op when the entry vanished
    /// or was replaced (pre-seeded via put_delay_table) meanwhile.
    template <typename T>
    void make_resident(ArtifactClass artifact_class, const std::string& key,
                       std::map<std::string, Entry<T>>& entries, std::uint64_t bytes);

    /// Unlinks + un-accounts a resident entry (mutex held). The entry's
    /// map node must still be erased by the caller.
    template <typename T>
    void unlink_locked(Entry<T>& entry);

    /// Evicts least-recently-used resident entries until the resident
    /// total fits the budget (mutex held).
    void evict_over_budget_locked();

    /// Cumulative build-attempt ordinal of one (class, key): in-place
    /// retries AND post-eviction re-elections keep counting up, so a
    /// seeded fault rule's per-attempt draws never repeat for a key.
    std::uint64_t next_build_attempt(ArtifactClass artifact_class, const std::string& key);

    mutable std::mutex mutex_;
    int max_build_attempts_;
    std::map<std::string, std::uint64_t> build_attempts_;
    std::map<std::string, Entry<assembler::Program>> programs_;
    std::map<std::string, Entry<dta::DelayTable>> tables_;
    /// Shared nominal statistics (keys carry the "nominal/" prefix; LRU
    /// nodes dispatch on it within ArtifactClass::kDelayTable).
    std::map<std::string, Entry<std::shared_ptr<const dta::CharacterizationStats>>>
        nominal_stats_;
    std::map<std::string, Entry<sim::PipelineTrace>> traces_;
    std::map<std::string, Entry<std::shared_ptr<const timing::UnitTraceDelays>>> unit_delays_;
    std::shared_future<std::vector<assembler::Program>> characterization_programs_;
    bool characterization_programs_started_ = false;

    /// Byte-budget LRU state (all guarded by mutex_): front = least
    /// recently used. Only resident entries are linked.
    LruList lru_;
    std::uint64_t byte_budget_ = 0;  ///< 0 = unbounded
    std::uint64_t cached_bytes_ = 0;

    /// Always-enabled private registry: the cache's counters feed sweep
    /// result stamps and must be exact regardless of the global --metrics
    /// flag. The lookup path is lock-dominated, so the relaxed RMWs are
    /// noise.
    obs::MetricsRegistry metrics_{/*enabled=*/true};
    struct ClassIds {
        obs::MetricsRegistry::Id miss, hit, wait, built, build_ms;
        obs::MetricsRegistry::Id build_failed, retried, evicted, evicted_lru;
    };
    std::array<ClassIds, 4> ids_;
    /// Delay-table-only counters of the nominal factorization (metric names
    /// cache.delay_table.{nominal_passes,scaled_views,reference_passes}).
    obs::MetricsRegistry::Id nominal_passes_id_, scaled_views_id_, reference_passes_id_;

    const ClassIds& ids(ArtifactClass artifact_class) const {
        return ids_[static_cast<std::size_t>(artifact_class)];
    }
};

}  // namespace focs::runtime
