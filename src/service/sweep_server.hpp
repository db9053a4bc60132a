// FOCS-as-a-service: a hardened, long-lived sweep daemon.
//
// The sweep runtime already amortizes artifact builds *within* one process
// run; the server amortizes them *across* requests: a single shared
// ArtifactCache serves every request, so a warm repeat of a sweep performs
// zero characterizations and zero guest simulations (asserted in CI via the
// response's own metrics block). The protocol is the minimal HTTP subset in
// service/http.hpp: POST /sweep with a sweep-spec body returns the standard
// focs-sweep-v6 result JSON with one extra top-level field, "partial"
// (true when any cell failed or was cancelled), plus GET /healthz and
// GET /metricsz for probes.
//
// Robustness model, in the order a request meets it:
//  - Admission control: a single-threaded acceptor (deterministic admission
//    order) parses each request and either queues it or, when the bounded
//    queue is full, sheds it immediately with 503 and a JSON error body
//    carrying ErrorCode::kOverloaded — a parseable, bounded-latency "no"
//    instead of an unbounded pile-up.
//  - Deadlines: X-Focs-Deadline-Ms (or the server-wide default) arms a
//    CancellationToken at *admission*, so queue wait counts against the
//    budget. A fired deadline returns the finished cell prefix as partial
//    results (206) rather than nothing.
//  - Memory: the shared cache runs under a byte budget with LRU eviction
//    (see ArtifactCache); a long-lived daemon's resident set stays bounded
//    no matter how many distinct specs it has served.
//  - Drain: request_drain() (wired to SIGTERM/SIGINT by the CLI via the
//    async-signal-safe signal_fd) stops admitting — the listen socket
//    closes, so new connects are refused — and lets queued + in-flight
//    requests finish under their own deadlines; request_hard_cancel()
//    (second signal) additionally fires every in-flight token and answers
//    queued requests with 503. wait() returns once the last response is
//    written, after which the CLI flushes metrics/trace exports.
//
// Like the cache, the server keeps its counters (requests.{accepted,shed,
// served_ok,served_partial,bad_request,error}, queue depth watermark,
// request latency histogram) on a private always-enabled registry so CI
// can assert exact values regardless of the global --metrics flag.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "obs/metrics.hpp"
#include "runtime/artifact_cache.hpp"
#include "runtime/sweep_engine.hpp"
#include "service/http.hpp"

namespace focs::service {

struct ServerConfig {
    /// TCP port on 127.0.0.1; 0 binds an ephemeral port (read it back via
    /// port() after start()).
    int port = 0;
    /// Worker threads evaluating requests concurrently.
    int max_inflight = 2;
    /// Bound of the admission queue: at most max_inflight + queue_depth
    /// requests are open (queued or evaluating) at once; the next one is
    /// shed with 503/kOverloaded. Counted against queued + in-flight so the
    /// shed count does not depend on worker scheduling.
    int queue_depth = 8;
    /// Deadline applied to requests that carry no X-Focs-Deadline-Ms
    /// header; 0 = no default deadline.
    double deadline_default_ms = 0;
    /// ArtifactCache byte budget; 0 = unbounded.
    std::uint64_t cache_budget_bytes = 0;
    /// SweepEngine worker threads per request (0 = hardware concurrency).
    int jobs = 0;
    runtime::EvalMode mode = runtime::EvalMode::kReplay;
    /// Pin replay cells to the portable scalar kernel table (focs serve
    /// --no-simd); byte-identical results, diagnostic escape hatch only.
    bool force_scalar_replay = false;
};

/// Totals of the server's request counters (exact once quiesced).
struct ServerStats {
    std::uint64_t accepted = 0;
    std::uint64_t shed = 0;
    std::uint64_t served_ok = 0;       ///< 200 complete results
    std::uint64_t served_partial = 0;  ///< 206 partial results
    std::uint64_t bad_request = 0;     ///< 4xx
    std::uint64_t error = 0;           ///< 5xx (unexpected)

    std::uint64_t served() const { return served_ok + served_partial; }
};

class SweepServer {
public:
    explicit SweepServer(ServerConfig config);
    ~SweepServer();
    SweepServer(const SweepServer&) = delete;
    SweepServer& operator=(const SweepServer&) = delete;

    /// Binds 127.0.0.1:port, spawns the acceptor and max_inflight workers.
    /// Throws focs::Error when the socket cannot be bound.
    void start();

    /// Blocks until the server drained (every thread joined). Idempotent.
    void wait();

    /// Actual bound port (after start()).
    int port() const { return port_; }

    /// Graceful drain: stop admitting (listen socket closes), finish queued
    /// and in-flight requests under their own deadlines. Thread-safe.
    void request_drain();

    /// Hard drain: additionally fires every in-flight request's token and
    /// answers queued requests with 503. Thread-safe.
    void request_hard_cancel();

    /// Write end of the drain self-pipe: a signal handler may ::write()
    /// 'd' (drain) or 'c' (hard cancel) here — the only async-signal-safe
    /// way to reach the server from SIGTERM/SIGINT.
    int signal_fd() const { return drain_pipe_[1]; }

    bool draining() const;

    const std::shared_ptr<runtime::ArtifactCache>& cache() const { return cache_; }
    const ServerConfig& config() const { return config_; }

    ServerStats stats() const;

    /// Server registry + shared-cache registry, merged (the /metricsz body
    /// and the CLI's post-drain export).
    obs::MetricsSnapshot metrics_snapshot() const;

private:
    /// One admitted request: the connection, the parsed message and the
    /// deadline armed at admission time.
    struct Pending {
        int fd = -1;
        HttpRequest request;
        std::optional<CancellationToken> cancel;
        bool canonical = false;
    };

    void accept_loop();
    void worker_loop(int slot);
    void handle_connection(int fd);
    void admit_or_shed(int fd, HttpRequest request);
    void process(Pending pending);
    void begin_drain_locked(bool hard);
    void respond_and_close(int fd, const HttpResponse& response);

    ServerConfig config_;
    std::shared_ptr<runtime::ArtifactCache> cache_;

    int listen_fd_ = -1;
    int drain_pipe_[2] = {-1, -1};
    int port_ = 0;
    bool started_ = false;
    bool joined_ = false;

    std::thread acceptor_;
    std::vector<std::thread> workers_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<Pending> queue_;
    /// Tokens of requests currently being processed, one slot per worker —
    /// what request_hard_cancel() fires.
    std::vector<std::optional<CancellationToken>> active_;
    int inflight_ = 0;
    bool draining_ = false;

    obs::MetricsRegistry metrics_{/*enabled=*/true};
    struct Ids {
        obs::MetricsRegistry::Id accepted, shed, served_ok, served_partial, bad_request, error;
        obs::MetricsRegistry::Id queue_depth, request_ms;
    } ids_;
};

/// The focs-sweep-v6 result JSON with the service's "partial" field
/// injected as the first key (from_json ignores unknown keys, so the body
/// round-trips through the standard parser).
std::string sweep_response_body(const runtime::SweepResult& result, bool include_timing);

/// {"error": message, "error_code": name} — the body of every non-2xx.
std::string error_body(const std::string& message, ErrorCode code);

}  // namespace focs::service
