/**
 * @file
 * Concurrent batch-serving runtime over the kernel-backend layer.
 *
 * The BatchServer admits many concurrent workload requests (lowered
 * from the paper's workload traces, serve/workload.h), queues them
 * through bounded RequestQueues (backpressure + admission control),
 * and executes them on a fixed set of worker threads. In sharded mode
 * (BatchServerConfig::shards > 1) the workers split into groups, each
 * with its own queue, and requests route to the group owning their
 * workload's rotation-evk signature (shard/serve_shard.h). All workers
 * share one immutable CkksContext (whose KernelBackend may itself be
 * the limb-parallel engine), one KeyCache of evk material, and one
 * PlaintextStore — the re-entrancy of that shared hot path is what
 * PR 2 hardened (per-thread KernelStats shards, mutex-guarded lazy
 * caches, exception-safe thread pool).
 *
 * Determinism: request execution itself is deterministic (evaluator
 * ops are pure given key material), so N concurrent requests produce
 * bit-identical results to sequential execution as long as the evk
 * material is fixed up front — the constructor prewarms every key the
 * workload set references. tests/test_serving.cpp enforces this.
 *
 * Metrics: each drain window reports per-request latency percentiles
 * and aggregate requests/sec, HE-ops/sec, plus backend-measured
 * words/sec and modular mults/sec (KernelStats delta over the
 * window). Every outcome is booked once, into the server's own
 * obs::MetricsRegistry (always) and the process registry (iff
 * ARK_METRICS is on); drain() builds its ServeReport from the former.
 */

#pragma once

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "boot/key_cache.h"
#include "boot/plaintext_store.h"
#include "ckks/evaluator.h"
#include "graph/serve_schedule.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/clock.h"
#include "serve/metrics.h"
#include "serve/request_queue.h"
#include "shard/serve_shard.h"

namespace ark {

/** Serving runtime knobs. */
struct BatchServerConfig
{
    /** Request worker threads (each may additionally fan limb work
     *  onto the context's parallel backend). */
    size_t workers = 4;
    /** Bound on admitted-but-unstarted requests (see RequestQueue). */
    size_t queue_capacity = 64;
    /**
     * Schedule-aware mode (graph/serve_schedule.h). With EvkCluster,
     * the constructor reorders each workload's ops under the
     * bit-exact commutation dependence graph (same results,
     * guaranteed), and submitBatch() sorts queue admission so
     * requests sharing rotation-evk working sets run back to back.
     * SourceOrder is plain FCFS, byte for byte the pre-scheduler
     * behaviour.
     */
    SchedulePolicy schedule = SchedulePolicy::SourceOrder;
    /**
     * Sharded mode (shard/serve_shard.h). With shards > 1 the workers
     * split into that many groups, each draining its own bounded
     * queue (queue_capacity divides across groups in proportion to
     * the op weight the plan routes to each, at least 1 per group),
     * and every request routes to the group owning its workload's
     * rotation-evk signature — evk-affinity routing, so each group's
     * hot key set stays small and disjoint-ish. Requires
     * workers >= shards. Results are bit-identical to the single
     * queue (shards = 1, the default): routing only picks *where* a
     * pure function runs.
     */
    size_t shards = 1;
    /**
     * SLO-aware admission control (serve/admission.h): per-class
     * latency targets, priority shedding, and the online-rebalance
     * period. Disabled by default — the classic server admits
     * everything up to queue capacity, byte for byte the previous
     * behaviour. Targets are honored for goodput accounting even
     * while `enabled` is false.
     */
    AdmissionConfig admission;
    /**
     * Time source for every admission/shedding/rebalance decision and
     * for end-to-end latency. Null = SystemServeClock (production).
     * Tests inject a ManualServeClock so the adaptive layer replays
     * deterministically without sleeps (serve/clock.h). Borrowed,
     * never owned; must outlive the server.
     */
    const ServeClock *clock = nullptr;

    // --- Network front-end knobs (net/wire_server.h; all four are
    // documented in docs/configuration.md and overridable via the
    // ARK_LISTEN_ADDR / ARK_LISTEN_PORT / ARK_MAX_SESSIONS /
    // ARK_MAX_FRAME_MIB environment variables, see serveConfigFromEnv).

    /** Address the WireServer binds. Loopback by default: exposing an
     *  FHE compute endpoint beyond the host is an explicit opt-in. */
    std::string listen_addr = "127.0.0.1";
    /** TCP port; 0 = ephemeral (kernel-assigned, reported by
     *  WireServer::port() — what the tests and --smoke mode use). */
    u16 listen_port = 0;
    /** Concurrent client sessions admitted; further OPEN_SESSIONs are
     *  refused with wire code SESSION_LIMIT. */
    size_t max_sessions = 8;
    /** Receive-side cap on one frame's body (docs/wire_format.md §2);
     *  larger frames are refused with FRAME_TOO_LARGE before any body
     *  byte is read. */
    u64 max_frame_bytes = 256ull * 1024 * 1024;

    // --- Robustness knobs (docs/robustness.md; ARK_WATCHDOG_MS /
    // ARK_WORKER_STUCK_MS / ARK_IDLE_TIMEOUT_MS / ARK_IO_TIMEOUT_MS).

    /** Worker-watchdog period in milliseconds (0 = watchdog off, the
     *  default). The watchdog rides admissions like the rebalancer
     *  (no extra thread): every interval it joins+respawns exited
     *  workers and supersedes ones stuck past worker_stuck_ms.
     *  checkWorkers() runs one sweep on demand (tests). */
    u64 watchdog_interval_ms = 0;
    /** A worker busy on ONE job longer than this (against the
     *  injected clock) is considered stuck: the watchdog spawns a
     *  replacement and the straggler exits after settling its job. */
    u64 worker_stuck_ms = 1000;
    /** Idle-session reaper: a wire session with no frame for this
     *  long is closed with wire code IDLE_TIMEOUT (0 = never). */
    u64 idle_timeout_ms = 0;
    /** Send-side socket timeout per session: a client that stops
     *  reading its responses for this long is dropped (0 = never). */
    u64 io_timeout_ms = 0;
};

/**
 * Apply the serving environment overrides to @p cfg and return it:
 * ARK_LISTEN_ADDR (bind address), ARK_LISTEN_PORT (0..65535),
 * ARK_MAX_SESSIONS (1..4096), ARK_MAX_FRAME_MIB (1..16384, converted
 * to bytes), and ARK_SLO_P99_MS (1..3600000: enables SLO admission
 * control with that p99 target on every class that lacks one —
 * creating the default class when none are configured). The
 * robustness knobs follow the same pattern: ARK_WATCHDOG_MS
 * (0..3600000), ARK_WORKER_STUCK_MS (1..3600000), ARK_IDLE_TIMEOUT_MS
 * and ARK_IO_TIMEOUT_MS (0..3600000). Malformed values are fatal,
 * naming the offending value; an empty value counts as unset — same
 * discipline as ARK_BACKEND / ARK_THREADS.
 */
BatchServerConfig serveConfigFromEnv(BatchServerConfig cfg = {});

/** One worker group's live state (see BatchServer::liveStats). */
struct ShardLiveStats
{
    size_t queue_depth = 0;    ///< queued (admitted, unstarted) jobs
    size_t queue_capacity = 0; ///< this shard's admission budget
    size_t in_flight = 0;      ///< popped and currently executing
    u64 total_done = 0;        ///< completions since server start
};

/** Point-in-time server state for the live stats surface (the STATS
 *  wire frame and the periodic emitter). Unlike drain()'s ServeReport
 *  this does not wait for quiescence — it is a racy-but-consistent
 *  sample of a running server. */
struct ServerLiveStats
{
    std::vector<ShardLiveStats> shards;
    size_t outstanding = 0; ///< admitted but not yet completed
};

/** Multi-threaded request executor over shared CKKS state. */
class BatchServer
{
  public:
    /**
     * @param inputs pre-encrypted input templates requests start from
     *        (workload.input_index selects one, mod inputs.size()).
     * The constructor prewarms every evk the workloads reference
     * (deterministic key material), then starts the workers.
     */
    BatchServer(const CkksContext &ctx, KeyCache &keys,
                const PlaintextStore &plaintexts,
                std::vector<ServeWorkload> workloads,
                std::vector<Ciphertext> inputs,
                BatchServerConfig cfg = {});
    ~BatchServer();

    BatchServer(const BatchServer &) = delete;
    BatchServer &operator=(const BatchServer &) = delete;

    const std::vector<ServeWorkload> &workloads() const
    {
        return workloads_;
    }
    /** The shared scheme context (the WireServer needs it to bind the
     *  params hash and deserialize tenant payloads against). */
    const CkksContext &context() const { return ctx_; }
    const BatchServerConfig &config() const { return cfg_; }
    /** The time source every deadline/watchdog decision reads — the
     *  wire layer converts relative SUBMIT2 deadlines into this
     *  clock's absolute domain. */
    const ServeClock &clock() const { return clock_; }
    /** Live (not exited, not superseded) worker threads. */
    size_t workers() const;
    /** Worker groups (1 = the classic single-queue server). */
    size_t shards() const { return queues_.size(); }
    /** The affinity routing table (trivial when shards() == 1).
     *  Returned by value: the online rebalancer may swap the live
     *  table under its own lock at any admission. */
    ServeShardPlan shardPlan() const;
    /** The admission controller (class catalog + live predictions). */
    const AdmissionController &admission() const { return admission_; }

    /**
     * Admit one request of @p workload_index, blocking while the queue
     * is full (backpressure). Throws std::runtime_error after
     * shutdown().
     */
    std::future<ServeResult> submit(size_t workload_index);

    /**
     * Admission-controlled submit: refuses instead of blocking, with
     * the typed outcome: Full (capacity), Shed (SLO admission refused
     * it — back off), or Closed. @p out is set only on Admitted. The
     * open-loop driver keys its offered/admitted/shed/refused ledger
     * on this (serve/open_loop.h). Unlike submit() this never throws
     * on shutdown.
     */
    AdmitResult trySubmit(size_t workload_index,
                          std::future<ServeResult> &out);

    /**
     * Admission-controlled submit of a remote tenant's request: the
     * ciphertext deserialized from its SUBMIT frame plus its uploaded
     * key cache (null = use the server's own keys). Routes through
     * the SAME shard queues as in-process traffic — remote requests
     * exercise the admission, scheduling, and sharding planes
     * unchanged. Returns the typed admission outcome; @p out is set
     * only on Admitted. Never throws on shutdown (returns Closed):
     * the wire layer turns Closed into a SERVER_SHUTDOWN error frame.
     *
     * @p reserved_id (from reserveRequestId()) lets the caller know
     * the request id *before* admission, so spans recorded around the
     * submit (recv, respond) correlate with the worker's spans and
     * the RESPONSE frame's request_id. 0 = assign one here.
     *
     * @p deadline_us: absolute clock() deadline (0 = none). A worker
     * popping the job past it settles DeadlineExceeded instead of
     * executing (the SUBMIT2 path, docs/wire_format.md §5.19).
     */
    AdmitResult trySubmitRemote(size_t workload_index,
                                std::shared_ptr<Ciphertext> input,
                                KeyCache *tenant_keys,
                                std::future<ServeResult> &out,
                                u64 reserved_id = 0,
                                u64 deadline_us = 0);

    /** Draw the next request id without submitting anything — the
     *  wire layer tags its pre-admission trace spans with it, then
     *  passes it back through trySubmitRemote. */
    u64 reserveRequestId() { return next_id_.fetch_add(1); }

    /** Sample the running server's per-shard queue depth / in-flight
     *  counts (no quiescence wait; see ServerLiveStats). */
    ServerLiveStats liveStats() const;

    /**
     * Online shard rebalance (shard/serve_shard.h): measure the load
     * signal accumulated since the last rebalance (per-shard queue
     * peak depth) and, on a clear imbalance,
     * migrate one evk-signature group to the coldest shard. Only the
     * routing table swaps — queued and in-flight requests finish
     * where they are, so nothing is dropped and results stay
     * bit-identical. Returns true when the plan changed. Also runs
     * periodically from admissions when
     * AdmissionConfig::rebalance_interval_ms > 0 (against the
     * injected clock).
     */
    bool rebalanceNow();
    /** Rebalance against an explicit signal (deterministic tests). */
    bool rebalanceNow(const ServeShardSignal &signal);
    /** Routing-table swaps since server start. */
    size_t rebalances() const { return rebalance_count_.load(); }

    /**
     * Admit a whole batch. In schedule-aware mode the admission order
     * is clustered so requests sharing rotation evks co-locate
     * (graph/serve_schedule.h); futures are returned in the CALLER's
     * order regardless, so result i always answers workload_indices[i].
     * Blocking, like submit().
     */
    std::vector<std::future<ServeResult>>
    submitBatch(const std::vector<size_t> &workload_indices);

    /**
     * Block until every admitted request has completed, then return
     * the metrics window since the previous drain (and start a fresh
     * window). Safe to call repeatedly.
     */
    ServeReport drain();

    /** Refuse new requests, finish queued ones, join the workers.
     *  Idempotent; the destructor calls it. */
    void shutdown();

    /**
     * Graceful drain: refuse new requests and settle every QUEUED
     * (admitted, not yet started) job with the typed DrainRefused
     * error — its wire surface is SERVER_SHUTDOWN, so a remote client
     * knows the work was never started — then join the workers.
     * In-flight requests finish normally. Unlike shutdown() (which
     * lets workers finish queued work), nothing unstarted runs.
     * Idempotent, and idempotent against shutdown().
     */
    void shutdownGraceful();

    /**
     * One watchdog sweep, on demand: join + respawn workers whose
     * thread exited (crash), and supersede workers stuck on one job
     * longer than worker_stuck_ms (spawn a replacement; the straggler
     * exits after settling its job and is joined at shutdown). Safe
     * from any thread; also runs every watchdog_interval_ms off the
     * admission path. Returns the number of workers replaced.
     */
    size_t checkWorkers();
    /** Workers replaced by the watchdog since server start. */
    size_t respawns() const { return respawns_.load(); }

  private:
    /** One worker thread's slot. The thread owns busy/exit flags; the
     *  watchdog reads them and swaps in replacements. unique_ptr keeps
     *  slot addresses stable while the vector grows. */
    struct WorkerSlot
    {
        std::thread thread;
        size_t group = 0;
        /** clock() stamp when the current job was popped; 0 = idle. */
        std::atomic<u64> busy_since_us{0};
        /** The thread returned (injected crash / queue closed). */
        std::atomic<bool> exited{false};
        /** The watchdog replaced this worker; the thread exits after
         *  settling its in-hand job instead of popping more. */
        std::atomic<bool> superseded{false};
    };

    void workerLoop(WorkerSlot *slot);
    /** Append a fresh slot+thread for @p group (workers_m_ held). */
    void spawnWorker(size_t group);
    ServeResult execute(const ServeRequest &req) const;
    AdmitResult admitJob(ServeJob &&job, bool blocking);
    /** Record @p f(obs::MetricsTally &) into this server's registry
     *  and, iff ARK_METRICS is on, the process registry. */
    template <typename F>
    void book(const F &f);
    void book(obs::Counter c, u64 n = 1);
    void book(obs::Phase p, double ms);
    /** Settle @p job as a request of group @p group that completed
     *  with @p r: book it, resolve its promise, release it. Only a
     *  job that actually @p executed adds an execute-time sample. */
    void complete(ServeJob &&job, ServeResult r, size_t group,
                  bool executed);
    /** Settle @p job without executing it (shed, deadline expired,
     *  refused at drain): a typed @p kind error booked as @p counter.
     *  @p refused: @p job is a newcomer refused at admission, which
     *  never entered the in-flight gauge (see releaseOutstanding). */
    void settleUnexecuted(ServeJob &&job, ServeErrorKind kind,
                          const char *error, obs::Counter counter,
                          bool refused = false);
    /** Drop one outstanding_ hold and wake drain(). @p refused: the
     *  hold was a refused admission, so close the window again if
     *  nothing else ran in it (it must not skew the next wall clock). */
    void releaseOutstanding(bool refused = false);
    /** Fire rebalanceNow() when the configured interval elapsed. */
    void maybeRebalance();
    /** Fire checkWorkers() when watchdog_interval_ms elapsed. */
    void maybeWatchdog();
    /** Close queues (optionally extracting still-queued jobs), then
     *  join every worker thread. */
    void shutdownImpl(bool graceful);

    const CkksContext &ctx_;
    CkksEvaluator eval_;
    KeyCache &keys_;
    const PlaintextStore &plaintexts_;
    const std::vector<ServeWorkload> workloads_;
    const std::vector<Ciphertext> inputs_;
    const BatchServerConfig cfg_;
    AdmissionController admission_;
    const ServeClock &clock_;

    /** The live routing table (guarded by plan_m_: the rebalancer
     *  swaps it while admissions read it). */
    mutable std::mutex plan_m_;
    ServeShardPlan shard_plan_;
    /** Worker-thread count per group (fixed at construction; the
     *  admission prediction's drain denominator). */
    std::vector<size_t> shard_workers_;
    std::atomic<u64> last_rebalance_us_{0};
    std::atomic<size_t> rebalance_count_{0};

    /** One queue per worker group; index = shard. unique_ptr because
     *  RequestQueue pins a mutex (neither copyable nor movable). */
    std::vector<std::unique_ptr<RequestQueue>> queues_;
    /** Worker slots, including superseded/exited ones awaiting their
     *  shutdown join (guarded by workers_m_; slots themselves are
     *  lock-free for the owning thread). */
    mutable std::mutex workers_m_;
    std::vector<std::unique_ptr<WorkerSlot>> workers_;
    std::atomic<size_t> respawns_{0};
    std::atomic<u64> last_watchdog_us_{0};
    std::atomic<u64> next_id_{1};
    std::atomic<bool> shut_down_{false};

    /** submitted - completed; drain() waits for 0 (counted at submit
     *  time so a popped-but-running request still holds the drain). */
    std::atomic<size_t> outstanding_{0};
    /** Guards outstanding_'s transitions and the window bounds below:
     *  an admission opens the window and takes its hold in one
     *  critical section, and drain() closes it while holding this
     *  lock at outstanding_ == 0, so every booked outcome belongs to
     *  exactly one window. */
    std::mutex idle_m_;
    std::condition_variable idle_cv_;
    bool window_open_ = false;
    std::chrono::steady_clock::time_point window_start_{};
    KernelStats stats_baseline_;
    /** shard_total_done_ at the last drain (the window's baseline). */
    std::vector<u64> shard_done_base_;

    /** This server's outcomes: drain() snapshots and zeroes it. */
    obs::MetricsRegistry metrics_;
    /** Live per-group counters; unlike the window they survive
     *  drain(). */
    std::vector<std::atomic<u64>> shard_inflight_;
    std::vector<std::atomic<u64>> shard_total_done_;
};

} // namespace ark
