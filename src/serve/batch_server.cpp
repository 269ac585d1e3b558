#include "serve/batch_server.h"

#include <algorithm>
#include <stdexcept>

#include "common/env.h"
#include "common/logging.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ark {

BatchServerConfig
serveConfigFromEnv(BatchServerConfig cfg)
{
    if (const char *env = envValue("ARK_LISTEN_ADDR"))
        cfg.listen_addr = env;
    if (const auto v = envU64("ARK_LISTEN_PORT", 0, 65535,
                              "an integer in [0, 65535]; 0 = ephemeral"))
        cfg.listen_port = static_cast<u16>(*v);
    if (const auto v = envU64("ARK_MAX_SESSIONS", 1, 4096,
                              "an integer in [1, 4096]"))
        cfg.max_sessions = static_cast<size_t>(*v);
    if (const auto v = envU64("ARK_MAX_FRAME_MIB", 1, 16384,
                              "an integer in [1, 16384]"))
        cfg.max_frame_bytes = *v * 1024 * 1024;
    struct MsKnob
    {
        const char *var;
        u64 lo;
        u64 *field;
    };
    const MsKnob ms_knobs[] = {
        {"ARK_WATCHDOG_MS", 0, &cfg.watchdog_interval_ms},
        {"ARK_WORKER_STUCK_MS", 1, &cfg.worker_stuck_ms},
        {"ARK_IDLE_TIMEOUT_MS", 0, &cfg.idle_timeout_ms},
        {"ARK_IO_TIMEOUT_MS", 0, &cfg.io_timeout_ms},
    };
    for (const MsKnob &k : ms_knobs) {
        const char *expected =
            k.lo == 0 ? "an integer in [0, 3600000] milliseconds"
                      : "an integer in [1, 3600000] milliseconds";
        if (const auto v = envU64(k.var, k.lo, 3600000, expected))
            *k.field = *v;
    }
    if (const auto v = envU64("ARK_SLO_P99_MS", 1, 3600000,
                              "an integer in [1, 3600000] milliseconds")) {
        cfg.admission.enabled = true;
        if (cfg.admission.classes.empty())
            cfg.admission.classes.push_back(SloClass{});
        for (SloClass &cls : cfg.admission.classes) {
            if (cls.p99_ms <= 0)
                cls.p99_ms = static_cast<double>(*v);
        }
    }
    return cfg;
}

BatchServer::BatchServer(const CkksContext &ctx, KeyCache &keys,
                         const PlaintextStore &plaintexts,
                         std::vector<ServeWorkload> workloads,
                         std::vector<Ciphertext> inputs,
                         BatchServerConfig cfg)
    : ctx_(ctx),
      eval_(ctx),
      keys_(keys),
      plaintexts_(plaintexts),
      workloads_(std::move(workloads)),
      inputs_(std::move(inputs)),
      cfg_(cfg),
      admission_(cfg.admission),
      clock_(cfg.clock != nullptr ? *cfg.clock
                                  : SystemServeClock::instance()),
      queue_(cfg.queue_capacity)
{
    ARK_ASSERT(!workloads_.empty(), "server needs at least one workload");
    ARK_ASSERT(!inputs_.empty(), "server needs at least one input");
    ARK_ASSERT(cfg_.workers > 0, "server needs at least one worker");
    ARK_ASSERT(cfg_.shards == 1,
               "a server has exactly one queue: shards must be 1");
    ARK_ASSERT(cfg_.schedule == SchedulePolicy::SourceOrder,
               "a server runs ops in workload order: schedule must be "
               "SourceOrder");
    last_watchdog_us_.store(clock_.nowMicros());

    // Prewarm every evk the workload set references while still
    // single-threaded: key generation draws from the keygen Rng, so
    // warming here in KeyCache::warm's canonical (sorted) order is
    // what makes concurrent execution bit-identical to sequential.
    std::vector<i64> amounts;
    for (const auto &w : workloads_) {
        const std::vector<i64> amts = w.rotationAmounts();
        amounts.insert(amounts.end(), amts.begin(), amts.end());
    }
    keys_.warm(std::move(amounts));

    workers_.reserve(cfg_.workers);
    std::lock_guard<std::mutex> lk(workers_m_);
    for (size_t i = 0; i < cfg_.workers; ++i)
        spawnWorker();
}

void
BatchServer::spawnWorker()
{
    auto slot = std::make_unique<WorkerSlot>();
    WorkerSlot *p = slot.get();
    workers_.push_back(std::move(slot));
    p->thread = std::thread([this, p] { workerLoop(p); });
}

size_t
BatchServer::workers() const
{
    std::lock_guard<std::mutex> lk(workers_m_);
    size_t n = 0;
    for (const auto &s : workers_) {
        if (!s->exited.load() && !s->superseded.load())
            ++n;
    }
    return n;
}

size_t
BatchServer::checkWorkers()
{
    if (shut_down_.load())
        return 0;
    std::lock_guard<std::mutex> lk(workers_m_);
    const u64 now_us = clock_.nowMicros();
    const u64 stuck_us = cfg_.worker_stuck_ms * 1000;
    size_t replaced = 0;
    // Replacements append to workers_; bound the scan to the slots
    // that existed when the sweep started.
    const size_t n = workers_.size();
    for (size_t i = 0; i < n; ++i) {
        WorkerSlot &s = *workers_[i];
        if (s.superseded.load())
            continue;
        if (s.exited.load()) {
            if (s.thread.joinable())
                s.thread.join();
            s.superseded.store(true);
            spawnWorker();
            ++replaced;
            continue;
        }
        const u64 busy = s.busy_since_us.load();
        if (busy != 0 && now_us > busy && now_us - busy >= stuck_us) {
            // A stuck thread cannot be joined: replace it now and let
            // it exit after settling its in-hand job (its superseded
            // flag); the zombie joins at shutdown. If it was merely
            // slow, the spurious replacement is benign — it finishes
            // its job, sees the flag, and bows out.
            s.superseded.store(true);
            spawnWorker();
            ++replaced;
        }
    }
    if (replaced > 0) {
        respawns_.fetch_add(replaced);
        book(obs::Counter::WorkerRespawns, static_cast<u64>(replaced));
        ARK_LOG(Info, "watchdog replaced %zu worker(s)", replaced);
    }
    return replaced;
}

void
BatchServer::maybeWatchdog()
{
    const u64 interval_ms = cfg_.watchdog_interval_ms;
    if (interval_ms == 0)
        return;
    const u64 now_us = clock_.nowMicros();
    u64 last_us = last_watchdog_us_.load();
    if (now_us - last_us < interval_ms * 1000)
        return;
    // One admission wins the race to sweep this interval; losers
    // skip (the CAS moved the deadline) instead of dogpiling.
    if (!last_watchdog_us_.compare_exchange_strong(last_us, now_us))
        return;
    checkWorkers();
}

BatchServer::~BatchServer()
{
    shutdown();
}

template <typename F>
void
BatchServer::book(const F &f)
{
    metrics_.update(f);
    if (obs::metricsEnabled())
        obs::MetricsRegistry::global().update(f);
}

void
BatchServer::book(obs::Counter c, u64 n)
{
    book([&](obs::MetricsTally &t) { t.count(c, n); });
}

void
BatchServer::book(obs::Phase p, double ms)
{
    book([&](obs::MetricsTally &t) { t.observe(p, ms); });
}

void
BatchServer::releaseOutstanding(bool refused)
{
    {
        // Decrement-then-notify under the idle mutex so drain() can
        // never observe the old count after its predicate check.
        std::lock_guard<std::mutex> lk(idle_m_);
        outstanding_.fetch_sub(1);
        if (refused && window_open_ && outstanding_.load() == 0 &&
            total_done_.load() == done_base_)
            window_open_ = false;
    }
    idle_cv_.notify_all();
}

void
BatchServer::settleUnexecuted(ServeJob &&job, ServeErrorKind kind,
                              const char *error, obs::Counter counter,
                              bool refused)
{
    ServeResult r;
    r.id = job.request.id;
    r.error = error;
    r.error_kind = kind;
    job.promise.set_value(std::move(r));
    book(counter);
    if (!refused)
        obs::gaugeAdd(obs::Gauge::InFlight, -1);
    releaseOutstanding(refused);
}

void
BatchServer::complete(ServeJob &&job, ServeResult r, bool executed)
{
    // Settle the request against its SLO class's end-to-end budget,
    // and feed the admission controller's service model.
    double e2e_ms = 0;
    if (job.submit_us != 0)
        e2e_ms = static_cast<double>(clock_.nowMicros() - job.submit_us) /
                 1000.0;
    const double target_ms = admission_.classAt(job.class_id).p99_ms;
    const bool slo_good = r.ok && target_ms > 0 && e2e_ms <= target_ms;
    if (executed)
        admission_.recordService(job.class_id, r.latency_ms);
    book([&](obs::MetricsTally &t) {
        t.count(r.ok ? obs::Counter::RequestsDone
                     : obs::Counter::RequestsFailed);
        t.count(obs::Counter::HeOps, r.he_ops);
        if (slo_good)
            t.count(obs::Counter::RequestsSloGood);
        if (executed)
            t.observe(obs::Phase::Execute, r.latency_ms);
        t.observe(obs::Phase::E2e, e2e_ms);
    });
    obs::gaugeAdd(obs::Gauge::InFlight, -1);
    total_done_.fetch_add(1);
    job.promise.set_value(std::move(r));
    releaseOutstanding();
}

AdmitResult
BatchServer::admitJob(ServeJob &&job, bool blocking)
{
    const bool observed = obs::traceEnabled() || obs::metricsEnabled();
    obs::ScopedSpan admit_span("admit", job.request.id);
    const size_t workload_index = job.request.workload_index;

    // The SLO class rides with the job, so eviction decisions and the
    // worker's goodput accounting never re-derive it.
    job.class_id = admission_.classOf(workload_index);
    job.priority = admission_.classAt(job.class_id).priority;
    // End-to-end latency stamp (the quantity the SLO targets bound),
    // from the injected clock so tests replay it deterministically.
    job.submit_us = clock_.nowMicros();

    // The worker watchdog rides on admissions — no extra thread, and
    // a server with no traffic has nothing to resuscitate anyway.
    maybeWatchdog();

    // Stamp only when someone will read it: the disabled path takes
    // no extra clock read (the overhead gate's contract).
    if (observed)
        job.enqueue_tp = std::chrono::steady_clock::now();
    const auto admit_t0 = job.enqueue_tp;

    {
        // Take the drain hold and open the metrics window together
        // (see idle_m_): the window opens at first admission so
        // throughput covers queueing, not just service.
        std::lock_guard<std::mutex> lk(idle_m_);
        outstanding_.fetch_add(1);
        if (!window_open_) {
            window_open_ = true;
            window_start_ = std::chrono::steady_clock::now();
            stats_baseline_ = ctx_.backend().stats();
        }
    }

    // SLO admission: while the predicted p99 for this class exceeds
    // its target, make room from the BOTTOM of the priority order —
    // evict queued strictly-lower-priority work (each victim's future
    // resolves with the retryable Shed error), and only when nothing
    // lower-priority is queued shed the newcomer itself. Bounded: a
    // pass either admits, evicts one victim, or sheds the newcomer.
    AdmitResult admitted = AdmitResult::Admitted;
    for (size_t pass = 0; pass <= queue_.capacity(); ++pass) {
        u32 lowest = 0;
        const bool nonempty = queue_.lowestPriority(lowest);
        const AdmissionVerdict verdict = admission_.decide(
            job.class_id, queue_.size(), cfg_.workers,
            nonempty, lowest);
        if (verdict == AdmissionVerdict::Admit)
            break;
        if (verdict == AdmissionVerdict::EvictLower) {
            ServeJob victim;
            if (queue_.evictLowestBelow(job.priority, victim))
                settleUnexecuted(std::move(victim), ServeErrorKind::Shed,
                                 "shed by SLO admission control (evicted "
                                 "from queue for higher-priority work)",
                                 obs::Counter::RequestsShed);
            continue; // re-decide against the reduced depth
        }
        admitted = AdmitResult::Shed;
        break;
    }

    if (admitted == AdmitResult::Admitted) {
        if (blocking) {
            // A blocking push only fails when the queue was closed.
            admitted = queue_.push(std::move(job))
                           ? AdmitResult::Admitted
                           : AdmitResult::Closed;
        } else {
            admitted = queue_.tryPush(std::move(job));
            // A Full refusal that raced a shutdown() past the
            // caller's entry check must report Closed: "retry later"
            // would be a lie once the queues stop admitting.
            if (admitted == AdmitResult::Full &&
                (shut_down_.load() || queue_.closed()))
                admitted = AdmitResult::Closed;
        }
    }

    if (admitted == AdmitResult::Shed) {
        settleUnexecuted(std::move(job), ServeErrorKind::Shed,
                         "shed by SLO admission control (predicted p99 "
                         "over target)",
                         obs::Counter::RequestsShed, /*refused=*/true);
    } else if (admitted != AdmitResult::Admitted) {
        book(obs::Counter::AdmitRefused);
        releaseOutstanding(/*refused=*/true);
    } else {
        book(obs::Counter::AdmitAccepted);
        obs::gaugeAdd(obs::Gauge::InFlight, 1);
    }
    if (obs::metricsEnabled()) {
        book(obs::Phase::Admit,
             std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - admit_t0)
                 .count());
        // Sampled depth gauge: one sample per admission attempt is
        // plenty for a "what does the queue look like" readout.
        obs::gaugeSet(obs::Gauge::QueueDepth,
                      static_cast<i64>(queue_.size()));
    }
    return admitted;
}

AdmitResult
BatchServer::trySubmitRemote(size_t workload_index,
                             std::shared_ptr<Ciphertext> input,
                             KeyCache *tenant_keys,
                             std::future<ServeResult> &out,
                             u64 reserved_id, u64 deadline_us)
{
    ARK_ASSERT(workload_index < workloads_.size(),
               "workload index out of range");
    if (shut_down_.load())
        return AdmitResult::Closed;

    ServeJob job;
    job.request.id =
        reserved_id != 0 ? reserved_id : next_id_.fetch_add(1);
    job.request.workload_index = workload_index;
    job.request.input = std::move(input);
    job.request.tenant_keys = tenant_keys;
    job.deadline_us = deadline_us;
    std::future<ServeResult> fut = job.promise.get_future();

    const AdmitResult admitted =
        admitJob(std::move(job), /*blocking=*/false);
    if (admitted == AdmitResult::Admitted)
        out = std::move(fut);
    return admitted;
}

std::future<ServeResult>
BatchServer::submit(size_t workload_index)
{
    ARK_ASSERT(workload_index < workloads_.size(),
               "workload index out of range");
    if (shut_down_.load())
        throw std::runtime_error("BatchServer is shut down");

    ServeJob job;
    job.request.id = next_id_.fetch_add(1);
    job.request.workload_index = workload_index;
    std::future<ServeResult> fut = job.promise.get_future();

    // A blocking push only refuses with Closed. Under SLO admission a
    // blocking submit may still be shed: the returned future then
    // resolves immediately with the typed Shed result
    // (ServeErrorKind::Shed), never blocking the caller.
    if (admitJob(std::move(job), /*blocking=*/true) == AdmitResult::Closed)
        throw std::runtime_error("BatchServer is shut down");
    return fut;
}

AdmitResult
BatchServer::trySubmit(size_t workload_index,
                       std::future<ServeResult> &out)
{
    // An in-process request is a remote one on the server's own input
    // and keys.
    return trySubmitRemote(workload_index, nullptr, nullptr, out);
}

std::vector<std::future<ServeResult>>
BatchServer::submitBatch(const std::vector<size_t> &workload_indices)
{
    std::vector<std::future<ServeResult>> futs(
        workload_indices.size());
    for (size_t pos : clusterAdmissionOrder(workloads_, workload_indices))
        futs[pos] = submit(workload_indices[pos]);
    return futs;
}

ServeResult
BatchServer::execute(const ServeRequest &req) const
{
    const ServeWorkload &w = workloads_[req.workload_index];
    ServeResult r;
    r.id = req.id;

    // Remote requests carry their own input ciphertext and their
    // tenant's uploaded key cache; in-process ones use the server's.
    KeyCache &keys = req.tenant_keys ? *req.tenant_keys : keys_;

    const auto t0 = std::chrono::steady_clock::now();
    try {
        Ciphertext ct = req.input
                            ? *req.input
                            : inputs_[w.input_index % inputs_.size()];
        for (const ServeOp &op : w.ops) {
            switch (op.kind) {
              case ServeOpKind::Square:
                if (ct.level() < 1)
                    throw LevelExhaustedError(
                        "level budget exhausted before Square");
                ct = eval_.square(ct, keys.multiplication());
                break;
              case ServeOpKind::Rescale:
                if (ct.level() < 1)
                    throw LevelExhaustedError(
                        "level budget exhausted before Rescale");
                ct = eval_.rescale(ct);
                break;
              case ServeOpKind::Rotate:
                ct = eval_.rotate(ct, op.rotation,
                                  keys.rotation(op.rotation));
                break;
              case ServeOpKind::MulPlain: {
                if (ct.level() < 1)
                    throw LevelExhaustedError(
                        "level budget exhausted before MulPlain");
                Plaintext pt = plaintexts_.get(
                    op.pt_index % plaintexts_.size(), ct.level());
                ct = eval_.mulPlain(ct, pt);
                break;
              }
              case ServeOpKind::AddScalar:
                ct = eval_.addScalar(ct, op.scalar);
                break;
            }
            ++r.he_ops;
        }
        r.ok = true;
        r.final_level = ct.level();
        r.checksum = ciphertextChecksum(ct);
        if (req.input)
            r.output = std::make_shared<Ciphertext>(std::move(ct));
    } catch (const LevelExhaustedError &e) {
        r.ok = false;
        r.error = e.what();
        r.error_kind = ServeErrorKind::LevelExhausted;
    } catch (const MissingKeyError &e) {
        r.ok = false;
        r.error = e.what();
        r.error_kind = ServeErrorKind::MissingKey;
    } catch (const std::exception &e) {
        r.ok = false;
        r.error = e.what();
        r.error_kind = ServeErrorKind::Other;
    }
    const auto t1 = std::chrono::steady_clock::now();
    r.latency_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    return r;
}

void
BatchServer::workerLoop(WorkerSlot *slot)
{
    // Register this thread's metrics shard before the first request's
    // transient buffers: allocated later, the long-lived shard can sit
    // above freed memory in the thread's malloc arena and keep it from
    // being trimmed (about +1 MiB peak RSS on a 2-worker server).
    metrics_.update([](obs::MetricsTally &) {});
    ServeJob job;
    while (queue_.pop(job)) {
        // 0 is the idle sentinel; an injected clock may legitimately
        // read 0 at the first pop, so clamp the stamp to 1.
        slot->busy_since_us.store(std::max<u64>(clock_.nowMicros(), 1));

        // Injected worker faults, asked once per popped job. The stall
        // gate holds the worker (visibly busy to the watchdog) until
        // release; skipped during shutdown so joins cannot hang.
        bool crash = false;
        if (fault::faultsEnabled() && !shut_down_.load()) {
            auto &fi = fault::FaultInjector::global();
            if (fi.shouldInject(fault::Site::WorkerStall))
                fi.enterStall([this] { return shut_down_.load(); });
            crash = fi.shouldInject(fault::Site::WorkerCrash);
        }

        // Deadline gate: expired work is dropped here, before the
        // evaluator spends anything on it. Checked after the stall
        // gate on purpose — a stalled worker pops a job, time passes,
        // and the deadline does its job.
        if (job.deadline_us != 0 &&
            clock_.nowMicros() > job.deadline_us) {
            settleUnexecuted(std::move(job),
                             ServeErrorKind::DeadlineExceeded,
                             "deadline expired before execution started",
                             obs::Counter::DeadlineExpired);
            slot->busy_since_us.store(0);
            if (crash || slot->superseded.load())
                break;
            continue;
        }

        // Injected crash: settle the in-hand job as failed through the
        // normal accounting (promise, counters, outstanding_) so
        // nothing leaks, then let the thread die — recovery is the
        // watchdog's job, not this thread's. It never executed, so it
        // adds no execute-time sample.
        if (crash) {
            ServeResult r;
            r.id = job.request.id;
            r.error = "injected worker crash";
            r.error_kind = ServeErrorKind::Other;
            complete(std::move(job), std::move(r), /*executed=*/false);
            break;
        }

        const u64 rid = job.request.id;
        const bool observed =
            obs::traceEnabled() || obs::metricsEnabled();
        const bool stamped =
            job.enqueue_tp != std::chrono::steady_clock::time_point{};
        std::chrono::steady_clock::time_point pop_tp{};
        if (observed && stamped) {
            // queue_wait: admission stamp -> this pop.
            pop_tp = std::chrono::steady_clock::now();
            if (obs::traceEnabled())
                obs::TraceSession::global().record(
                    "queue_wait", rid, job.enqueue_tp, pop_tp);
            book(obs::Phase::QueueWait,
                 std::chrono::duration<double, std::milli>(
                     pop_tp - job.enqueue_tp)
                     .count());
        }
        inflight_.fetch_add(1);
        ServeResult r;
        {
            // dispatch: pop -> execution start (the bookkeeping
            // between the two).
            std::chrono::steady_clock::time_point exec_tp{};
            if (observed && stamped) {
                exec_tp = std::chrono::steady_clock::now();
                if (obs::traceEnabled())
                    obs::TraceSession::global().record(
                        "dispatch", rid, pop_tp, exec_tp);
                book(obs::Phase::Dispatch,
                     std::chrono::duration<double, std::milli>(
                         exec_tp - pop_tp)
                         .count());
            }
            obs::ScopedSpan execute_span("execute", rid);
            r = execute(job.request);
        }
        inflight_.fetch_sub(1);
        complete(std::move(job), std::move(r), /*executed=*/true);
        slot->busy_since_us.store(0);
        // A superseded worker (the watchdog already spawned its
        // replacement) exits after settling its job instead of
        // competing with the replacement for pops.
        if (slot->superseded.load())
            break;
    }
    slot->exited.store(true);
}

ServerLiveStats
BatchServer::liveStats() const
{
    ServerLiveStats s;
    s.queue_depth = queue_.size();
    s.queue_capacity = queue_.capacity();
    s.in_flight = static_cast<size_t>(inflight_.load());
    s.total_done = total_done_.load();
    s.outstanding = outstanding_.load();
    return s;
}

ServeReport
BatchServer::drain()
{
    // Held to the end: admissions wait on idle_m_, so the window
    // closes at outstanding_ == 0 with every outcome of it booked.
    std::unique_lock<std::mutex> lk(idle_m_);
    idle_cv_.wait(lk, [this] { return outstanding_.load() == 0; });
    const auto now = std::chrono::steady_clock::now();
    const obs::MetricsSnapshot win = metrics_.snapshotAndReset();
    const auto counted = [&](obs::Counter c) {
        return static_cast<size_t>(win.counters[static_cast<size_t>(c)]);
    };

    ServeReport rep;
    done_base_ = total_done_.load();
    rep.failed = counted(obs::Counter::RequestsFailed);
    rep.requests = counted(obs::Counter::RequestsDone) + rep.failed;
    rep.shed = counted(obs::Counter::RequestsShed);
    rep.slo_good = counted(obs::Counter::RequestsSloGood);
    rep.deadline_expired = counted(obs::Counter::DeadlineExpired);
    rep.drain_refused = counted(obs::Counter::DrainRefused);
    rep.he_ops = counted(obs::Counter::HeOps);
    rep.latency = LatencySummary::from(
        win.phases[static_cast<size_t>(obs::Phase::Execute)]);
    rep.e2e = LatencySummary::from(
        win.phases[static_cast<size_t>(obs::Phase::E2e)]);
    if (window_open_) {
        rep.wall_seconds =
            std::chrono::duration<double>(now - window_start_).count();
        // Backend tallies are quiescent here (no request in flight),
        // so the delta is exactly this window's kernel work.
        const KernelStats now_stats = ctx_.backend().stats();
        rep.kernel_words =
            now_stats.totalWords() - stats_baseline_.totalWords();
        rep.mod_mults =
            now_stats.totalMults() - stats_baseline_.totalMults();
    }
    if (rep.wall_seconds > 0) {
        const double s = rep.wall_seconds;
        rep.requests_per_sec = static_cast<double>(rep.requests) / s;
        rep.he_ops_per_sec = static_cast<double>(rep.he_ops) / s;
        rep.goodput_per_sec = static_cast<double>(rep.slo_good) / s;
        rep.words_per_sec = static_cast<double>(rep.kernel_words) / s;
        rep.mults_per_sec = static_cast<double>(rep.mod_mults) / s;
    }
    window_open_ = false;
    return rep;
}

void
BatchServer::shutdownImpl(bool graceful)
{
    if (shut_down_.exchange(true))
        return;
    std::vector<ServeJob> refused;
    if (graceful)
        queue_.closeNow(refused);
    else
        queue_.close();
    // Graceful drain: every queued-but-unstarted job gets the typed
    // refusal (its wire surface is SERVER_SHUTDOWN), so no client is
    // left holding a promise that never resolves.
    for (ServeJob &job : refused)
        settleUnexecuted(std::move(job), ServeErrorKind::DrainRefused,
                         "refused at graceful drain (queued, never "
                         "started)",
                         obs::Counter::DrainRefused);
    // Workers parked on an injected stall must not outlive the
    // server: wake them (their abort predicate sees shut_down_).
    fault::FaultInjector::global().releaseStalls();
    std::lock_guard<std::mutex> lk(workers_m_);
    for (auto &s : workers_) {
        if (s->thread.joinable())
            s->thread.join();
    }
}

void
BatchServer::shutdown()
{
    shutdownImpl(/*graceful=*/false);
}

void
BatchServer::shutdownGraceful()
{
    shutdownImpl(/*graceful=*/true);
}

} // namespace ark
