/**
 * @file
 * SLO-aware admission-control tests (serve/admission.h and its
 * BatchServer integration), all on synthetic observations and the
 * injected ManualServeClock — zero wall-clock sleeps, every decision
 * replayable. Pins the ISSUE invariants: shedding only engages when
 * the predicted p99 exceeds the class target, eviction only takes
 * strictly-lower-priority victims (so high-priority work is never
 * shed while lower-priority work occupies the queue), and admission
 * accounting is conserved under concurrent producers.
 */

#include <atomic>
#include <cstdlib>
#include <future>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/keygen.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "serve/batch_server.h"

namespace ark {
namespace {

/** Minimal serving stack (same fixed-seed recipe as test_serving). */
struct Stack
{
    std::unique_ptr<CkksContext> ctx;
    Rng rng{777};
    std::unique_ptr<KeyGenerator> keygen;
    SecretKey sk;
    std::unique_ptr<KeyCache> keys;
    std::unique_ptr<CkksEncoder> encoder;
    std::unique_ptr<PlaintextStore> store;
    std::vector<ServeWorkload> workloads;
    std::vector<Ciphertext> inputs;

    Stack()
    {
        unsetenv("ARK_BACKEND");
        unsetenv("ARK_THREADS");
        CkksParams p = CkksParams::testTiny();
        p.backend = BackendKind::Scalar;
        ctx = std::make_unique<CkksContext>(p);
        keygen = std::make_unique<KeyGenerator>(*ctx, rng);
        sk = keygen->secretKey();
        keys = std::make_unique<KeyCache>(*keygen, sk, ctx->degree());
        encoder = std::make_unique<CkksEncoder>(*ctx);
        CkksEncryptor encryptor(*ctx, rng);

        store = std::make_unique<PlaintextStore>(*ctx,
                                                 PlaintextMode::OFLimb);
        const size_t slots = p.num_slots;
        std::vector<Complex> m(slots);
        for (size_t i = 0; i < slots; ++i)
            m[i] = Complex(0.6 + 0.001 * static_cast<double>(i % 11),
                           0.02);
        store->insert(encoder->encode(m, ctx->maxLevel()));

        LowerOptions opt;
        opt.max_ops = 20;
        workloads = standardServingMix(p, opt);
        std::vector<i64> amounts;
        for (const auto &w : workloads) {
            const std::vector<i64> amts = w.rotationAmounts();
            amounts.insert(amounts.end(), amts.begin(), amts.end());
        }
        keys->warm(std::move(amounts));

        Ciphertext ct = encryptor.encryptSymmetric(
            encoder->encode(m, ctx->maxLevel()), sk);
        ct.slots = slots;
        inputs.push_back(std::move(ct));
    }
};

AdmissionConfig
twoClassConfig(double low_p99, double high_p99, double prior_ms,
               u64 min_samples)
{
    AdmissionConfig a;
    a.enabled = true;
    a.classes = {SloClass{"batch", 0, 0, low_p99},
                 SloClass{"interactive", 1, 0, high_p99}};
    a.expected_service_ms = prior_ms;
    a.min_samples = min_samples;
    return a;
}

// ---------------------------------------------------------------
// AdmissionController: prediction and verdict semantics.
// ---------------------------------------------------------------

TEST(Admission, NoSignalMeansNoPredictionAndAlwaysAdmit)
{
    // No prior, no observations: the controller refuses to guess.
    AdmissionConfig a;
    a.enabled = true;
    a.classes = {SloClass{"only", 0, 0, 1.0}}; // 1 ms target
    a.expected_service_ms = 0;
    AdmissionController c(a);

    EXPECT_EQ(c.predictedP99Ms(0, 1000, 1), 0.0);
    EXPECT_EQ(c.decide(0, 1000, 1, true, 0), AdmissionVerdict::Admit);
}

TEST(Admission, DisabledOrUntargetedClassAlwaysAdmits)
{
    // Disabled controller admits even with a wild prediction...
    AdmissionConfig a = twoClassConfig(1.0, 1.0, 1e6, 1u << 30);
    a.enabled = false;
    AdmissionController off(a);
    EXPECT_GT(off.predictedP99Ms(0, 8, 1), 1.0);
    EXPECT_EQ(off.decide(0, 8, 1, true, 0), AdmissionVerdict::Admit);

    // ...and a class with p99_ms == 0 has no gate at all.
    a.enabled = true;
    a.classes[0].p99_ms = 0;
    AdmissionController no_target(a);
    EXPECT_EQ(no_target.decide(0, 8, 1, true, 0),
              AdmissionVerdict::Admit);
}

TEST(Admission, PredictionIsMonotoneInQueueDepth)
{
    AdmissionConfig a = twoClassConfig(50.0, 50.0, 2.0, 1u << 30);
    AdmissionController c(a);
    double prev = 0;
    for (size_t depth = 0; depth < 32; ++depth) {
        const double p = c.predictedP99Ms(0, depth, 2);
        EXPECT_GT(p, prev);
        prev = p;
    }
    // More workers drain the same backlog faster.
    EXPECT_LT(c.predictedP99Ms(0, 8, 4), c.predictedP99Ms(0, 8, 1));
}

TEST(Admission, SheddingEngagesExactlyWhenPredictionExceedsTarget)
{
    // Prior 4 ms, one worker: predicted(depth) = (depth+1)*4 + 4.
    // Target 20 ms → depth 3 predicts exactly 20 and still admits
    // (the target is a budget, not a ceiling-minus-one); depth 4 is
    // the first over (24 > 20).
    AdmissionConfig a = twoClassConfig(20.0, 20.0, 4.0, 1u << 30);
    AdmissionController c(a);
    for (size_t depth = 0; depth <= 8; ++depth) {
        const double predicted = c.predictedP99Ms(0, depth, 1);
        const AdmissionVerdict v = c.decide(0, depth, 1, depth > 0, 0);
        if (predicted <= 20.0)
            EXPECT_EQ(v, AdmissionVerdict::Admit) << "depth " << depth;
        else
            EXPECT_NE(v, AdmissionVerdict::Admit) << "depth " << depth;
    }
    EXPECT_EQ(c.decide(0, 3, 1, true, 0), AdmissionVerdict::Admit);
    EXPECT_NE(c.decide(0, 4, 1, true, 0), AdmissionVerdict::Admit);
}

TEST(Admission, ObservationsReplaceThePriorAfterMinSamples)
{
    // Huge prior keeps the gate shut while cold; two fast real
    // observations (min_samples = 2) must reopen it.
    AdmissionConfig a = twoClassConfig(20.0, 20.0, 1e6, 2);
    AdmissionController c(a);
    EXPECT_NE(c.decide(0, 0, 1, false, 0), AdmissionVerdict::Admit);

    c.recordService(0, 4.0);
    EXPECT_NE(c.decide(0, 0, 1, false, 0), AdmissionVerdict::Admit)
        << "one sample is below min_samples; the prior still stands";

    c.recordService(0, 4.0);
    // Histogram now rules: mean 4.0, p99 = 4.0 (the bucket edge
    // clamped to the recorded max).
    const double p = c.predictedP99Ms(0, 0, 1);
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 10.0);
    EXPECT_EQ(c.decide(0, 0, 1, false, 0), AdmissionVerdict::Admit);
}

TEST(Admission, EvictsOnlyStrictlyLowerPriority)
{
    // Over-target high-priority request: verdict depends on what is
    // queued below it. Equal priority is NOT "lower" — classes never
    // cannibalize their own tier.
    AdmissionConfig a = twoClassConfig(1.0, 1.0, 1e6, 1u << 30);
    AdmissionController c(a);

    // class 1 (priority 1) over an empty queue: nothing to evict.
    EXPECT_EQ(c.decide(1, 0, 1, false, 0), AdmissionVerdict::Shed);
    // Lower-priority work queued: make room instead of shedding.
    EXPECT_EQ(c.decide(1, 4, 1, true, 0), AdmissionVerdict::EvictLower);
    // Only equal-priority work queued: shed the newcomer.
    EXPECT_EQ(c.decide(1, 4, 1, true, 1), AdmissionVerdict::Shed);
    // The low class can never evict its own tier.
    EXPECT_EQ(c.decide(0, 4, 1, true, 0), AdmissionVerdict::Shed);
}

TEST(Admission, ClassOfWorkloadMapsAndDefaults)
{
    AdmissionConfig a = twoClassConfig(10.0, 10.0, 0, 16);
    a.class_of_workload = {0, 1};
    AdmissionController c(a);
    EXPECT_EQ(c.classCount(), 2u);
    EXPECT_EQ(c.classOf(0), 0u);
    EXPECT_EQ(c.classOf(1), 1u);
    EXPECT_EQ(c.classOf(7), 0u) << "unmapped workloads are class 0";
    EXPECT_EQ(c.classAt(1).priority, 1u);

    // Empty catalog defaults to one untargeted class.
    AdmissionController d(AdmissionConfig{});
    EXPECT_EQ(d.classCount(), 1u);
    EXPECT_EQ(d.classAt(0).p99_ms, 0.0);
}

// ---------------------------------------------------------------
// RequestQueue: the eviction primitive.
// ---------------------------------------------------------------

ServeJob
makeJob(u64 id, u32 priority)
{
    ServeJob j;
    j.request.id = id;
    j.priority = priority;
    return j;
}

TEST(RequestQueue, EvictLowestBelowTakesLowestThenLatest)
{
    RequestQueue q(8);
    ASSERT_EQ(q.tryPush(makeJob(1, 0)), AdmitResult::Admitted);
    ASSERT_EQ(q.tryPush(makeJob(2, 1)), AdmitResult::Admitted);
    ASSERT_EQ(q.tryPush(makeJob(3, 0)), AdmitResult::Admitted);
    ASSERT_EQ(q.tryPush(makeJob(4, 2)), AdmitResult::Admitted);

    ServeJob victim;
    // Lowest priority below the floor wins; among the two priority-0
    // jobs the latest-enqueued (least sunk queueing time) goes first.
    ASSERT_TRUE(q.evictLowestBelow(2, victim));
    EXPECT_EQ(victim.request.id, 3u);
    ASSERT_TRUE(q.evictLowestBelow(2, victim));
    EXPECT_EQ(victim.request.id, 1u);
    // Only priorities 1 and 2 remain; floor 1 finds nothing strictly
    // below and must leave the queue untouched.
    EXPECT_FALSE(q.evictLowestBelow(1, victim));
    EXPECT_EQ(q.size(), 2u);
    ASSERT_TRUE(q.evictLowestBelow(3, victim));
    EXPECT_EQ(victim.request.id, 2u);

    // FIFO order of the survivors is preserved.
    ServeJob out;
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out.request.id, 4u);
    EXPECT_EQ(q.size(), 0u);
}

TEST(RequestQueue, LowestPriorityTracksQueueContents)
{
    RequestQueue q(4);
    u32 lowest = 99;
    EXPECT_FALSE(q.lowestPriority(lowest)) << "empty queue: no floor";

    ASSERT_EQ(q.tryPush(makeJob(1, 3)), AdmitResult::Admitted);
    ASSERT_TRUE(q.lowestPriority(lowest));
    EXPECT_EQ(lowest, 3u);
    ASSERT_EQ(q.tryPush(makeJob(2, 1)), AdmitResult::Admitted);
    ASSERT_EQ(q.tryPush(makeJob(3, 2)), AdmitResult::Admitted);
    ASSERT_TRUE(q.lowestPriority(lowest));
    EXPECT_EQ(lowest, 1u);

    ServeJob victim;
    ASSERT_TRUE(q.evictLowestBelow(2, victim));
    EXPECT_EQ(victim.request.id, 2u);
    ASSERT_TRUE(q.lowestPriority(lowest));
    EXPECT_EQ(lowest, 2u);
}

// ---------------------------------------------------------------
// BatchServer integration, on the injected manual clock.
// ---------------------------------------------------------------

TEST(Serving, ImpossibleTargetShedsEveryNewcomer)
{
    // Cold-start prior of 10^6 ms against a 1 ms target: every
    // prediction is over budget and nothing lower-priority is ever
    // queued, so each request is shed at admission — deterministically,
    // before any worker runs it.
    Stack s;
    ManualServeClock clk;
    BatchServerConfig cfg;
    cfg.workers = 2;
    cfg.clock = &clk;
    cfg.admission = twoClassConfig(1.0, 1.0, 1e6, 1u << 30);
    BatchServer server(*s.ctx, *s.keys, *s.store, s.workloads,
                       s.inputs, cfg);

    // submit(): the future resolves immediately with the typed error.
    std::future<ServeResult> f = server.submit(0);
    ServeResult r = f.get();
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error_kind, ServeErrorKind::Shed);
    EXPECT_NE(r.error.find("shed"), std::string::npos) << r.error;

    // trySubmit(): the typed verdict, future untouched — every time.
    std::future<ServeResult> out;
    EXPECT_EQ(server.trySubmit(0, out), AdmitResult::Shed);
    EXPECT_FALSE(out.valid());
    EXPECT_EQ(server.trySubmit(0, out), AdmitResult::Shed);
    EXPECT_FALSE(out.valid());

    ServeReport rep = server.drain();
    EXPECT_EQ(rep.shed, 3u);
    EXPECT_EQ(rep.requests, 0u) << "nothing was executed";
}

TEST(Serving, HighPriorityIsNeverShedWhileLowPriorityQueued)
{
    // Low class: no effective target (admits freely). High class:
    // 5 ms target against a 2 ms prior — over budget exactly when the
    // queue holds 2+ jobs, within budget at depth <= 1. Whatever the
    // worker has managed to drain by the time the high-priority
    // request arrives, the verdict is EvictLower or Admit, never
    // Shed: the high-priority future always carries a real result.
    Stack s;
    ManualServeClock clk;
    BatchServerConfig cfg;
    cfg.workers = 1;
    cfg.queue_capacity = 16;
    cfg.clock = &clk;
    cfg.admission = twoClassConfig(1e9, 5.0, 2.0, 1u << 30);
    cfg.admission.class_of_workload = {0, 0, 0, 0};
    ASSERT_GE(s.workloads.size(), 2u);
    cfg.admission.class_of_workload[1] = 1; // workload 1 = interactive
    BatchServer server(*s.ctx, *s.keys, *s.store, s.workloads,
                       s.inputs, cfg);

    const size_t n_low = 12;
    std::vector<std::future<ServeResult>> low;
    for (size_t i = 0; i < n_low; ++i)
        low.push_back(server.submit(0));
    std::future<ServeResult> high = server.submit(1);

    ServeResult hr = high.get();
    EXPECT_TRUE(hr.ok) << hr.error;
    EXPECT_NE(hr.error_kind, ServeErrorKind::Shed);

    size_t low_ok = 0, low_shed = 0;
    for (auto &f : low) {
        ServeResult r = f.get();
        if (r.ok) {
            ++low_ok;
        } else {
            EXPECT_EQ(r.error_kind, ServeErrorKind::Shed) << r.error;
            ++low_shed;
        }
    }
    EXPECT_EQ(low_ok + low_shed, n_low) << "every future settled";
    // The high-priority admission found a deep low-priority queue (the
    // single worker cannot drain 12 HE executions in the microseconds
    // a submit takes) and evicted from the bottom.
    EXPECT_GE(low_shed, 1u);

    ServeReport rep = server.drain();
    EXPECT_EQ(rep.shed, low_shed);
    EXPECT_EQ(rep.requests, low_ok + 1);
}

TEST(Serving, ManualClockGoodputAccounting)
{
    // The injected clock never advances, so every end-to-end latency
    // is exactly 0 ms — under any positive target, every completion
    // counts as goodput. Targets feed accounting even with shedding
    // disabled (the open-loop baseline server relies on this).
    Stack s;
    ManualServeClock clk;
    clk.setMicros(5'000'000);
    BatchServerConfig cfg;
    cfg.workers = 2;
    cfg.clock = &clk;
    cfg.admission.enabled = false;
    cfg.admission.classes = {SloClass{"default", 0, 0, 10.0}};
    BatchServer server(*s.ctx, *s.keys, *s.store, s.workloads,
                       s.inputs, cfg);

    const size_t n = 6;
    std::vector<std::future<ServeResult>> futs;
    for (size_t i = 0; i < n; ++i)
        futs.push_back(server.submit(i % s.workloads.size()));
    for (auto &f : futs)
        EXPECT_TRUE(f.get().ok);

    ServeReport rep = server.drain();
    EXPECT_EQ(rep.requests, n);
    EXPECT_EQ(rep.shed, 0u);
    EXPECT_EQ(rep.slo_good, n);
    EXPECT_GT(rep.goodput_per_sec, 0.0);
    EXPECT_EQ(rep.e2e.count, n);
    EXPECT_EQ(rep.e2e.max_ms, 0.0) << "manual clock never advanced";

    // A fresh window starts empty.
    ServeReport empty = server.drain();
    EXPECT_EQ(empty.slo_good, 0u);
    EXPECT_EQ(empty.e2e.count, 0u);
}

// ---------------------------------------------------------------
// Concurrency property test: conservation under racing producers.
// ---------------------------------------------------------------

TEST(Serving, AdmissionLedgerIsConservedUnderConcurrentProducers)
{
    // Randomized producer interleavings over a small queue with live
    // shedding: whatever races happen, every offered request is
    // accounted exactly once (admitted + shed + refused == offered,
    // and every admitted future settles as ok, failed, or evicted).
    Stack s;
    ManualServeClock clk;
    BatchServerConfig cfg;
    cfg.workers = 2;
    cfg.queue_capacity = 4;
    cfg.clock = &clk;
    // 2 ms prior, 8 ms target: admits at shallow depth, sheds or
    // evicts under backlog — both paths exercised under contention.
    cfg.admission = twoClassConfig(8.0, 8.0, 2.0, 1u << 30);
    cfg.admission.class_of_workload = {0, 1, 0, 1};
    BatchServer server(*s.ctx, *s.keys, *s.store, s.workloads,
                       s.inputs, cfg);

    const size_t lanes = 8;
    const size_t per_lane = 24;
    std::atomic<size_t> admitted{0}, shed{0}, full{0}, closed{0};
    std::vector<std::vector<std::future<ServeResult>>> futs(lanes);

    ThreadPool pool(4);
    pool.parallelFor(lanes, [&](size_t lane) {
        Rng rng(1000 + lane);
        for (size_t i = 0; i < per_lane; ++i) {
            const size_t wl = rng.next() % s.workloads.size();
            std::future<ServeResult> out;
            switch (server.trySubmit(wl, out)) {
              case AdmitResult::Admitted:
                admitted.fetch_add(1);
                futs[lane].push_back(std::move(out));
                break;
              case AdmitResult::Shed:
                shed.fetch_add(1);
                break;
              case AdmitResult::Full:
                full.fetch_add(1);
                break;
              case AdmitResult::Closed:
                closed.fetch_add(1);
                break;
            }
        }
    });

    EXPECT_EQ(admitted.load() + shed.load() + full.load() +
                  closed.load(),
              lanes * per_lane);
    EXPECT_EQ(closed.load(), 0u) << "server was never shut down";

    // Every admitted future settles with a definite outcome.
    size_t ok = 0, failed = 0, evicted = 0;
    for (auto &lane : futs) {
        for (auto &f : lane) {
            ServeResult r = f.get();
            if (r.ok)
                ++ok;
            else if (r.error_kind == ServeErrorKind::Shed)
                ++evicted;
            else
                ++failed;
        }
    }
    EXPECT_EQ(ok + failed + evicted, admitted.load());
    EXPECT_EQ(failed, 0u);

    ServeReport rep = server.drain();
    EXPECT_EQ(rep.requests, ok);
    // Window shed = refused newcomers + evicted victims.
    EXPECT_EQ(rep.shed, shed.load() + evicted);

    // Post-close: no admission path lets anything through.
    server.shutdown();
    pool.parallelFor(lanes, [&](size_t lane) {
        std::future<ServeResult> out;
        EXPECT_EQ(server.trySubmit(lane % s.workloads.size(), out),
                  AdmitResult::Closed);
        EXPECT_FALSE(out.valid());
    });
    EXPECT_THROW(server.submit(0), std::runtime_error);
}

} // namespace
} // namespace ark
