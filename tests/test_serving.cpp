/**
 * @file
 * Concurrent batch-serving runtime tests: bit-identical results under
 * concurrency (N concurrent requests == sequential execution, on both
 * kernel backends), bounded-queue backpressure/admission semantics,
 * failure reporting, and drain-report accounting.
 */

#include <cstdlib>
#include <future>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/keygen.h"
#include "serve/batch_server.h"

namespace ark {
namespace {

/**
 * Full serving stack for one backend, built from a fixed seed so two
 * stacks (or two servers on one stack) hold bit-identical key and
 * input material.
 */
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

    explicit Stack(BackendKind kind, size_t kernel_threads = 2)
    {
        // This test exercises an explicit backend per stack; the env
        // override (used by the CI backend matrix) must not leak in.
        unsetenv("ARK_BACKEND");
        unsetenv("ARK_THREADS");
        CkksParams p = CkksParams::testTiny();
        p.backend = kind;
        p.backend_threads = kernel_threads;
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

        // Deterministic key material up front, via the canonical
        // (sorted-set) warm order — no reliance on the per-server
        // prewarm loop's iteration order.
        std::vector<i64> amounts;
        for (const auto &w : workloads) {
            const std::vector<i64> amts = w.rotationAmounts();
            amounts.insert(amounts.end(), amts.begin(), amts.end());
        }
        keys->warm(std::move(amounts));

        for (int k = 0; k < 2; ++k) {
            Ciphertext ct = encryptor.encryptSymmetric(
                encoder->encode(m, ctx->maxLevel()), sk);
            ct.slots = slots;
            inputs.push_back(std::move(ct));
        }
    }

    /** Serve @p n requests (round-robin mix) on @p workers workers and
     *  return their checksums in submission order. Schedule-aware
     *  servers admit through submitBatch (clustered admission);
     *  futures still map to the round-robin request order. */
    std::vector<u64>
    serveBatch(size_t workers, size_t n,
               SchedulePolicy schedule = SchedulePolicy::SourceOrder)
    {
        BatchServerConfig cfg;
        cfg.workers = workers;
        cfg.queue_capacity = n;
        cfg.schedule = schedule;
        BatchServer server(*ctx, *keys, *store, workloads, inputs, cfg);
        std::vector<size_t> indices;
        for (size_t i = 0; i < n; ++i)
            indices.push_back(i % workloads.size());
        auto futs = server.submitBatch(indices);
        std::vector<u64> sums;
        for (auto &f : futs) {
            ServeResult r = f.get();
            EXPECT_TRUE(r.ok) << r.error;
            sums.push_back(r.checksum);
        }
        server.drain();
        return sums;
    }
};

TEST(Serving, ConcurrentMatchesSequential)
{
    Stack s(BackendKind::Scalar);
    const auto sequential = s.serveBatch(1, 16);
    const auto concurrent = s.serveBatch(4, 16);
    EXPECT_EQ(sequential, concurrent);
}

TEST(Serving, ConcurrentMatchesSequentialParallelBackend)
{
    Stack s(BackendKind::Parallel, 2);
    const auto sequential = s.serveBatch(1, 16);
    const auto concurrent = s.serveBatch(4, 16);
    EXPECT_EQ(sequential, concurrent);
}

TEST(Serving, ScheduledExecutionMatchesFcfs)
{
    // The schedule-aware mode reorders each request's ops under the
    // bit-exact commutation graph and clusters queue admission; both
    // must leave every result bit-identical to plain FCFS.
    Stack s(BackendKind::Scalar);
    const auto fcfs = s.serveBatch(2, 16);
    const auto scheduled =
        s.serveBatch(2, 16, SchedulePolicy::EvkCluster);
    EXPECT_EQ(fcfs, scheduled);
}

TEST(Serving, ScheduledExecutionMatchesFcfsParallelBackend)
{
    Stack s(BackendKind::Parallel, 2);
    const auto fcfs = s.serveBatch(4, 16);
    const auto scheduled =
        s.serveBatch(4, 16, SchedulePolicy::EvkCluster);
    EXPECT_EQ(fcfs, scheduled);
}

TEST(Serving, ScheduledServersAgreeAcrossBackends)
{
    // Scheduling composes with kernel-backend parity: a scheduled
    // scalar server and a scheduled parallel server (fresh stacks,
    // same seed) produce identical bits.
    Stack scalar(BackendKind::Scalar);
    Stack parallel(BackendKind::Parallel, 3);
    EXPECT_EQ(scalar.serveBatch(2, 12, SchedulePolicy::EvkCluster),
              parallel.serveBatch(4, 12, SchedulePolicy::EvkCluster));
}

TEST(Serving, BackendsProduceIdenticalResults)
{
    // Kernel parity + fixed seeds: the whole serving pipeline is
    // bit-identical across engines, even under concurrency.
    Stack scalar(BackendKind::Scalar);
    Stack parallel(BackendKind::Parallel, 3);
    EXPECT_EQ(scalar.serveBatch(2, 12), parallel.serveBatch(4, 12));
}

TEST(Serving, FailedRequestIsReportedNotFatal)
{
    Stack s(BackendKind::Scalar);
    ServeWorkload bad;
    bad.name = "too-deep";
    for (int i = 0; i < 5; ++i) { // 5 levels needed, only 3 available
        bad.ops.push_back({ServeOpKind::Square, 0, 0, 0});
        bad.ops.push_back({ServeOpKind::Rescale, 0, 0, 0});
    }
    std::vector<ServeWorkload> mix = {bad, s.workloads[0]};

    BatchServerConfig cfg;
    cfg.workers = 2;
    BatchServer server(*s.ctx, *s.keys, *s.store, mix, s.inputs, cfg);
    auto f_bad = server.submit(0);
    auto f_good = server.submit(1);

    ServeResult bad_r = f_bad.get();
    EXPECT_FALSE(bad_r.ok);
    EXPECT_NE(bad_r.error.find("level budget"), std::string::npos)
        << bad_r.error;
    EXPECT_TRUE(f_good.get().ok);

    ServeReport rep = server.drain();
    EXPECT_EQ(rep.requests, 2u);
    EXPECT_EQ(rep.failed, 1u);
}

TEST(Serving, DrainReportAccounting)
{
    Stack s(BackendKind::Scalar);
    BatchServerConfig cfg;
    cfg.workers = 2;
    BatchServer server(*s.ctx, *s.keys, *s.store, s.workloads,
                       s.inputs, cfg);
    const size_t n = 8;
    std::vector<std::future<ServeResult>> futs;
    for (size_t i = 0; i < n; ++i)
        futs.push_back(server.submit(i % s.workloads.size()));
    for (auto &f : futs)
        EXPECT_TRUE(f.get().ok);

    ServeReport rep = server.drain();
    EXPECT_EQ(rep.requests, n);
    EXPECT_EQ(rep.failed, 0u);
    EXPECT_EQ(rep.latency.count, n);
    EXPECT_GT(rep.he_ops, 0u);
    EXPECT_GT(rep.wall_seconds, 0.0);
    EXPECT_GT(rep.requests_per_sec, 0.0);
    // The window's backend delta must have seen kernel work.
    EXPECT_GT(rep.kernel_words, 0u);
    EXPECT_GT(rep.mod_mults, 0u);
    EXPECT_GE(rep.latency.max_ms, rep.latency.p50_ms);
    EXPECT_FALSE(rep.toString().empty());

    // A fresh window is empty.
    ServeReport empty = server.drain();
    EXPECT_EQ(empty.requests, 0u);
    EXPECT_EQ(empty.latency.count, 0u);
}

TEST(Serving, SubmitAfterShutdownThrows)
{
    Stack s(BackendKind::Scalar);
    BatchServerConfig cfg;
    cfg.workers = 1;
    BatchServer server(*s.ctx, *s.keys, *s.store, s.workloads,
                       s.inputs, cfg);
    server.shutdown();
    EXPECT_THROW(server.submit(0), std::runtime_error);
    // The non-blocking call reports shutdown instead of throwing.
    std::future<ServeResult> out;
    EXPECT_EQ(server.trySubmit(0, out), AdmitResult::Closed);
    EXPECT_FALSE(out.valid());
}

TEST(RequestQueue, BackpressureAndAdmissionControl)
{
    RequestQueue q(2);
    EXPECT_EQ(q.capacity(), 2u);

    auto makeJob = [](u64 id) {
        ServeJob j;
        j.request.id = id;
        return j;
    };

    EXPECT_EQ(q.tryPush(makeJob(1)), AdmitResult::Admitted);
    EXPECT_TRUE(q.push(makeJob(2)));
    EXPECT_EQ(q.size(), 2u);
    // Full: admission control refuses instead of blocking.
    ServeJob overflow = makeJob(3);
    EXPECT_EQ(q.tryPush(std::move(overflow)), AdmitResult::Full);

    ServeJob out;
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out.request.id, 1u); // FIFO
    EXPECT_EQ(q.tryPush(makeJob(4)), AdmitResult::Admitted);

    // close() refuses producers but lets consumers drain.
    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_EQ(q.tryPush(makeJob(5)), AdmitResult::Closed);
    EXPECT_FALSE(q.push(makeJob(6)));
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out.request.id, 2u);
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out.request.id, 4u);
    EXPECT_FALSE(q.pop(out)); // drained
}

TEST(Serving, WorkloadLoweringIsDeterministicAndBudgeted)
{
    unsetenv("ARK_BACKEND");
    unsetenv("ARK_THREADS");
    const CkksParams p = CkksParams::testTiny();
    LowerOptions opt;
    opt.max_ops = 20;
    const auto a = standardServingMix(p, opt);
    const auto b = standardServingMix(p, opt);
    ASSERT_EQ(a.size(), 4u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        ASSERT_EQ(a[i].ops.size(), b[i].ops.size());
        EXPECT_LE(a[i].ops.size(), opt.max_ops);
        // Never deeper than the execution parameter level budget.
        EXPECT_LE(a[i].levelsNeeded(),
                  static_cast<size_t>(p.max_level));
        for (size_t k = 0; k < a[i].ops.size(); ++k) {
            EXPECT_EQ(static_cast<int>(a[i].ops[k].kind),
                      static_cast<int>(b[i].ops[k].kind));
            EXPECT_EQ(a[i].ops[k].rotation, b[i].ops[k].rotation);
        }
        for (i64 r : a[i].rotationAmounts()) {
            EXPECT_GE(r, 1);
            EXPECT_LE(r, static_cast<i64>(opt.max_rotation_keys));
        }
    }
}

} // namespace
} // namespace ark
