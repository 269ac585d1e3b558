/**
 * @file
 * Bounded-memory regression for the serving runtime. A networked
 * server (net/wire_server.h) never calls BatchServer::drain(), so
 * whatever the server books per request must be fixed-size: serving
 * tens of thousands of requests without a drain may not grow the
 * live heap.
 */

#include <malloc.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/keygen.h"
#include "serve/batch_server.h"

// Live-heap counter: every operator new/delete in this binary adjusts
// it by the block's usable size, so sized and unsized deletes (and the
// sanitizer allocators) all balance. The nothrow forms are replaced
// too, so no block is allocated by one allocator and freed by another.
namespace {
std::atomic<long long> g_live_bytes{0};

void *
countedAlloc(std::size_t n) noexcept
{
    void *p = std::malloc(n != 0 ? n : 1);
    if (p != nullptr)
        g_live_bytes.fetch_add(
            static_cast<long long>(malloc_usable_size(p)),
            std::memory_order_relaxed);
    return p;
}

void *
countedAllocOrThrow(std::size_t n)
{
    if (void *p = countedAlloc(n))
        return p;
    throw std::bad_alloc();
}

void
countedFree(void *p) noexcept
{
    if (p == nullptr)
        return;
    g_live_bytes.fetch_sub(static_cast<long long>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
    std::free(p);
}
} // namespace

void *operator new(std::size_t n) { return countedAllocOrThrow(n); }
void *operator new[](std::size_t n) { return countedAllocOrThrow(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}
void operator delete(void *p) noexcept { countedFree(p); }
void operator delete(void *p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void *p) noexcept { countedFree(p); }
void operator delete[](void *p, std::size_t) noexcept { countedFree(p); }

namespace ark {
namespace {

TEST(ServingMemory, UndrainedServerHeapStaysBounded)
{
    unsetenv("ARK_BACKEND");
    unsetenv("ARK_THREADS");
    CkksParams p = CkksParams::testTiny();
    p.backend = BackendKind::Scalar;
    CkksContext ctx(p);
    Rng rng(4242);
    KeyGenerator keygen(ctx, rng);
    const SecretKey sk = keygen.secretKey();
    KeyCache keys(keygen, sk, ctx.degree());
    PlaintextStore store(ctx, PlaintextMode::OFLimb);
    CkksEncoder encoder(ctx);
    CkksEncryptor encryptor(ctx, rng);
    const Ciphertext input = encryptor.encryptSymmetric(
        encoder.encode(std::vector<Complex>(p.num_slots, Complex(0.5, 0)),
                       ctx.maxLevel()),
        sk);

    ServeWorkload add;
    add.name = "add-scalar";
    ServeOp op;
    op.kind = ServeOpKind::AddScalar;
    op.scalar = 0.25;
    add.ops.push_back(op);
    BatchServerConfig cfg;
    cfg.workers = 2;
    BatchServer server(ctx, keys, store, {add}, {input}, cfg);

    // Closed loop in bursts of at most the queue capacity.
    const auto serve = [&](size_t n) {
        std::vector<std::future<ServeResult>> burst;
        burst.reserve(cfg.queue_capacity);
        for (size_t sent = 0; sent < n;) {
            burst.clear();
            for (; burst.size() < cfg.queue_capacity && sent < n; ++sent)
                burst.push_back(server.submit(0));
            for (auto &f : burst)
                ASSERT_TRUE(f.get().ok);
        }
    };
    constexpr size_t kWarmup = 4096;
    constexpr size_t kRequests = 20000;
    serve(kWarmup);
    const long long before = g_live_bytes.load();
    serve(kRequests);
    const long long growth = g_live_bytes.load() - before;
    std::printf("live heap growth over %zu undrained requests: %lld B\n",
                kRequests, growth);
    EXPECT_LT(growth, 64 * 1024)
        << "live heap grew " << growth << " bytes over " << kRequests
        << " undrained requests";

    // Nothing was dropped to stay bounded: the window still counts
    // every request exactly.
    const ServeReport rep = server.drain();
    EXPECT_EQ(rep.requests, kWarmup + kRequests);
    EXPECT_EQ(rep.latency.count, kWarmup + kRequests);
    EXPECT_EQ(rep.e2e.count, kWarmup + kRequests);
}

} // namespace
} // namespace ark
