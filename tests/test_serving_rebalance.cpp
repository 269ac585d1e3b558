/**
 * @file
 * Online shard-rebalance tests (shard/serve_shard.h replanServeShards
 * and its BatchServer integration). Pins the ISSUE invariants: a
 * group moves only on a clear observed imbalance, no shard that
 * serves traffic is ever stranded without an evk group, no workload
 * is ever left unassigned, the replan is deterministic, and a server
 * that rebalances mid-stream stays bit-identical to the static plan.
 * All timing arrives through the injected ManualServeClock — no
 * wall-clock sleeps anywhere.
 */

#include <algorithm>
#include <cstdlib>
#include <future>
#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/keygen.h"
#include "serve/batch_server.h"

namespace ark {
namespace {

/** A synthetic workload whose evk signature is just @p rotation,
 *  padded with AddScalar filler to the requested op weight. */
ServeWorkload
syntheticWorkload(const std::string &name, i64 rotation, size_t weight)
{
    ServeWorkload w;
    w.name = name;
    w.ops.push_back({ServeOpKind::Rotate, rotation, 0, 0});
    while (w.ops.size() < weight)
        w.ops.push_back({ServeOpKind::AddScalar, 0, 0, 0.25});
    return w;
}

/** Hand-built routing table over @p workloads (one group each). */
ServeShardPlan
planOf(const std::vector<ServeWorkload> &workloads, size_t shards,
       const std::vector<size_t> &shard_of_workload)
{
    ServeShardPlan plan;
    plan.shards = shards;
    plan.shard_of_workload = shard_of_workload;
    plan.evks_of_shard.assign(shards, {});
    plan.weight_of_shard.assign(shards, 0);
    for (size_t wi = 0; wi < workloads.size(); ++wi) {
        const size_t s = shard_of_workload[wi];
        plan.weight_of_shard[s] += workloads[wi].ops.size();
        for (i64 amt : workloads[wi].evkSignature())
            plan.evks_of_shard[s].push_back(amt);
    }
    return plan;
}

void
expectWellFormed(const ServeShardPlan &plan,
                 const std::vector<ServeWorkload> &workloads)
{
    ASSERT_EQ(plan.shard_of_workload.size(), workloads.size());
    size_t total = 0;
    for (size_t wi = 0; wi < workloads.size(); ++wi) {
        EXPECT_LT(plan.shard_of_workload[wi], plan.shards)
            << "workload " << wi << " left unassigned";
        total += workloads[wi].ops.size();
    }
    EXPECT_EQ(std::accumulate(plan.weight_of_shard.begin(),
                              plan.weight_of_shard.end(), size_t{0}),
              total);
}

// ---------------------------------------------------------------
// replanServeShards: pure-function unit tests.
// ---------------------------------------------------------------

TEST(Rebalance, MovesLightestGroupOffTheHotShard)
{
    // Four single-workload groups, signatures {1},{2},{3},{4}, split
    // 2/2. Shard 0 peaked 10 deep vs shard 1's 1 (>= 2*1+1): the
    // lighter of shard 0's groups (workload 1, weight 3) must move.
    std::vector<ServeWorkload> wls = {
        syntheticWorkload("a", 1, 6), syntheticWorkload("b", 2, 3),
        syntheticWorkload("c", 3, 5), syntheticWorkload("d", 4, 4)};
    const ServeShardPlan current = planOf(wls, 2, {0, 0, 1, 1});

    ServeShardSignal sig;
    sig.peak_depth = {10, 1};
    const ServeShardPlan next = replanServeShards(wls, current, sig);

    expectWellFormed(next, wls);
    EXPECT_EQ(next.shard_of_workload,
              (std::vector<size_t>{0, 1, 1, 1}));
    EXPECT_EQ(next.weight_of_shard[0], 6u);
    EXPECT_EQ(next.weight_of_shard[1], 12u);
    // The migrated signature joined the cold shard's key set.
    EXPECT_NE(std::find(next.evks_of_shard[1].begin(),
                        next.evks_of_shard[1].end(), i64{2}),
              next.evks_of_shard[1].end());
}

TEST(Rebalance, NoMoveWithoutClearImbalance)
{
    std::vector<ServeWorkload> wls = {
        syntheticWorkload("a", 1, 4), syntheticWorkload("b", 2, 4),
        syntheticWorkload("c", 3, 4), syntheticWorkload("d", 4, 4)};
    const ServeShardPlan current = planOf(wls, 2, {0, 0, 1, 1});

    // 4 vs 2 is below the 2x+1 trigger (4 < 5): hold the plan.
    ServeShardSignal sig;
    sig.peak_depth = {4, 2};
    EXPECT_EQ(replanServeShards(wls, current, sig).shard_of_workload,
              current.shard_of_workload);

    // An all-idle window (0 vs 0) must never churn either.
    sig.peak_depth = {0, 0};
    EXPECT_EQ(replanServeShards(wls, current, sig).shard_of_workload,
              current.shard_of_workload);

    // Single shard: nothing to rebalance, ever.
    const ServeShardPlan solo = planOf(wls, 1, {0, 0, 0, 0});
    ServeShardSignal solo_sig;
    solo_sig.peak_depth = {50};
    EXPECT_EQ(replanServeShards(wls, solo, solo_sig).shard_of_workload,
              solo.shard_of_workload);
}

TEST(Rebalance, NeverStrandsTheHotShard)
{
    // The hot shard owns exactly one group: moving it would leave a
    // worker group serving nothing, so the replan must refuse even
    // under an extreme signal.
    std::vector<ServeWorkload> wls = {
        syntheticWorkload("a", 1, 9), syntheticWorkload("b", 2, 2),
        syntheticWorkload("c", 3, 2)};
    const ServeShardPlan current = planOf(wls, 2, {0, 1, 1});

    ServeShardSignal sig;
    sig.peak_depth = {1000, 0};
    EXPECT_EQ(replanServeShards(wls, current, sig).shard_of_workload,
              current.shard_of_workload);
}

TEST(Rebalance, SameSignatureWorkloadsMoveAsOneGroup)
{
    // Workloads a and b share signature {1} and must stay co-located
    // through a migration (the router's co-location guarantee).
    std::vector<ServeWorkload> wls = {
        syntheticWorkload("a", 1, 2), syntheticWorkload("b", 1, 2),
        syntheticWorkload("c", 2, 9), syntheticWorkload("d", 3, 8)};
    const ServeShardPlan current = planOf(wls, 2, {0, 0, 0, 1});

    ServeShardSignal sig;
    sig.peak_depth = {7, 1};
    const ServeShardPlan next = replanServeShards(wls, current, sig);
    expectWellFormed(next, wls);
    // The {1} group (total weight 4) is the lightest on shard 0.
    EXPECT_EQ(next.shard_of_workload[0], next.shard_of_workload[1]);
    EXPECT_EQ(next.shard_of_workload[0], 1u);
    EXPECT_EQ(next.shard_of_workload[2], 0u);
}

TEST(Rebalance, ReplanIsDeterministic)
{
    std::vector<ServeWorkload> wls = {
        syntheticWorkload("a", 1, 6), syntheticWorkload("b", 2, 3),
        syntheticWorkload("c", 3, 5), syntheticWorkload("d", 4, 4)};
    const ServeShardPlan current = planOf(wls, 2, {0, 0, 1, 1});
    ServeShardSignal sig;
    sig.peak_depth = {10, 1};
    const ServeShardPlan once = replanServeShards(wls, current, sig);
    const ServeShardPlan twice = replanServeShards(wls, current, sig);
    EXPECT_EQ(once.shard_of_workload, twice.shard_of_workload);
    EXPECT_EQ(once.weight_of_shard, twice.weight_of_shard);
    EXPECT_EQ(once.evks_of_shard, twice.evks_of_shard);
}

// ---------------------------------------------------------------
// BatchServer integration, on the injected manual clock.
// ---------------------------------------------------------------

/** Same fixed-seed serving stack as test_serving.cpp. */
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

/** A shard of @p plan holding two or more evk-signature groups (the
 *  only legal donor), or plan.shards when none exists. */
size_t
donorShard(const ServeShardPlan &plan,
           const std::vector<ServeWorkload> &workloads)
{
    std::vector<size_t> groups(plan.shards, 0);
    for (const auto &members : groupByEvkSignature(workloads))
        groups[plan.shard_of_workload[members.front()]] += 1;
    for (size_t s = 0; s < plan.shards; ++s) {
        if (groups[s] >= 2)
            return s;
    }
    return plan.shards;
}

TEST(Rebalance, ServerSwapsRoutingOnExplicitSignal)
{
    Stack s;
    ManualServeClock clk;
    BatchServerConfig cfg;
    cfg.workers = 2;
    cfg.shards = 2;
    cfg.queue_capacity = 16;
    cfg.clock = &clk;
    BatchServer server(*s.ctx, *s.keys, *s.store, s.workloads,
                       s.inputs, cfg);

    const ServeShardPlan before = server.shardPlan();
    const size_t hot = donorShard(before, server.workloads());
    ASSERT_LT(hot, before.shards)
        << "the standard mix must give some shard two groups";

    ServeShardSignal sig;
    sig.peak_depth.assign(2, 0);
    sig.peak_depth[hot] = 10;

    EXPECT_TRUE(server.rebalanceNow(sig));
    EXPECT_EQ(server.rebalances(), 1u);
    const ServeShardPlan after = server.shardPlan();
    EXPECT_NE(after.shard_of_workload, before.shard_of_workload);
    expectWellFormed(after, server.workloads());

    // The same stale signal is consumed: peaks were reset on the
    // swap, so replaying it against live queues is a no-op... but an
    // explicit-signal call still re-evaluates and may bounce the
    // group back — assert only the deterministic parts.
    EXPECT_TRUE(server.drain().toString().size() > 0);
}

TEST(Rebalance, BalancedSignalLeavesServerPlanAlone)
{
    Stack s;
    ManualServeClock clk;
    BatchServerConfig cfg;
    cfg.workers = 2;
    cfg.shards = 2;
    cfg.queue_capacity = 16;
    cfg.clock = &clk;
    BatchServer server(*s.ctx, *s.keys, *s.store, s.workloads,
                       s.inputs, cfg);
    ServeShardSignal sig;
    sig.peak_depth = {1, 1};
    EXPECT_FALSE(server.rebalanceNow(sig));
    EXPECT_EQ(server.rebalances(), 0u);
}

TEST(Rebalance, MidStreamRebalancePreservesBitParity)
{
    // A server that swaps its routing table halfway through a request
    // stream must produce checksums bit-identical to a static-plan
    // server: routing only picks WHERE a pure function runs, and
    // nothing queued is dropped by the swap.
    Stack s;
    const size_t n = 16;
    std::vector<size_t> indices;
    for (size_t i = 0; i < n; ++i)
        indices.push_back(i % s.workloads.size());

    auto serve = [&](bool rebalance_midway) {
        ManualServeClock clk;
        BatchServerConfig cfg;
        cfg.workers = 4;
        cfg.shards = 2;
        cfg.queue_capacity = n;
        cfg.clock = &clk;
        BatchServer server(*s.ctx, *s.keys, *s.store, s.workloads,
                           s.inputs, cfg);
        std::vector<std::future<ServeResult>> futs;
        for (size_t i = 0; i < n; ++i) {
            if (rebalance_midway && i == n / 2) {
                const size_t hot =
                    donorShard(server.shardPlan(), server.workloads());
                EXPECT_LT(hot, size_t{2});
                if (hot < 2) {
                    ServeShardSignal sig;
                    sig.peak_depth.assign(2, 0);
                    sig.peak_depth[hot] = 10;
                    EXPECT_TRUE(server.rebalanceNow(sig));
                }
            }
            futs.push_back(server.submit(indices[i]));
        }
        std::vector<u64> sums;
        for (auto &f : futs) {
            ServeResult r = f.get();
            EXPECT_TRUE(r.ok) << r.error;
            sums.push_back(r.checksum);
        }
        ServeReport rep = server.drain();
        EXPECT_EQ(rep.requests, n) << "no request lost in the swap";
        return sums;
    };

    const auto without = serve(false);
    const auto with = serve(true);
    EXPECT_EQ(without, with);
}

TEST(Rebalance, PeriodicTriggerFiresOnTheManualClock)
{
    // rebalance_interval_ms rides on admissions against the injected
    // clock: no admission after the interval, no rebalance; the first
    // admission past the deadline measures the live peaks and swaps.
    Stack s;
    ManualServeClock clk;
    BatchServerConfig cfg;
    cfg.workers = 2;
    cfg.shards = 2;
    cfg.queue_capacity = 16;
    cfg.clock = &clk;
    cfg.admission.rebalance_interval_ms = 5;
    BatchServer server(*s.ctx, *s.keys, *s.store, s.workloads,
                       s.inputs, cfg);

    const ServeShardPlan plan = server.shardPlan();
    const size_t hot = donorShard(plan, server.workloads());
    ASSERT_LT(hot, plan.shards);
    // A workload routed to the donor shard: its pushes raise that
    // shard's peak depth while the other shard stays at zero.
    size_t hot_wl = plan.shard_of_workload.size();
    for (size_t wi = 0; wi < plan.shard_of_workload.size(); ++wi) {
        if (plan.shard_of_workload[wi] == hot) {
            hot_wl = wi;
            break;
        }
    }
    ASSERT_LT(hot_wl, plan.shard_of_workload.size());

    std::vector<std::future<ServeResult>> futs;
    // Within the interval: traffic builds the hot peak, no swap.
    for (int i = 0; i < 6; ++i)
        futs.push_back(server.submit(hot_wl));
    EXPECT_EQ(server.rebalances(), 0u);

    // Cross the deadline on the manual clock; the next admission
    // observes peak(hot) >= 1 vs peak(cold) == 0 and re-plans.
    clk.advanceMs(6);
    futs.push_back(server.submit(hot_wl));
    EXPECT_EQ(server.rebalances(), 1u);
    EXPECT_NE(server.shardPlan().shard_of_workload,
              plan.shard_of_workload);

    for (auto &f : futs)
        EXPECT_TRUE(f.get().ok);
    EXPECT_EQ(server.drain().requests, futs.size());
}

} // namespace
} // namespace ark
