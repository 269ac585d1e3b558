/**
 * @file
 * Tests for the dependence-graph scheduler subsystem (src/graph/):
 * lift round-trips, topological validity of every policy, the
 * EvkCluster working-set guarantee, Belady's optimality ordering,
 * predictor/simulator residency agreement, and the serving-plane
 * commutation graph.
 */

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/schedule.h"
#include "graph/serve_schedule.h"
#include "sim/simulator.h"
#include "workloads/programs.h"

namespace ark {
namespace {

std::vector<SimProgram>
paperTraces()
{
    const CkksParams p = CkksParams::ark();
    std::vector<SimProgram> traces;
    traces.push_back(bootstrapProgram(p, KeySchedule::MinKS));
    traces.push_back(helrProgram(p, KeySchedule::MinKS));
    traces.push_back(resnetProgram(p, KeySchedule::MinKS));
    traces.push_back(sortingProgram(p, KeySchedule::MinKS));
    return traces;
}

bool
sameOp(const SimOp &a, const SimOp &b)
{
    return a.kind == b.kind && a.level == b.level &&
           a.evk_id == b.evk_id &&
           a.of_limb_eligible == b.of_limb_eligible && a.tag == b.tag;
}

constexpr SchedulePolicy kPolicies[] = {
    SchedulePolicy::SourceOrder,
    SchedulePolicy::EvkCluster,
    SchedulePolicy::BeladyResidency,
};

TEST(HeGraphBuilder, SourceOrderRoundTripsEveryTrace)
{
    for (const SimProgram &prog : paperTraces()) {
        const ScheduledProgram sp = scheduleGraph(
            liftProgram(prog), SchedulePolicy::SourceOrder, 2);
        ASSERT_EQ(sp.scheduled.ops.size(), prog.ops.size());
        for (size_t i = 0; i < prog.ops.size(); ++i) {
            EXPECT_TRUE(sameOp(sp.scheduled.ops[i], prog.ops[i]))
                << prog.name << " op " << i;
        }
        EXPECT_EQ(sp.scheduled.name, prog.name);
    }
}

TEST(HeGraphBuilder, GraphShapeInvariants)
{
    for (const SimProgram &prog : paperTraces()) {
        const HeGraph g = liftProgram(prog);
        ASSERT_EQ(g.nodes.size(), prog.ops.size());
        EXPECT_GT(g.edgeCount(), 0u);
        // Source order is always a valid schedule.
        std::vector<size_t> identity(g.nodes.size());
        for (size_t i = 0; i < identity.size(); ++i)
            identity[i] = i;
        EXPECT_TRUE(g.isTopological(identity)) << prog.name;
        // Every edge points forward in the source trace (the builders
        // only constrain against *preceding* ops).
        for (const auto &n : g.nodes) {
            for (size_t p : n.preds)
                EXPECT_LT(p, n.index);
        }
    }
}

TEST(Scheduler, EveryPolicyEmitsTopologicalOrders)
{
    for (const SimProgram &prog : paperTraces()) {
        const HeGraph g = liftProgram(prog);
        for (SchedulePolicy pol : kPolicies) {
            const std::vector<size_t> order = scheduleOrder(g, pol);
            EXPECT_TRUE(g.isTopological(order))
                << prog.name << " under " << schedulePolicyName(pol);
        }
    }
}

TEST(Scheduler, EvkClusterNeverIncreasesWorkingSet)
{
    for (const SimProgram &prog : paperTraces()) {
        const HeGraph g = liftProgram(prog);
        const auto src = scheduleOrder(g, SchedulePolicy::SourceOrder);
        const auto ec = scheduleOrder(g, SchedulePolicy::EvkCluster);

        // The distinct-evk set is schedule-invariant...
        auto ids = [&](const std::vector<size_t> &order) {
            std::set<int> s;
            for (size_t i : order) {
                if (g.nodes[i].op.evk_id >= 0)
                    s.insert(g.nodes[i].op.evk_id);
            }
            return s;
        };
        EXPECT_EQ(ids(src), ids(ec)) << prog.name;
        EXPECT_EQ(ids(src).size(), g.distinctEvks()) << prog.name;

        // ...and at any scratchpad capacity, clustering never adds
        // misses: the schedule-time Min-KS claim.
        for (size_t cap : {size_t(1), size_t(2), size_t(4)}) {
            const auto src_r = predictResidency(g, src, cap,
                                                EvictionPolicy::LRU);
            const auto ec_r =
                predictResidency(g, ec, cap, EvictionPolicy::LRU);
            EXPECT_LE(ec_r.misses, src_r.misses)
                << prog.name << " @ " << cap << " slots";
            EXPECT_LE(ec_r.evk_bytes, src_r.evk_bytes)
                << prog.name << " @ " << cap << " slots";
        }
    }
}

TEST(Scheduler, EvkClusterFullyClustersBootstrapKeys)
{
    // The unhoisted bootstrap emission interleaves baby/giant key
    // uses (interleave 1); clustering must make every key's uses
    // contiguous (interleave 0) — the hoisted Min-KS order.
    const SimProgram prog =
        bootstrapProgram(CkksParams::ark(), KeySchedule::MinKS);
    const HeGraph g = liftProgram(prog);
    const auto src = scheduleOrder(g, SchedulePolicy::SourceOrder);
    const auto ec = scheduleOrder(g, SchedulePolicy::EvkCluster);
    EXPECT_GE(maxEvkInterleave(g, src), 1u);
    EXPECT_EQ(maxEvkInterleave(g, ec), 0u);
}

TEST(Residency, AccountingIsExactAndConsistent)
{
    const SimProgram prog =
        bootstrapProgram(CkksParams::ark(), KeySchedule::MinKS);
    const HeGraph g = liftProgram(prog);
    const auto order = scheduleOrder(g, SchedulePolicy::EvkCluster);
    const ResidencyReport r =
        predictResidency(g, order, 2, EvictionPolicy::LRU);

    size_t keyswitches = 0;
    for (const auto &op : prog.ops)
        keyswitches += op.kind == SimOpKind::KeySwitch && op.evk_id >= 0;
    EXPECT_EQ(r.hits + r.misses, keyswitches);

    size_t uses = 0, hits = 0, misses = 0;
    double bytes = 0;
    for (const auto &e : r.per_evk) {
        EXPECT_EQ(e.uses, e.hits + e.misses);
        EXPECT_GE(e.misses, 1u) << "first use always streams";
        uses += e.uses;
        hits += e.hits;
        misses += e.misses;
        bytes += e.bytes_streamed;
    }
    EXPECT_EQ(uses, keyswitches);
    EXPECT_EQ(hits, r.hits);
    EXPECT_EQ(misses, r.misses);
    EXPECT_DOUBLE_EQ(bytes, r.evk_bytes);
}

TEST(Residency, BeladyNeverWorseThanLru)
{
    for (const SimProgram &prog : paperTraces()) {
        const HeGraph g = liftProgram(prog);
        const auto order =
            scheduleOrder(g, SchedulePolicy::SourceOrder);
        for (size_t cap : {size_t(1), size_t(2), size_t(4)}) {
            const auto lru = predictResidency(g, order, cap,
                                              EvictionPolicy::LRU);
            const auto min = predictResidency(
                g, order, cap, EvictionPolicy::Belady);
            EXPECT_LE(min.misses, lru.misses)
                << prog.name << " @ " << cap << " slots";
        }
    }
}

TEST(Residency, ZeroCapacityStreamsEveryKeySwitch)
{
    const SimProgram prog =
        bootstrapProgram(CkksParams::ark(), KeySchedule::MinKS);
    const HeGraph g = liftProgram(prog);
    const auto order = scheduleOrder(g, SchedulePolicy::EvkCluster);
    const ResidencyReport r =
        predictResidency(g, order, 0, EvictionPolicy::LRU);
    EXPECT_EQ(r.hits, 0u);
    EXPECT_EQ(r.misses,
              prog.count(SimOpKind::KeySwitch)); // all have evks here
}

TEST(Simulator, RunScheduledAgreesWithResidencyPredictor)
{
    // The planner's slot model and the cycle model's byte-capacity
    // model are the same cache: hits, misses, and streamed evk bytes
    // must agree exactly when run at the simulator's slot capacity.
    const CkksParams p = CkksParams::ark();
    const SimProgram prog = bootstrapProgram(p, KeySchedule::MinKS);
    for (double spad : {384.0, 512.0}) {
        ArkSimulator sim(
            MachineConfig::arkBase().withScratchpad(spad),
            SimAlgo{KeySchedule::MinKS, true});
        const size_t slots = sim.evkSlotCapacity(p);
        for (SchedulePolicy pol : kPolicies) {
            const ScheduledProgram sp =
                scheduleGraph(liftProgram(prog), pol, slots);
            const ScheduledSimResult r = sim.runScheduled(sp);
            EXPECT_EQ(static_cast<size_t>(r.scheduled.evk_misses),
                      sp.residency.misses)
                << schedulePolicyName(pol) << " @ " << spad;
            EXPECT_DOUBLE_EQ(r.scheduled.evk_bytes,
                             sp.residency.evk_bytes)
                << schedulePolicyName(pol) << " @ " << spad;
        }
    }
}

TEST(Simulator, SourceOrderScheduleMatchesPlainRun)
{
    const CkksParams p = CkksParams::ark();
    const SimProgram prog = bootstrapProgram(p, KeySchedule::MinKS);
    ArkSimulator sim(MachineConfig::arkBase(),
                     SimAlgo{KeySchedule::MinKS, true});
    const ScheduledProgram sp =
        scheduleGraph(liftProgram(prog), SchedulePolicy::SourceOrder,
                      sim.evkSlotCapacity(p));
    const ScheduledSimResult r = sim.runScheduled(sp);
    const SimResult plain = sim.run(prog);
    EXPECT_DOUBLE_EQ(r.scheduled.cycles, plain.cycles);
    EXPECT_DOUBLE_EQ(r.scheduled.hbm_bytes, plain.hbm_bytes);
    EXPECT_DOUBLE_EQ(r.source.cycles, plain.cycles);
    EXPECT_DOUBLE_EQ(r.speedup, 1.0);
    EXPECT_GT(plain.evk_bytes, 0.0);
    EXPECT_LE(plain.evk_bytes, plain.hbm_bytes);
}

TEST(Simulator, EvkClusterReducesTrafficUnderPressure)
{
    // The acceptance headline, pinned as a test: at one evk slot,
    // schedule-time clustering strictly reduces evk HBM traffic on
    // the bootstrap and ResNet traces.
    const CkksParams p = CkksParams::ark();
    ArkSimulator sim(MachineConfig::arkBase().withScratchpad(384),
                     SimAlgo{KeySchedule::MinKS, true});
    const size_t slots = sim.evkSlotCapacity(p);
    ASSERT_EQ(slots, 1u);
    for (const SimProgram &prog :
         {bootstrapProgram(p, KeySchedule::MinKS),
          resnetProgram(p, KeySchedule::MinKS)}) {
        const ScheduledSimResult r = sim.runScheduled(scheduleGraph(
            liftProgram(prog), SchedulePolicy::EvkCluster, slots));
        EXPECT_GT(r.evk_saved_bytes, 0.0) << prog.name;
        EXPECT_GT(r.speedup, 1.2) << prog.name;
    }
}

TEST(ServeSchedule, WorkloadLiftEncodesCommutation)
{
    ServeWorkload w;
    w.name = "toy";
    w.ops.push_back({ServeOpKind::Rotate, 1, 0, 0});
    w.ops.push_back({ServeOpKind::AddScalar, 0, 0, 0.5});
    w.ops.push_back({ServeOpKind::Rotate, 1, 0, 0});
    w.ops.push_back({ServeOpKind::Square, 0, 0, 0});
    w.ops.push_back({ServeOpKind::Rescale, 0, 0, 0});

    const HeGraph g = liftWorkload(w);
    ASSERT_EQ(g.nodes.size(), 5u);
    // Rotations chain past the commuting AddScalar...
    EXPECT_EQ(g.nodes[2].preds, std::vector<size_t>{0});
    // ...the AddScalar floats (no preds: nothing before it conflicts),
    EXPECT_TRUE(g.nodes[1].preds.empty());
    // ...and the Square joins everything since the last barrier.
    std::vector<size_t> sq = g.nodes[3].preds;
    std::sort(sq.begin(), sq.end());
    EXPECT_EQ(sq, (std::vector<size_t>{0, 1, 2}));
    EXPECT_EQ(g.nodes[4].preds, std::vector<size_t>{3});

    // EvkCluster pulls the same-key rotations together; the schedule
    // is a valid topological order and a permutation.
    const auto order = scheduleOrder(g, SchedulePolicy::EvkCluster);
    EXPECT_TRUE(g.isTopological(order));
    const ServeWorkload s = scheduleWorkload(w, SchedulePolicy::EvkCluster);
    ASSERT_EQ(s.ops.size(), w.ops.size());
    // The scheduler flushes the key-free CAdd first, then runs both
    // same-key rotations back to back.
    EXPECT_EQ(s.ops[0].kind, ServeOpKind::AddScalar);
    EXPECT_EQ(s.ops[1].kind, ServeOpKind::Rotate);
    EXPECT_EQ(s.ops[2].kind, ServeOpKind::Rotate);
}

TEST(ServeSchedule, ScheduledWorkloadIsAPermutation)
{
    const auto mix = standardServingMix(CkksParams::testTiny());
    for (const ServeWorkload &w : mix) {
        const ServeWorkload s =
            scheduleWorkload(w, SchedulePolicy::EvkCluster);
        ASSERT_EQ(s.ops.size(), w.ops.size()) << w.name;
        EXPECT_EQ(s.name, w.name);
        EXPECT_EQ(s.input_index, w.input_index);
        auto key = [](const ServeOp &o) {
            return std::make_tuple(static_cast<int>(o.kind),
                                   o.rotation, o.pt_index, o.scalar);
        };
        std::vector<std::tuple<int, i64, size_t, double>> a, b;
        for (const auto &o : w.ops)
            a.push_back(key(o));
        for (const auto &o : s.ops)
            b.push_back(key(o));
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        EXPECT_EQ(a, b) << w.name;
        // The schedule respects the workload's own commutation graph.
        const HeGraph g = liftWorkload(w);
        EXPECT_TRUE(g.isTopological(
            scheduleOrder(g, SchedulePolicy::EvkCluster)));
        // SourceOrder / BeladyResidency leave serving payloads alone.
        for (SchedulePolicy pol : {SchedulePolicy::SourceOrder,
                                   SchedulePolicy::BeladyResidency}) {
            const ServeWorkload id = scheduleWorkload(w, pol);
            ASSERT_EQ(id.ops.size(), w.ops.size());
            for (size_t i = 0; i < w.ops.size(); ++i)
                EXPECT_EQ(static_cast<int>(id.ops[i].kind),
                          static_cast<int>(w.ops[i].kind));
        }
    }
}

TEST(ServeSchedule, AdmissionOrderClustersSharedSignatures)
{
    const auto mix = standardServingMix(CkksParams::testTiny());
    ASSERT_GE(mix.size(), 2u);
    // Round-robin FCFS order interleaves workloads maximally; the
    // clustered order must group requests of identical signature
    // while preserving FCFS within each group.
    std::vector<size_t> reqs;
    for (size_t i = 0; i < 12; ++i)
        reqs.push_back(i % mix.size());
    const auto order = clusterAdmissionOrder(mix, reqs);

    ASSERT_EQ(order.size(), reqs.size());
    std::set<size_t> seen(order.begin(), order.end());
    EXPECT_EQ(seen.size(), reqs.size()); // a permutation

    // Grouping key: the rotation-evk signature (workloads may share
    // one, in which case their requests legitimately pool).
    auto signature = [&](size_t req) {
        std::vector<i64> amts = mix[reqs[req]].rotationAmounts();
        std::sort(amts.begin(), amts.end());
        return amts;
    };
    std::set<std::vector<i64>> distinct;
    for (size_t i = 0; i < reqs.size(); ++i)
        distinct.insert(signature(i));

    // A perfectly grouped permutation has exactly n - #groups adjacent
    // same-signature pairs; round-robin admission has far fewer.
    size_t adjacent = 0;
    for (size_t i = 1; i < order.size(); ++i)
        adjacent += signature(order[i]) == signature(order[i - 1]);
    EXPECT_EQ(adjacent, reqs.size() - distinct.size());

    // FCFS preserved within each signature group (stable sort).
    for (size_t i = 1; i < order.size(); ++i) {
        if (signature(order[i]) == signature(order[i - 1])) {
            EXPECT_LT(order[i - 1], order[i]);
        }
    }
}

} // namespace
} // namespace ark
