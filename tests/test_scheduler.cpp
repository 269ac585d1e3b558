/**
 * @file
 * Tests for the dependence-graph scheduler subsystem (src/graph/):
 * lift round-trips, topological validity of every policy, the
 * EvkCluster working-set guarantee, Belady's optimality ordering,
 * and predictor/simulator residency agreement.
 */

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/schedule.h"
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

} // namespace
} // namespace ark
