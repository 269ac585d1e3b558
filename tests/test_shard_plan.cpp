/**
 * @file
 * Shard-planning invariants (src/shard/ + ArkSimulator::runSharded):
 * every evk cluster lands on exactly one shard, per-shard evk sets
 * partition the program's evk set, sharded residency accounting sums
 * consistently with the unsharded run, and per-shard evk HBM traffic sits
 * strictly below the single-chip EvkCluster baseline under scratchpad
 * pressure.
 */

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "shard/shard_plan.h"
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

/** The pressure point bench_scheduler gates at: one evk slot. */
ArkSimulator
pressureSim()
{
    return ArkSimulator(MachineConfig::arkBase().withScratchpad(384),
                        SimAlgo{KeySchedule::MinKS, true});
}

TEST(ShardPlan, EveryNodeAssignedAndEvkClustersExclusive)
{
    for (const SimProgram &prog : paperTraces()) {
        const HeGraph g = liftProgram(prog);
        for (size_t n : {size_t{1}, size_t{2}, size_t{3}}) {
            const ShardPlan plan = planProgramShards(g, n);
            ASSERT_EQ(plan.shards, n);
            ASSERT_EQ(plan.shard_of_node.size(), g.nodes.size());
            for (size_t s : plan.shard_of_node)
                EXPECT_LT(s, n);

            // Every key-switch node sits on its evk's owning shard —
            // the cluster is never split.
            for (const auto &node : g.nodes) {
                if (node.op.kind != SimOpKind::KeySwitch ||
                    node.op.evk_id < 0)
                    continue;
                auto it = plan.shard_of_evk.find(node.op.evk_id);
                ASSERT_NE(it, plan.shard_of_evk.end());
                EXPECT_EQ(plan.shard_of_node[node.index], it->second)
                    << prog.name << " evk " << node.op.evk_id;
            }

            // Per-shard evk sets are pairwise disjoint and cover the
            // graph's distinct evk set exactly.
            std::set<int> seen;
            size_t total = 0;
            for (const auto &evks : plan.evks_of_shard) {
                total += evks.size();
                seen.insert(evks.begin(), evks.end());
            }
            EXPECT_EQ(total, seen.size()) << "evk owned twice";
            EXPECT_EQ(seen.size(), g.distinctEvks()) << prog.name;

            // Cut edges really cross shards.
            for (const auto &[p_, c] : plan.cut_edges)
                EXPECT_NE(plan.shard_of_node[p_],
                          plan.shard_of_node[c]);
        }
    }
}

TEST(ShardPlan, SingleShardIsIdentity)
{
    const SimProgram prog = paperTraces()[0];
    const HeGraph g = liftProgram(prog);
    const ShardPlan plan = planProgramShards(g, 1);
    EXPECT_TRUE(plan.cut_edges.empty());
    EXPECT_EQ(plan.nodes_of_shard[0], g.nodes.size());
    EXPECT_EQ(plan.evks_of_shard[0].size(), g.distinctEvks());
}

TEST(ShardPlan, PlansAreDeterministic)
{
    const SimProgram prog = paperTraces()[2]; // ResNet
    const HeGraph g = liftProgram(prog);
    const ShardPlan a = planProgramShards(g, 3);
    const ShardPlan b = planProgramShards(g, 3);
    EXPECT_EQ(a.shard_of_node, b.shard_of_node);
    EXPECT_EQ(a.cut_edges, b.cut_edges);
}

TEST(ShardedSim, ResidencyAccountingSumsToUnshardedRun)
{
    const ArkSimulator sim = pressureSim();
    for (const SimProgram &prog : paperTraces()) {
        const size_t slots =
            sim.evkSlotCapacity(prog.params);
        const ScheduledProgram sp = scheduleGraph(
            liftProgram(prog), SchedulePolicy::EvkCluster, slots);
        const SimResult single =
            sim.runScheduled(sp).scheduled;
        const HeGraph g = liftProgram(prog);

        for (size_t n : {size_t{2}, size_t{4}}) {
            const ShardPlan plan = planProgramShards(g, n);
            const ShardedSimResult r =
                sim.runSharded(sp, plan, &single);
            ASSERT_EQ(r.per_shard.size(), n);

            // Every key switch touches exactly one shard's cache, so
            // accesses are conserved across the partition.
            double accesses = 0, total_evk_bytes = 0;
            for (const SimResult &s : r.per_shard) {
                accesses += s.evk_hits + s.evk_misses;
                total_evk_bytes += s.evk_bytes;
            }
            EXPECT_DOUBLE_EQ(accesses,
                             single.evk_hits + single.evk_misses)
                << prog.name;

            // A shard sees the filtered access stream of a disjoint
            // key subset: reuse distances only shrink, so LRU misses
            // (hence evk bytes) can only go down in aggregate.
            EXPECT_LE(total_evk_bytes, single.evk_bytes + 1e-6)
                << prog.name;
            EXPECT_DOUBLE_EQ(total_evk_bytes, r.total_evk_bytes);
        }
    }
}

TEST(ShardedSim, PerShardEvkTrafficBelowSingleChipEvkCluster)
{
    // The acceptance gate: at >= 2 shards on the bootstrap and ResNet
    // workloads, EVERY shard's evk HBM stream is strictly below the
    // single-chip EvkCluster baseline at the same scratchpad.
    const ArkSimulator sim = pressureSim();
    const CkksParams p = CkksParams::ark();
    std::vector<SimProgram> gated;
    gated.push_back(bootstrapProgram(p, KeySchedule::MinKS));
    gated.push_back(resnetProgram(p, KeySchedule::MinKS));

    for (const SimProgram &prog : gated) {
        const size_t slots = sim.evkSlotCapacity(p);
        const ScheduledProgram sp = scheduleGraph(
            liftProgram(prog), SchedulePolicy::EvkCluster, slots);
        const SimResult single = sim.runScheduled(sp).scheduled;
        ASSERT_GT(single.evk_bytes, 0) << prog.name;

        const HeGraph g = liftProgram(prog);
        for (size_t n : {size_t{2}, size_t{4}}) {
            const ShardedSimResult r =
                sim.runSharded(sp, planProgramShards(g, n), &single);
            for (size_t s = 0; s < n; ++s) {
                EXPECT_LT(r.per_shard[s].evk_bytes, single.evk_bytes)
                    << prog.name << " shard " << s << "/" << n;
            }
            EXPECT_LT(r.max_shard_evk_bytes, single.evk_bytes);
            // The makespan model: slowest shard plus serialized link.
            double slowest = 0;
            for (const SimResult &sr : r.per_shard)
                slowest = std::max(slowest, sr.seconds);
            EXPECT_DOUBLE_EQ(r.seconds, slowest + r.link_seconds);
            EXPECT_GT(r.link_bytes, 0) << "a split DAG must cut edges";
        }
    }
}

TEST(ShardedSim, OneShardMatchesSingleChipSchedule)
{
    const ArkSimulator sim = pressureSim();
    const SimProgram prog =
        bootstrapProgram(CkksParams::ark(), KeySchedule::MinKS);
    const size_t slots = sim.evkSlotCapacity(prog.params);
    const ScheduledProgram sp = scheduleGraph(
        liftProgram(prog), SchedulePolicy::EvkCluster, slots);
    const SimResult single = sim.runScheduled(sp).scheduled;

    const ShardedSimResult r =
        sim.runSharded(sp, planProgramShards(liftProgram(prog), 1));
    ASSERT_EQ(r.per_shard.size(), 1u);
    EXPECT_DOUBLE_EQ(r.per_shard[0].evk_bytes, single.evk_bytes);
    EXPECT_DOUBLE_EQ(r.per_shard[0].hbm_bytes, single.hbm_bytes);
    EXPECT_DOUBLE_EQ(r.link_bytes, 0);
    EXPECT_DOUBLE_EQ(r.seconds, r.per_shard[0].seconds);
}

} // namespace
} // namespace ark
