/**
 * @file
 * Multi-accelerator shard planning over the `HeGraph` dependence IR —
 * the scale-out counterpart of the single-chip scheduler.
 *
 * ARK sizes one chip's scratchpad so evk streaming stops dominating
 * HBM bandwidth; a fleet of N such chips serving one workload must
 * instead *partition* the evk working set. The unit of partitioning is
 * the **evk cluster**: every key-switch node consuming a given evk id.
 * Placing a whole cluster on one shard means that evk's material lives
 * on exactly one chip — per-shard working sets are disjoint by
 * construction, so each chip's scratchpad covers a strictly smaller
 * key set than the monolithic baseline.
 *
 * The planner is a deterministic greedy partitioner:
 *
 *  1. evk clusters are placed in descending cost-weight order. A
 *     cluster goes to the shard with the most dependence edges into it
 *     (affinity — fewer cut edges, less inter-chip transfer) among the
 *     shards still under the balance cap; when every shard is at the
 *     cap, the least-loaded shard wins. Ties break toward the lower
 *     shard index, so plans are reproducible.
 *  2. evk-free nodes (Rescale, ModRaise, element-wise glue) follow the
 *     majority shard of their already-placed neighbors, defaulting to
 *     the least-loaded shard — they carry no key material, so their
 *     only cost is the edges they cut.
 *
 * `ArkSimulator::runSharded` replays a `ScheduledProgram` against a
 * plan: each shard executes its induced subsequence of the schedule on
 * its own chip (own scratchpad residency model), and every cut edge
 * streams one ciphertext across the inter-chip link
 * (MachineConfig::link_gb_per_s). See docs/sharding.md for the design
 * rationale and the model's assumptions.
 */

#pragma once

#include <map>
#include <set>
#include <vector>

#include "graph/he_graph.h"

namespace ark {

/** Assignment of one program DAG across N simulated accelerators. */
struct ShardPlan
{
    size_t shards = 1;
    /** shard_of_node[i] = shard executing graph node (trace op) i. */
    std::vector<size_t> shard_of_node;
    /** Owning shard per evk id — every evk cluster lands on exactly
     *  one shard (the planner's core invariant). */
    std::map<int, size_t> shard_of_evk;
    /** Distinct evk ids resident on each shard (pairwise disjoint;
     *  their union is the graph's distinct evk set). */
    std::vector<std::set<int>> evks_of_shard;
    /** Nodes placed on each shard. */
    std::vector<size_t> nodes_of_shard;
    /** Cost weight placed on each shard (kind-weighted op counts —
     *  the balance objective, not a cycle estimate). */
    std::vector<size_t> weight_of_shard;
    /** Dependence edges whose endpoints landed on different shards,
     *  as (producer node, consumer node). Each streams the producer's
     *  ciphertext across the inter-chip link. */
    std::vector<std::pair<size_t, size_t>> cut_edges;

    /** Largest per-shard distinct-evk working set. */
    size_t maxEvksPerShard() const
    {
        size_t m = 0;
        for (const auto &s : evks_of_shard)
            m = std::max(m, s.size());
        return m;
    }
};

/**
 * Relative placement weight of one op: a coarse cost-model ranking
 * (key switches dominate, glue ops are cheap) used only to balance
 * shards — cycle-accurate cost stays the simulator's business.
 */
size_t shardOpWeight(const SimOp &op);

/**
 * Partition @p g across @p shards accelerators. Deterministic; every
 * node is assigned, and every evk cluster lands on exactly one shard.
 * @p shards must be >= 1; a 1-shard plan is the identity (everything
 * on shard 0, no cut edges).
 */
ShardPlan planProgramShards(const HeGraph &g, size_t shards);

} // namespace ark
