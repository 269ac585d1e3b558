#include "shard/shard_plan.h"

#include <algorithm>

#include "common/logging.h"

namespace ark {

size_t
shardOpWeight(const SimOp &op)
{
    switch (op.kind) {
      case SimOpKind::KeySwitch: return 8;
      case SimOpKind::ModRaise: return 4;
      case SimOpKind::PMult: return 2;
      case SimOpKind::Rescale: return 1;
      case SimOpKind::Elementwise: return 1;
    }
    return 1;
}

namespace {

/** Edges between @p nodes and nodes already placed on @p shard. */
size_t
affinity(const HeGraph &g, const std::vector<size_t> &nodes,
         const std::vector<size_t> &shard_of_node, size_t shard)
{
    size_t aff = 0;
    for (size_t i : nodes) {
        for (size_t p : g.nodes[i].preds)
            aff += shard_of_node[p] == shard;
        for (size_t s : g.nodes[i].succs)
            aff += shard_of_node[s] == shard;
    }
    return aff;
}

} // namespace

ShardPlan
planProgramShards(const HeGraph &g, size_t shards)
{
    ARK_ASSERT(shards >= 1, "a plan needs at least one shard");
    const size_t n = g.nodes.size();
    const size_t kUnassigned = shards; // sentinel during placement

    ShardPlan plan;
    plan.shards = shards;
    plan.shard_of_node.assign(n, kUnassigned);
    plan.evks_of_shard.assign(shards, {});
    plan.nodes_of_shard.assign(shards, 0);
    plan.weight_of_shard.assign(shards, 0);

    // Gather evk clusters (nodes per evk id) and the total weight.
    std::map<int, std::vector<size_t>> cluster; // evk id -> nodes
    std::map<int, size_t> cluster_weight;
    size_t total_weight = 0;
    for (const auto &node : g.nodes) {
        total_weight += shardOpWeight(node.op);
        if (node.op.kind == SimOpKind::KeySwitch &&
            node.op.evk_id >= 0) {
            cluster[node.op.evk_id].push_back(node.index);
            cluster_weight[node.op.evk_id] += shardOpWeight(node.op);
        }
    }

    // Place heavy clusters first (LPT-style), so the balance cap has
    // room to absorb the tail of light ones.
    std::vector<int> ids;
    ids.reserve(cluster.size());
    for (const auto &[id, nodes] : cluster)
        ids.push_back(id);
    std::sort(ids.begin(), ids.end(), [&](int a, int b) {
        if (cluster_weight[a] != cluster_weight[b])
            return cluster_weight[a] > cluster_weight[b];
        return a < b;
    });

    // Soft balance cap: 10% headroom over the perfect split. Affinity
    // may pull a cluster toward its neighbors only while the target
    // shard stays under the cap; past it, balance wins outright.
    const size_t cap =
        shards > 1 ? total_weight / shards + total_weight / (10 * shards)
                   : total_weight;

    auto leastLoaded = [&]() {
        size_t best = 0;
        for (size_t s = 1; s < shards; ++s) {
            if (plan.weight_of_shard[s] < plan.weight_of_shard[best])
                best = s;
        }
        return best;
    };

    for (int id : ids) {
        const std::vector<size_t> &nodes = cluster[id];
        size_t pick = kUnassigned;
        size_t pick_aff = 0;
        for (size_t s = 0; s < shards; ++s) {
            if (plan.weight_of_shard[s] + cluster_weight[id] > cap)
                continue;
            const size_t aff =
                affinity(g, nodes, plan.shard_of_node, s);
            const bool better =
                pick == kUnassigned || aff > pick_aff ||
                (aff == pick_aff &&
                 plan.weight_of_shard[s] <
                     plan.weight_of_shard[pick]);
            if (better) {
                pick = s;
                pick_aff = aff;
            }
        }
        if (pick == kUnassigned) // every shard at the cap: balance
            pick = leastLoaded();

        plan.shard_of_evk[id] = pick;
        plan.evks_of_shard[pick].insert(id);
        for (size_t i : nodes) {
            plan.shard_of_node[i] = pick;
            plan.nodes_of_shard[pick] += 1;
            plan.weight_of_shard[pick] += shardOpWeight(g.nodes[i].op);
        }
    }

    // Evk-free glue follows the majority of its placed neighbors.
    for (size_t i = 0; i < n; ++i) {
        if (plan.shard_of_node[i] != kUnassigned)
            continue;
        std::vector<size_t> votes(shards, 0);
        bool any = false;
        for (size_t p : g.nodes[i].preds) {
            if (plan.shard_of_node[p] != kUnassigned) {
                ++votes[plan.shard_of_node[p]];
                any = true;
            }
        }
        for (size_t s : g.nodes[i].succs) {
            if (plan.shard_of_node[s] != kUnassigned) {
                ++votes[plan.shard_of_node[s]];
                any = true;
            }
        }
        size_t pick = leastLoaded();
        if (any) {
            pick = 0;
            for (size_t s = 1; s < shards; ++s) {
                if (votes[s] > votes[pick])
                    pick = s;
            }
        }
        plan.shard_of_node[i] = pick;
        plan.nodes_of_shard[pick] += 1;
        plan.weight_of_shard[pick] += shardOpWeight(g.nodes[i].op);
    }

    for (const auto &node : g.nodes) {
        for (size_t p : node.preds) {
            if (plan.shard_of_node[p] != plan.shard_of_node[node.index])
                plan.cut_edges.emplace_back(p, node.index);
        }
    }
    return plan;
}

} // namespace ark
