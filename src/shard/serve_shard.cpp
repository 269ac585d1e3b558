#include "shard/serve_shard.h"

#include <algorithm>
#include <set>

#include "common/logging.h"

namespace ark {

ServeShardPlan
planServeShards(const std::vector<ServeWorkload> &workloads,
                size_t shards)
{
    ARK_ASSERT(shards >= 1, "a plan needs at least one shard");

    ServeShardPlan plan;
    plan.shards = shards;
    plan.shard_of_workload.assign(workloads.size(), 0);
    plan.evks_of_shard.assign(shards, {});
    plan.weight_of_shard.assign(shards, 0);

    // Group workloads by evk signature (serve/workload.h,
    // groupByEvkSignature — the same grouping clusterAdmissionOrder
    // clusters in time, partitioned here in space).
    struct Group
    {
        std::vector<i64> signature; // sorted distinct rotations
        std::vector<size_t> members; // workload indices
        size_t weight = 0;           // total ops
        size_t first = 0;            // first-appearance tie-break
    };
    std::vector<Group> groups;
    for (const std::vector<size_t> &members :
         groupByEvkSignature(workloads)) {
        Group gr;
        gr.signature = workloads[members.front()].evkSignature();
        gr.members = members;
        gr.first = members.front();
        for (size_t wi : members)
            gr.weight += workloads[wi].ops.size();
        groups.push_back(std::move(gr));
    }

    size_t total_weight = 0;
    for (const auto &gr : groups)
        total_weight += gr.weight;

    std::vector<size_t> order(groups.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        if (groups[a].weight != groups[b].weight)
            return groups[a].weight > groups[b].weight;
        return groups[a].first < groups[b].first;
    });

    // Same placement discipline as planProgramShards: affinity (here,
    // signature overlap with the shard's accumulated key set) wins
    // while the shard stays under the balance cap. The serving cap is
    // looser (25% headroom) than the DAG planner's: pulling a request
    // family onto the shard already holding its keys is worth some
    // queue imbalance, since groups drain independently.
    const size_t per_shard = (total_weight + shards - 1) / shards;
    const size_t cap =
        shards > 1 ? per_shard + per_shard / 4 : total_weight;
    std::vector<std::set<i64>> keys(shards);

    auto leastLoaded = [&]() {
        size_t best = 0;
        for (size_t s = 1; s < shards; ++s) {
            if (plan.weight_of_shard[s] < plan.weight_of_shard[best])
                best = s;
        }
        return best;
    };

    for (size_t gi : order) {
        const Group &gr = groups[gi];
        size_t pick = shards;
        size_t pick_overlap = 0;
        for (size_t s = 0; s < shards; ++s) {
            if (plan.weight_of_shard[s] + gr.weight > cap)
                continue;
            size_t overlap = 0;
            for (i64 amt : gr.signature)
                overlap += keys[s].count(amt);
            const bool better =
                pick == shards || overlap > pick_overlap ||
                (overlap == pick_overlap &&
                 plan.weight_of_shard[s] <
                     plan.weight_of_shard[pick]);
            if (better) {
                pick = s;
                pick_overlap = overlap;
            }
        }
        if (pick == shards)
            pick = leastLoaded();

        for (size_t wi : gr.members)
            plan.shard_of_workload[wi] = pick;
        plan.weight_of_shard[pick] += gr.weight;
        keys[pick].insert(gr.signature.begin(), gr.signature.end());
    }

    for (size_t s = 0; s < shards; ++s)
        plan.evks_of_shard[s].assign(keys[s].begin(), keys[s].end());
    return plan;
}

ServeShardPlan
replanServeShards(const std::vector<ServeWorkload> &workloads,
                  const ServeShardPlan &current,
                  const ServeShardSignal &signal)
{
    const size_t shards = current.shards;
    ARK_ASSERT(current.shard_of_workload.size() == workloads.size(),
               "plan does not match the workload set");
    ARK_ASSERT(signal.peak_depth.size() == shards,
               "signal does not match the shard count");
    if (shards < 2)
        return current;

    // Hottest / coldest by queue peak depth, lower index breaking
    // ties for determinism.
    auto hotter = [&](size_t a, size_t b) {
        return signal.peak_depth[a] > signal.peak_depth[b];
    };
    size_t hot = 0, cold = 0;
    for (size_t s = 1; s < shards; ++s) {
        if (hotter(s, hot))
            hot = s;
        if (hotter(cold, s))
            cold = s;
    }
    // Move only on a clear imbalance: the hottest queue peaked at
    // least twice as deep as the coldest (the +1 keeps an all-idle or
    // barely-loaded window from triggering churn).
    if (hot == cold ||
        signal.peak_depth[hot] < 2 * signal.peak_depth[cold] + 1)
        return current;

    // Reconstruct the signature groups and their current placement
    // (groups move atomically, so every member shares one shard).
    struct Group
    {
        std::vector<i64> signature;
        std::vector<size_t> members;
        size_t weight = 0;
        size_t shard = 0;
    };
    std::vector<Group> groups;
    size_t hot_groups = 0;
    for (const std::vector<size_t> &members :
         groupByEvkSignature(workloads)) {
        Group gr;
        gr.signature = workloads[members.front()].evkSignature();
        gr.members = members;
        gr.shard = current.shard_of_workload[members.front()];
        for (size_t wi : members)
            gr.weight += workloads[wi].ops.size();
        hot_groups += gr.shard == hot ? 1 : 0;
        groups.push_back(std::move(gr));
    }
    // Never strand the hot shard: it keeps at least one group, so no
    // shard with workers ever serves an empty workload set.
    if (hot_groups < 2)
        return current;

    // Migrate the LIGHTEST hot group: it relieves the least affinity
    // (smallest key set to re-warm on the cold shard) per move, and a
    // wrong move costs the least. First appearance breaks ties.
    size_t pick = groups.size();
    for (size_t g = 0; g < groups.size(); ++g) {
        if (groups[g].shard != hot)
            continue;
        if (pick == groups.size() ||
            groups[g].weight < groups[pick].weight)
            pick = g;
    }
    groups[pick].shard = cold;

    ServeShardPlan plan;
    plan.shards = shards;
    plan.shard_of_workload.assign(workloads.size(), 0);
    plan.evks_of_shard.assign(shards, {});
    plan.weight_of_shard.assign(shards, 0);
    std::vector<std::set<i64>> keys(shards);
    for (const Group &gr : groups) {
        for (size_t wi : gr.members)
            plan.shard_of_workload[wi] = gr.shard;
        plan.weight_of_shard[gr.shard] += gr.weight;
        keys[gr.shard].insert(gr.signature.begin(),
                              gr.signature.end());
    }
    for (size_t s = 0; s < shards; ++s)
        plan.evks_of_shard[s].assign(keys[s].begin(), keys[s].end());
    return plan;
}

} // namespace ark
