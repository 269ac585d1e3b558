#include "graph/schedule.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/logging.h"
#include "graph/builder.h"

namespace ark {

const char *
schedulePolicyName(SchedulePolicy p)
{
    switch (p) {
      case SchedulePolicy::SourceOrder: return "source-order";
      case SchedulePolicy::EvkCluster: return "evk-cluster";
      case SchedulePolicy::BeladyResidency: return "belady-residency";
    }
    return "?";
}

namespace {

std::vector<size_t>
identityOrder(const HeGraph &g)
{
    std::vector<size_t> order(g.nodes.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    return order;
}

/**
 * Greedy evk-clustering list scheduler (Kahn with a key-affine
 * priority). Among ready nodes:
 *   1. an op using the currently live evk (keep the same-key run
 *      going — this is the Min-KS clustering step);
 *   2. an op with no evk (flush key-free work before paying a switch);
 *   3. open a new run on the ready evk with the most ready ops
 *      (largest contiguous run first; fewer switches overall).
 * Every tie breaks toward the smallest source index, so the schedule
 * is deterministic and degrades to source order on a pure chain.
 */
std::vector<size_t>
evkClusterOrder(const HeGraph &g)
{
    const size_t n = g.nodes.size();
    std::vector<size_t> missing(n);
    std::set<size_t> ready; // ordered: smallest source index first
    for (size_t i = 0; i < n; ++i) {
        missing[i] = g.nodes[i].preds.size();
        if (missing[i] == 0)
            ready.insert(i);
    }

    std::vector<size_t> order;
    order.reserve(n);
    int live_evk = -1;

    while (!ready.empty()) {
        size_t pick = n;

        // 1. continue the live same-key run.
        if (live_evk >= 0) {
            for (size_t i : ready) {
                const SimOp &op = g.nodes[i].op;
                if (op.kind == SimOpKind::KeySwitch &&
                    op.evk_id == live_evk) {
                    pick = i;
                    break;
                }
            }
        }
        // 2. key-free ready work.
        if (pick == n) {
            for (size_t i : ready) {
                const SimOp &op = g.nodes[i].op;
                if (op.kind != SimOpKind::KeySwitch ||
                    op.evk_id < 0) {
                    pick = i;
                    break;
                }
            }
        }
        // 3. switch keys: open the widest ready run.
        if (pick == n) {
            std::map<int, size_t> count, first;
            for (size_t i : ready) {
                const int id = g.nodes[i].op.evk_id;
                ++count[id];
                if (!first.count(id))
                    first[id] = i;
            }
            int best_id = -1;
            for (const auto &[id, c] : count) {
                if (best_id < 0 || c > count[best_id] ||
                    (c == count[best_id] &&
                     first[id] < first[best_id]))
                    best_id = id;
            }
            pick = first[best_id];
        }

        ready.erase(pick);
        order.push_back(pick);
        const SimOp &op = g.nodes[pick].op;
        if (op.kind == SimOpKind::KeySwitch && op.evk_id >= 0)
            live_evk = op.evk_id;
        for (size_t s : g.nodes[pick].succs) {
            if (--missing[s] == 0)
                ready.insert(s);
        }
    }
    ARK_ASSERT(order.size() == n, "graph has a dependence cycle");
    return order;
}

} // namespace

std::vector<size_t>
scheduleOrder(const HeGraph &g, SchedulePolicy policy)
{
    switch (policy) {
      case SchedulePolicy::SourceOrder:
      case SchedulePolicy::BeladyResidency:
        return identityOrder(g);
      case SchedulePolicy::EvkCluster:
        return evkClusterOrder(g);
    }
    return identityOrder(g);
}

ScheduledProgram
scheduleGraph(const HeGraph &g, SchedulePolicy policy,
              size_t capacity_evks)
{
    ScheduledProgram sp;
    sp.policy = policy;
    sp.order = scheduleOrder(g, policy);
    sp.eviction = policy == SchedulePolicy::BeladyResidency
                      ? EvictionPolicy::Belady
                      : EvictionPolicy::LRU;

    sp.source.name = g.name;
    sp.source.params = g.params;
    sp.source.ops.reserve(g.nodes.size());
    for (const auto &node : g.nodes)
        sp.source.ops.push_back(node.op);

    sp.scheduled.name = g.name;
    sp.scheduled.params = g.params;
    sp.scheduled.ops.reserve(g.nodes.size());
    for (size_t idx : sp.order)
        sp.scheduled.ops.push_back(g.nodes[idx].op);

    sp.residency =
        predictResidency(g, sp.order, capacity_evks, sp.eviction);
    return sp;
}

} // namespace ark
