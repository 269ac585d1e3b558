/**
 * @file
 * Dependence-graph IR for HE programs — the scheduling counterpart of
 * the linear `SimProgram` trace.
 *
 * HE applications have no dynamic control flow, so a program *trace*
 * is a straight line; but the underlying dataflow is not: BSGS baby
 * rotations all consume one common input, giant-step groups accumulate
 * independently, and plaintext multiplies join only at the next
 * rescale. An `HeGraph` makes that slack explicit as a DAG of HE-op
 * nodes with predecessor/successor edges, so a scheduler
 * (graph/schedule.h) can choose *any* topological order — in
 * particular one that clusters ops sharing an evk (the paper's Min-KS
 * key-reuse lever applied at schedule time) — and a residency planner
 * (graph/residency.h) can bound the scratchpad traffic of that order.
 *
 * Simulator traces lift into this IR with phase-granular dependence
 * (graph/builder.h), for timing exploration.
 */

#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "sim/program.h"

namespace ark {

/** One HE op instance in the dependence graph. */
struct HeNode
{
    /** The op payload. `op.tag` is a view into the lifted program's
     *  storage (see SimOp::tag); the graph does not extend its
     *  lifetime. */
    SimOp op;
    /** Position of this op in the lifted linear trace. Source order
     *  (i.e. node index order) is always a valid topological order. */
    size_t index = 0;
    /** Nodes that must execute before this one (value, evk-chain, or
     *  barrier edges). */
    std::vector<size_t> preds;
    /** Nodes that must execute after this one. */
    std::vector<size_t> succs;
};

/** A whole program as a DAG. Node index == source-trace position. */
struct HeGraph
{
    std::string name;
    CkksParams params;
    std::vector<HeNode> nodes;

    size_t edgeCount() const
    {
        size_t e = 0;
        for (const auto &n : nodes)
            e += n.preds.size();
        return e;
    }

    /** Distinct evk ids referenced (the Min-KS working set size). */
    size_t distinctEvks() const
    {
        std::set<int> ids;
        for (const auto &n : nodes) {
            if (n.op.evk_id >= 0)
                ids.insert(n.op.evk_id);
        }
        return ids.size();
    }

    /**
     * True iff @p order is a permutation of all nodes that respects
     * every dependence edge — the validity contract every scheduling
     * policy must satisfy (tests/test_scheduler.cpp checks it for each
     * policy on each workload trace).
     */
    bool isTopological(const std::vector<size_t> &order) const
    {
        if (order.size() != nodes.size())
            return false;
        std::vector<size_t> pos(nodes.size(), nodes.size());
        for (size_t i = 0; i < order.size(); ++i) {
            if (order[i] >= nodes.size() ||
                pos[order[i]] != nodes.size())
                return false; // out of range or duplicate
            pos[order[i]] = i;
        }
        for (const auto &n : nodes) {
            for (size_t p : n.preds) {
                if (pos[p] >= pos[n.index])
                    return false;
            }
        }
        return true;
    }
};

} // namespace ark
