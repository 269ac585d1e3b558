/**
 * @file
 * Schedulers over the `HeGraph` dependence IR: pick a topological
 * order (and an eviction discipline) that minimizes evk streaming —
 * the paper's Min-KS inter-operation key reuse applied at schedule
 * time instead of at key-generation time.
 *
 * Policies:
 *  - SourceOrder: the identity baseline — replay the trace exactly as
 *    emitted (what the simulator and the FCFS server always did).
 *  - EvkCluster: greedy list scheduling that keeps issuing ready ops
 *    sharing the live evk before switching keys, turning interleaved
 *    emission orders (unhoisted BSGS baby/giant alternation,
 *    convolution tap walks) back into contiguous same-key runs that
 *    hit in the scratchpad.
 *  - BeladyResidency: source order with offline-optimal (MIN) evk
 *    eviction — no reordering, but the residency upper bound any
 *    online eviction policy chases; the gap between it and EvkCluster
 *    under LRU is the traffic a smarter cache could still remove.
 *
 * Every policy emits a `ScheduledProgram`: the chosen order, the
 * reordered trace, and a predicted residency report for the requested
 * scratchpad slot capacity. `ArkSimulator::runScheduled` replays one
 * against the cycle model and reports the HBM-traffic delta vs source
 * order; `TrafficAnalyzer::analyzeScheduled` maps it onto the Fig. 2
 * traffic/intensity axes.
 */

#pragma once

#include "graph/he_graph.h"
#include "graph/residency.h"

namespace ark {

/** Scheduling disciplines (see file header). */
enum class SchedulePolicy {
    SourceOrder,
    EvkCluster,
    BeladyResidency,
};

const char *schedulePolicyName(SchedulePolicy p);

/** A scheduled program: an order, its trace, and its residency plan. */
struct ScheduledProgram
{
    SchedulePolicy policy = SchedulePolicy::SourceOrder;
    /** order[i] = graph-node (source-trace) index executed i-th. */
    std::vector<size_t> order;
    /** The original lifted trace. */
    SimProgram source;
    /** The trace permuted into schedule order. */
    SimProgram scheduled;
    /** Eviction discipline the schedule assumes (Belady only for
     *  BeladyResidency; LRU otherwise, matching the online model). */
    EvictionPolicy eviction = EvictionPolicy::LRU;
    /** Predicted evk residency of `order` under `eviction`. */
    ResidencyReport residency;
};

/**
 * Compute a topological order of @p g under @p policy. Deterministic:
 * ties break toward the smallest source index, and SourceOrder always
 * returns the identity.
 */
std::vector<size_t> scheduleOrder(const HeGraph &g,
                                  SchedulePolicy policy);

/**
 * Schedule @p g end to end: order + reordered trace + residency
 * prediction at @p capacity_evks scratchpad slots (use
 * ArkSimulator::evkSlotCapacity for a machine-consistent value).
 */
ScheduledProgram scheduleGraph(const HeGraph &g, SchedulePolicy policy,
                               size_t capacity_evks);

} // namespace ark
