/**
 * @file
 * Evk-affinity shard routing for the serving plane.
 *
 * The BatchServer's sharded mode (BatchServerConfig::shards) splits
 * its workers into N groups, each with its own request queue; every
 * request is routed to the group that already holds the evk material
 * its workload references. The routing unit is the **evk signature**:
 * a workload's sorted set of distinct rotation amounts — the same
 * structure `clusterAdmissionOrder` (graph/serve_schedule.h) uses to
 * co-locate same-key requests in time, applied here to co-locate them
 * in *space*. Workloads sharing a signature always land on the same
 * shard, so a worker group's hot key set stays small and stable no
 * matter how the traffic mixes.
 *
 * Routing never changes results: a request is a pure function of
 * fixed, prewarmed key material, so a sharded server is bit-identical
 * to the single-queue FCFS server (tests/test_sharded_serving.cpp
 * enforces this on both kernel backends).
 */

#pragma once

#include <vector>

#include "serve/workload.h"

namespace ark {

/** Assignment of a workload set across N serving shards. */
struct ServeShardPlan
{
    size_t shards = 1;
    /** shard_of_workload[i] = worker group serving workload i. */
    std::vector<size_t> shard_of_workload;
    /** Sorted distinct rotation amounts routed to each shard (the
     *  shard's evk working set; may overlap across shards when
     *  signatures share amounts). */
    std::vector<std::vector<i64>> evks_of_shard;
    /** Total ops routed to each shard (the balance objective). */
    std::vector<size_t> weight_of_shard;
};

/**
 * Partition @p workloads across @p shards worker groups.
 * Deterministic greedy: distinct evk signatures are placed in
 * descending op-weight order onto the shard whose existing key set
 * overlaps the signature most (evk affinity), among shards under a
 * soft balance cap; ties break toward the lighter, then lower-indexed
 * shard. Workloads with identical signatures co-locate by
 * construction. @p shards must be >= 1.
 */
ServeShardPlan
planServeShards(const std::vector<ServeWorkload> &workloads,
                size_t shards);

/**
 * Observed per-shard load since the last replan: the queue peak depth
 * (RequestQueue::peakDepth), indexed by shard, with plan.shards
 * entries.
 */
struct ServeShardSignal
{
    std::vector<size_t> peak_depth;
};

/**
 * Online re-plan: migrate evk-signature groups between shards when
 * the observed load says the static plan got the traffic mix wrong.
 * Conservative and deterministic: only when the hottest shard's
 * peak depth (lower index breaking ties) is at least double
 * the coldest's does ONE group move — the lightest group on the
 * hottest shard, provided that shard keeps at least one group (no
 * shard that serves traffic is ever stranded without workloads, and
 * no workload is ever left unassigned). Returns @p current unchanged
 * when balanced. Routing-only by construction: requests already
 * queued stay where they are, so results remain bit-identical to the
 * static plan (tests/test_serving_rebalance.cpp).
 */
ServeShardPlan
replanServeShards(const std::vector<ServeWorkload> &workloads,
                  const ServeShardPlan &current,
                  const ServeShardSignal &signal);

} // namespace ark
