/**
 * @file
 * Evk scratchpad-residency planning over a scheduled op order.
 *
 * The scratchpad slots left over by the key-switch working set hold
 * whole evaluation keys; every key-switch whose evk is resident is a
 * hit, every other one streams the key from HBM (the traffic Min-KS
 * exists to remove). This planner replays a schedule against a
 * slot-capacity cache model under two eviction policies:
 *
 *  - LRU: what the cycle simulator's online model does;
 *  - Belady: offline-optimal MIN (evict the resident key whose next
 *    use is farthest away; a key never used again is bypassed) — the
 *    upper bound any online policy, and any hardware design, chases.
 *
 * The model is deliberately the same shape as ArkSimulator's: capacity
 * is counted in full-size evk slots, a miss streams the level-sized
 * key (partial limbs at lower levels, HdftPlan::evkBytes). When the
 * capacities agree, predicted hits/misses/bytes match the simulator's
 * replay exactly (tests/test_scheduler.cpp pins this).
 */

#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "graph/he_graph.h"

namespace ark {

/** How the planner picks an eviction victim on a full-cache miss. */
enum class EvictionPolicy {
    LRU,    ///< online least-recently-used (the simulator's default)
    Belady, ///< offline optimal (farthest next use, with bypass)
};

/**
 * The slot-capacity evk cache replay shared by the residency planner
 * and the cycle simulator — ONE implementation, so predicted and
 * simulated hits/misses can never drift apart.
 */
class EvkSlotCache
{
  public:
    /** Sentinel next-use step for "never used again". */
    static constexpr size_t kNever =
        std::numeric_limits<size_t>::max();

    EvkSlotCache(size_t capacity_evks, EvictionPolicy eviction)
        : capacity_(capacity_evks), eviction_(eviction)
    {
    }

    /**
     * Touch @p evk at schedule step @p step. @p next_use is the step
     * of this evk's next use (kNever if none; ignored under LRU —
     * pass kNever). Returns true on a hit; a miss inserts the key and
     * evicts per policy (Belady may bypass the key just inserted).
     */
    bool access(int evk, size_t step, size_t next_use);

  private:
    struct Slot
    {
        int evk;
        size_t last_touch; ///< step of latest use (LRU recency)
        size_t next_use;   ///< step of next use (Belady distance)
    };

    size_t capacity_;
    EvictionPolicy eviction_;
    std::vector<Slot> resident_;
};

/**
 * Belady's future knowledge: next_use[s] = the next step after s at
 * which evk_seq[s] recurs (kNever if it never does). @p evk_seq holds
 * the evk id consumed at each step, < 0 for steps without a key.
 */
std::vector<size_t> nextUseSteps(const std::vector<int> &evk_seq);

/** Per-evk accounting of one residency replay. */
struct EvkResidency
{
    int evk_id = -1;
    size_t uses = 0;
    size_t hits = 0;
    size_t misses = 0;
    double bytes_streamed = 0; ///< HBM bytes for the misses
};

/** Outcome of replaying one schedule against the slot cache. */
struct ResidencyReport
{
    size_t capacity_evks = 0;
    EvictionPolicy eviction = EvictionPolicy::LRU;
    size_t hits = 0;
    size_t misses = 0;
    double evk_bytes = 0; ///< total evk HBM bytes streamed
    /** Per-evk breakdown, ordered by first use in the schedule. */
    std::vector<EvkResidency> per_evk;

    double hitRate() const
    {
        const size_t total = hits + misses;
        return total ? static_cast<double>(hits) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/**
 * Replay @p order (a topological order of @p g; node indices) against
 * a @p capacity_evks-slot evk cache. Ops without an evk pass through.
 * Capacity 0 means every key-switch streams its key.
 */
ResidencyReport predictResidency(const HeGraph &g,
                                 const std::vector<size_t> &order,
                                 size_t capacity_evks,
                                 EvictionPolicy eviction);

/**
 * Working-set interleaving metric of a schedule: the maximum number of
 * *distinct other* evk ids appearing between two consecutive uses of
 * any one evk. 0 means every evk's uses are contiguous (perfect
 * clustering); the metric upper-bounds the slot capacity needed to
 * make every reuse hit (max interleave + 1). EvkCluster must never
 * increase it relative to source order.
 */
size_t maxEvkInterleave(const HeGraph &g,
                        const std::vector<size_t> &order);

} // namespace ark
