#include "graph/residency.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "core/hdft_plan.h"

namespace ark {

bool
EvkSlotCache::access(int evk, size_t step, size_t next_use)
{
    auto it = std::find_if(
        resident_.begin(), resident_.end(),
        [&](const Slot &sl) { return sl.evk == evk; });
    if (it != resident_.end()) {
        it->last_touch = step;
        if (eviction_ == EvictionPolicy::Belady)
            it->next_use = next_use;
        return true;
    }

    if (capacity_ == 0)
        return false;
    resident_.push_back({evk, step, next_use});
    if (resident_.size() <= capacity_)
        return false;
    // LRU evicts the coldest key; Belady the one used farthest in the
    // future — possibly the key just fetched (streaming bypass).
    auto victim = resident_.begin();
    for (auto v = resident_.begin(); v != resident_.end(); ++v) {
        const bool worse =
            eviction_ == EvictionPolicy::Belady
                ? v->next_use > victim->next_use
                : v->last_touch < victim->last_touch;
        if (worse)
            victim = v;
    }
    resident_.erase(victim);
    return false;
}

std::vector<size_t>
nextUseSteps(const std::vector<int> &evk_seq)
{
    std::vector<size_t> next(evk_seq.size(), EvkSlotCache::kNever);
    std::map<int, size_t> last_seen; // evk -> step of latest use
    for (size_t s = evk_seq.size(); s-- > 0;) {
        if (evk_seq[s] < 0)
            continue;
        auto it = last_seen.find(evk_seq[s]);
        next[s] = it == last_seen.end() ? EvkSlotCache::kNever
                                        : it->second;
        last_seen[evk_seq[s]] = s;
    }
    return next;
}

ResidencyReport
predictResidency(const HeGraph &g, const std::vector<size_t> &order,
                 size_t capacity_evks, EvictionPolicy eviction)
{
    ARK_ASSERT(g.isTopological(order),
               "residency replay requires a valid schedule");

    ResidencyReport r;
    r.capacity_evks = capacity_evks;
    r.eviction = eviction;

    std::vector<size_t> next_use;
    if (eviction == EvictionPolicy::Belady) {
        std::vector<int> evk_seq;
        evk_seq.reserve(order.size());
        for (size_t idx : order) {
            const SimOp &op = g.nodes[idx].op;
            evk_seq.push_back(op.kind == SimOpKind::KeySwitch
                                  ? op.evk_id
                                  : -1);
        }
        next_use = nextUseSteps(evk_seq);
    }

    std::map<int, size_t> stats_index; // evk -> index into per_evk
    auto statsFor = [&](int evk) -> EvkResidency & {
        auto it = stats_index.find(evk);
        if (it == stats_index.end()) {
            it = stats_index.emplace(evk, r.per_evk.size()).first;
            r.per_evk.push_back({});
            r.per_evk.back().evk_id = evk;
        }
        return r.per_evk[it->second];
    };

    EvkSlotCache cache(capacity_evks, eviction);
    for (size_t s = 0; s < order.size(); ++s) {
        const SimOp &op = g.nodes[order[s]].op;
        if (op.kind != SimOpKind::KeySwitch || op.evk_id < 0)
            continue;

        EvkResidency &es = statsFor(op.evk_id);
        ++es.uses;
        if (cache.access(op.evk_id, s,
                         next_use.empty() ? EvkSlotCache::kNever
                                          : next_use[s])) {
            ++r.hits;
            ++es.hits;
            continue;
        }
        ++r.misses;
        ++es.misses;
        const double bytes = static_cast<double>(
            HdftPlan::evkBytes(g.params, op.level));
        es.bytes_streamed += bytes;
        r.evk_bytes += bytes;
    }
    return r;
}

size_t
maxEvkInterleave(const HeGraph &g, const std::vector<size_t> &order)
{
    // For each evk, walk its uses in schedule order and count the
    // distinct other evks appearing strictly between consecutive uses.
    std::vector<int> seq; // evk id per key-switch step, in order
    seq.reserve(order.size());
    for (size_t idx : order) {
        const SimOp &op = g.nodes[idx].op;
        if (op.kind == SimOpKind::KeySwitch && op.evk_id >= 0)
            seq.push_back(op.evk_id);
    }

    std::map<int, size_t> last_pos;
    size_t worst = 0;
    for (size_t i = 0; i < seq.size(); ++i) {
        auto it = last_pos.find(seq[i]);
        if (it != last_pos.end()) {
            std::vector<int> between;
            for (size_t j = it->second + 1; j < i; ++j) {
                if (std::find(between.begin(), between.end(),
                              seq[j]) == between.end())
                    between.push_back(seq[j]);
            }
            worst = std::max(worst, between.size());
        }
        last_pos[seq[i]] = i;
    }
    return worst;
}

} // namespace ark
