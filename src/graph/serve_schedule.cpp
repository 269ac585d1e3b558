#include "graph/serve_schedule.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "graph/builder.h"

namespace ark {

ServeWorkload
scheduleWorkload(const ServeWorkload &w, SchedulePolicy policy)
{
    if (policy != SchedulePolicy::EvkCluster)
        return w;
    const HeGraph g = liftWorkload(w);
    return reorderWorkload(w, scheduleOrder(g, policy));
}

std::vector<size_t>
clusterAdmissionOrder(const std::vector<ServeWorkload> &workloads,
                      const std::vector<size_t> &request_workloads)
{
    // Workloads sharing an evk signature (serve/workload.h,
    // groupByEvkSignature) share their entire evk working set.
    std::vector<size_t> sig_group(workloads.size());
    {
        const auto groups = groupByEvkSignature(workloads);
        for (size_t gi = 0; gi < groups.size(); ++gi) {
            for (size_t wi : groups[gi])
                sig_group[wi] = gi;
        }
    }

    // Renumber groups by first appearance in the request batch, so
    // the admission order depends only on the batch, not on where a
    // workload sits in the server's workload list.
    std::vector<size_t> order(request_workloads.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::map<size_t, size_t> renumber;
    std::vector<size_t> group_of(order.size());
    for (size_t i = 0; i < order.size(); ++i) {
        const size_t wi = request_workloads[i];
        ARK_ASSERT(wi < workloads.size(),
                   "request references unknown workload");
        const auto it =
            renumber.emplace(sig_group[wi], renumber.size()).first;
        group_of[i] = it->second;
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                         return group_of[a] < group_of[b];
                     });
    return order;
}

} // namespace ark
