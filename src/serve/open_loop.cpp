#include "serve/open_loop.h"

#include <chrono>
#include <thread>

#include "common/logging.h"

namespace ark {

OpenLoopStats
runOpenLoop(BatchServer &server,
            const std::vector<ArrivalEvent> &events)
{
    OpenLoopStats stats;
    stats.offered = events.size();
    if (events.empty())
        return stats;

    std::vector<std::future<ServeResult>> futures;
    futures.reserve(events.size());

    const auto t0 = std::chrono::steady_clock::now();
    for (const ArrivalEvent &ev : events) {
        const auto due =
            t0 + std::chrono::duration_cast<
                     std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(ev.t_s));
        // sleep_until self-corrects: if the previous submit ran long
        // the next arrival fires immediately instead of drifting.
        std::this_thread::sleep_until(due);

        std::future<ServeResult> fut;
        switch (server.trySubmit(ev.workload_index, fut)) {
        case AdmitResult::Admitted:
            stats.admitted += 1;
            futures.push_back(std::move(fut));
            break;
        case AdmitResult::Shed:
            stats.shed += 1;
            break;
        case AdmitResult::Full:
        case AdmitResult::Closed:
            stats.refused += 1;
            break;
        }
    }
    const double offered_span = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    t0)
                                    .count();
    if (offered_span > 0)
        stats.offered_per_sec =
            static_cast<double>(stats.offered) / offered_span;

    // Settle every admitted request: evictions resolve with the Shed
    // error kind, everything else ran to completion.
    for (auto &fut : futures) {
        const ServeResult r = fut.get();
        if (r.ok)
            stats.ok += 1;
        else if (r.error_kind == ServeErrorKind::Shed)
            stats.evicted += 1;
        else if (r.error_kind == ServeErrorKind::DeadlineExceeded)
            stats.deadline_expired += 1;
        else if (r.error_kind == ServeErrorKind::DrainRefused)
            stats.drain_refused += 1;
        else
            stats.failed += 1;
    }
    ARK_ASSERT(stats.ok + stats.failed + stats.evicted +
                       stats.deadline_expired + stats.drain_refused ==
                   stats.admitted,
               "open-loop ledger must conserve admitted requests");

    stats.report = server.drain();
    return stats;
}

} // namespace ark
