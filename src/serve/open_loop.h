/**
 * @file
 * Open-loop load driver: paces a generated arrival trace
 * (serve/arrival.h) into a BatchServer on the arrivals' schedule,
 * not the server's.
 *
 * Closed-loop benches submit the next request when the previous batch
 * drains, so the offered load can never exceed capacity and queues
 * never really build. Under an open-loop trace the submit times are
 * fixed in advance; when the server falls behind, the backlog —
 * and the latency SLO pressure that motivates admission control —
 * is real. The driver keeps the conservation ledger
 * (offered == admitted + shed + refused, and admitted ==
 * completed + evicted) that the benches report and the smoke gate
 * checks.
 *
 * This is bench/driver machinery, deliberately wall-clock-paced
 * (sleep_until between arrivals): determinism lives in the TRACE, the
 * decisions are the server's. Unit tests bypass the driver and drive
 * the server directly on a ManualServeClock.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "serve/arrival.h"
#include "serve/batch_server.h"

namespace ark {

/** Ledger of one open-loop run. */
struct OpenLoopStats
{
    size_t offered = 0;  ///< arrivals in the trace
    size_t admitted = 0; ///< entered a queue (may be evicted later)
    size_t shed = 0;     ///< refused with AdmitResult::Shed
    size_t refused = 0;  ///< refused with AdmitResult::Full / Closed
    /** Of the admitted: completions by outcome (evicted = shed from
     *  the queue after admission; deadline_expired = dropped unstarted
     *  past its deadline; drain_refused = queued at graceful drain;
     *  ok + failed + evicted + deadline_expired + drain_refused ==
     *  admitted once every future resolved). */
    size_t ok = 0;
    size_t failed = 0;
    size_t evicted = 0;
    size_t deadline_expired = 0;
    size_t drain_refused = 0;
    /** The server's drain window for the run (goodput lives here). */
    ServeReport report;
    /** Offered arrival rate actually realized, events/sec. */
    double offered_per_sec = 0;
};

/**
 * Replay @p events (time-sorted, from generateArrivals) against
 * @p server: submit each arrival at its trace time via
 * trySubmit, wait for every admitted future, then drain(). The
 * submit loop never blocks on a full queue — that is the point of
 * open-loop: late is late.
 */
OpenLoopStats runOpenLoop(BatchServer &server,
                          const std::vector<ArrivalEvent> &events);

} // namespace ark
