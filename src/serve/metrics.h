/**
 * @file
 * Serving metrics: per-request latency percentiles plus aggregate
 * throughput (requests/sec, HE-ops/sec, and — via the backend's
 * measured KernelStats — words/sec and modular mults/sec, the numbers
 * the paper's traffic analysis reasons in). Every count in a
 * ServeReport is exact; its percentiles are bounded-error histogram
 * estimates (see LatencySummary).
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"

namespace ark {

/** Order statistics of one latency histogram: exact count, mean and
 *  max; percentiles are obs::Histogram estimates, never below the true
 *  nearest-rank value v and, for v >= 1 us, under 9.05% above it. */
struct LatencySummary
{
    size_t count = 0;
    double mean_ms = 0;
    double p50_ms = 0;
    double p90_ms = 0;
    double p99_ms = 0;
    double max_ms = 0;

    static LatencySummary from(const obs::Histogram &h);
};

/** One drain window's aggregate serving statistics. */
struct ServeReport
{
    /** Scheduling policy the server ran the window under
     *  (graph/schedule.h policy name; "source-order" = plain FCFS). */
    std::string schedule = "source-order";
    /** Completions per worker group in the window (size = the
     *  server's shard count; a single-queue server reports one
     *  entry). Sums to `requests`. */
    std::vector<size_t> shard_requests;
    /** Highest queued-job count each shard's queue reached during the
     *  window (RequestQueue::peakDepth, reset at drain) — the
     *  congestion signal the future rebalancer will read. */
    std::vector<size_t> shard_queue_peak;
    size_t requests = 0;
    size_t failed = 0;
    /** Requests the SLO admission controller shed in the window —
     *  evicted from a queue or refused with AdmitResult::Shed. Not
     *  part of `requests` (they never executed). */
    size_t shed = 0;
    /** Completions whose end-to-end latency met their SLO class's
     *  p99 target (only requests of classes WITH a target count;
     *  see serve/admission.h). */
    size_t slo_good = 0;
    /** Admitted requests dropped before execution because their
     *  client-supplied deadline expired (wire code
     *  DEADLINE_EXCEEDED). Not part of `requests` — never executed. */
    size_t deadline_expired = 0;
    /** Admitted requests refused at shutdownGraceful() while still
     *  queued (wire code SERVER_SHUTDOWN). Not part of `requests`. */
    size_t drain_refused = 0;
    size_t he_ops = 0; ///< primitive HE ops executed across requests
    double wall_seconds = 0;
    double requests_per_sec = 0;
    double he_ops_per_sec = 0;
    /** The headline under open-loop load: slo_good / wall_seconds —
     *  completions per second that were actually worth completing. */
    double goodput_per_sec = 0;
    /** Execute time (ServeResult::latency_ms: the evaluator run
     *  alone, no queueing), one sample per request that executed — a
     *  request settled without running (an injected crash) counts in
     *  `requests` and `failed` but adds no sample here. */
    LatencySummary latency;
    /** End-to-end latency (admission stamp -> completion, via the
     *  injected ServeClock) of every request in `requests` — what the
     *  SLO targets bound. */
    LatencySummary e2e;
    /** Backend-measured polynomial operand words moved in the window
     *  (KernelStats delta) and the implied streaming rate. */
    u64 kernel_words = 0;
    double words_per_sec = 0;
    /** Backend-measured modular multiplications and rate. */
    u64 mod_mults = 0;
    double mults_per_sec = 0;

    /** Human-readable multi-line summary block. */
    std::string toString() const;
};

} // namespace ark
