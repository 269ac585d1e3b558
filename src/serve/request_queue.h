/**
 * @file
 * Bounded MPMC queue feeding the BatchServer's workers — the admission
 * control and backpressure point of the serving runtime.
 *
 * Capacity is a hard bound on queued (admitted, not yet started)
 * requests: push() blocks the producer when the queue is full
 * (backpressure), tryPush() refuses instead (admission control for
 * callers that would rather shed load than wait). close() drains:
 * producers are refused immediately, consumers keep popping until the
 * queue is empty, then pop() returns false and workers exit.
 */

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <mutex>
#include <vector>

#include "serve/workload.h"

namespace ark {

/** One queued unit of work: the request plus its result promise. */
struct ServeJob
{
    ServeRequest request;
    std::promise<ServeResult> promise;
    /** Set at enqueue; the worker derives the queue_wait span and
     *  histogram from it (zero-initialized = not stamped, skip). */
    std::chrono::steady_clock::time_point enqueue_tp{};
    /** SLO class of the request (serve/admission.h; 0 = default). */
    size_t class_id = 0;
    /** Shedding order: the admission controller evicts the
     *  lowest-priority queued job first, and only below the incoming
     *  request's priority. */
    u32 priority = 0;
    /** ServeClock stamp at admission (microseconds; 0 = unstamped).
     *  The worker derives end-to-end latency — the number the SLO
     *  targets bound — from it at completion. */
    u64 submit_us = 0;
    /** Absolute ServeClock deadline (microseconds; 0 = none). A worker
     *  that pops the job past this point settles it with
     *  DeadlineExceeded instead of executing (docs/robustness.md §4:
     *  expired work is dropped where it is cheapest — before the
     *  evaluator touches it). */
    u64 deadline_us = 0;
};

/**
 * Typed admission outcome. The wire protocol reports QUEUE_FULL
 * (retryable), SHED (retryable), and SERVER_SHUTDOWN (fatal) as
 * distinct error codes (docs/wire_format.md §7), so the admission
 * point must say which one happened.
 */
enum class AdmitResult {
    Admitted, ///< job enqueued
    Full,     ///< capacity reached right now — retry later
    Closed,   ///< queue closed — no future admission
    Shed,     ///< SLO admission refused it — back off and retry
};

/** Bounded MPMC job queue with blocking and non-blocking admission. */
class RequestQueue
{
  public:
    explicit RequestQueue(size_t capacity);

    RequestQueue(const RequestQueue &) = delete;
    RequestQueue &operator=(const RequestQueue &) = delete;

    /**
     * Enqueue, blocking while the queue is full (backpressure).
     * Returns false — leaving @p job intact — if the queue is closed.
     */
    bool push(ServeJob &&job);

    /**
     * Enqueue only if space is available right now. Full and Closed
     * are distinguished so the caller can surface the right wire
     * error code. Leaves @p job intact unless Admitted.
     */
    AdmitResult tryPush(ServeJob &&job);

    /**
     * Dequeue, blocking while the queue is empty. Returns false once
     * the queue is closed and drained.
     */
    bool pop(ServeJob &out);

    /** Refuse new jobs; wake all blocked producers and consumers. */
    void close();

    /**
     * close() that also ATOMICALLY extracts every still-queued job
     * into @p out (graceful drain: the caller settles each with a
     * typed DrainRefused so no promise is left dangling). After this,
     * pop() returns false immediately — workers see an empty, closed
     * queue.
     */
    void closeNow(std::vector<ServeJob> &out);

    /**
     * Remove and return the queued job with the LOWEST priority
     * strictly below @p floor — the admission controller's shedding
     * victim. Among equals the latest-enqueued job is taken (it has
     * waited least, so evicting it wastes the least sunk queueing
     * time). Returns false — leaving the queue untouched — when no
     * queued job sits below the floor.
     */
    bool evictLowestBelow(u32 floor, ServeJob &victim);

    /** Lowest priority currently queued. Returns false when empty. */
    bool lowestPriority(u32 &out) const;

    /** Current queued-job count: the sampled queue-depth gauge the
     *  stats surface reads. */
    size_t size() const;
    size_t capacity() const { return capacity_; }
    bool closed() const;

  private:
    const size_t capacity_;
    mutable std::mutex m_;
    std::condition_variable not_full_;
    std::condition_variable not_empty_;
    std::deque<ServeJob> q_;
    bool closed_ = false;
};

} // namespace ark
