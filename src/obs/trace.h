/**
 * @file
 * Low-overhead span tracer with Chrome trace-event JSON export.
 *
 * A span is one timed phase of one request — the serving runtime
 * records `recv` / `admit` / `queue_wait` / `dispatch` / `execute` /
 * `respond` per request, and the kernel backend records child spans
 * for the heavy kernels (NTT, BConv, evk MAC, the fused digit path)
 * on whatever worker thread ran them. Spans land in a fixed-capacity
 * per-thread ring buffer (common/thread_shards.h: the owning thread
 * writes under an uncontended per-ring mutex, readers merge on
 * demand), so recording never allocates on the hot path and a burst
 * overwrites the oldest events rather than growing without bound.
 *
 * Export is the Chrome trace-event format: writeJson() emits a
 * `{"traceEvents": [...]}` object of "X" (complete) events with
 * microsecond ts/dur, loadable directly in chrome://tracing or
 * https://ui.perfetto.dev. Spans on one tid nest visually by
 * containment, so kernel child spans appear inside their worker's
 * `execute` span with no explicit parent links. See
 * docs/observability.md.
 *
 * Recording is gated by obs::traceEnabled() at every call site; the
 * session itself is always safe to query/export (it is simply empty
 * when tracing never ran).
 */

#pragma once

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_shards.h"
#include "common/types.h"
#include "obs/obs.h"

namespace ark {
namespace obs {

/** One recorded span (already completed: start + duration). */
struct TraceEvent
{
    /** Static-storage span name (phase or kernel op name). */
    const char *name = "";
    /** Request id the span belongs to; 0 = none (kernel spans). */
    u64 request_id = 0;
    /** Nanoseconds since the session epoch. */
    u64 start_ns = 0;
    u64 dur_ns = 0;
};

/** Per-thread ring buffers of spans, exported as Chrome trace JSON. */
class TraceSession
{
  public:
    /** Events each thread retains; older events are overwritten. */
    static constexpr size_t kRingCapacity = 1 << 14;

    TraceSession();
    ~TraceSession();

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    /** The process-wide session every instrumentation site records
     *  into (tests may construct private sessions instead). */
    static TraceSession &global();

    /**
     * Record a completed span on the calling thread's ring. @p name
     * must have static storage duration (phase names, kernelOpName).
     * Callers gate on obs::traceEnabled() *before* taking timestamps
     * so the disabled path never reads the clock.
     */
    void record(const char *name, u64 request_id,
                std::chrono::steady_clock::time_point start,
                std::chrono::steady_clock::time_point end);

    /** Retained events across all threads (post-overwrite). */
    size_t eventCount() const;
    /** Events lost to ring overwrite across all threads. */
    u64 droppedCount() const;
    /** Drop every retained event (rings stay registered). */
    void clear();

    /** Merged snapshot, ordered by start time. */
    std::vector<TraceEvent> events() const;

    /** Chrome trace-event JSON ({"traceEvents": [...]}; ts/dur in
     *  microseconds, one tid per recording thread). */
    std::string toJson() const;
    /** Write toJson() to @p path; false (with errno intact) when the
     *  file cannot be opened/written. */
    bool writeJson(const std::string &path) const;

  private:
    struct Ring;
    /** Every retained event with its ring's tid (1-based registration
     *  order), ordered by start time. */
    std::vector<std::pair<TraceEvent, u32>> tagged() const;

    const std::chrono::steady_clock::time_point epoch_;
    ThreadShards<Ring> rings_;
};

/**
 * RAII span: samples the clock at construction and records on
 * destruction — iff tracing was enabled when constructed. The
 * disabled path is one branch and no clock read.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name, u64 request_id = 0)
        : name_(name), request_id_(request_id), on_(traceEnabled())
    {
        if (on_)
            start_ = std::chrono::steady_clock::now();
    }

    ~ScopedSpan()
    {
        if (on_)
            TraceSession::global().record(
                name_, request_id_, start_,
                std::chrono::steady_clock::now());
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    const char *name_;
    u64 request_id_;
    bool on_;
    std::chrono::steady_clock::time_point start_{};
};

} // namespace obs
} // namespace ark
