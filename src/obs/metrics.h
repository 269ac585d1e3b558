/**
 * @file
 * Runtime metrics registry: sharded counters, gauges, and fixed-bucket
 * latency histograms.
 *
 * Counters and histograms are recorded into per-thread shards and
 * merged on read (common/thread_shards.h), so the hot path touches
 * only thread-local memory and never contends. Gauges are single
 * atomics — they represent "current level" values (queue depth,
 * in-flight requests) that are written from one place at a time and
 * read rarely.
 *
 * The catalog is a fixed set of enums rather than string-keyed
 * registration: every metric this codebase emits is known at compile
 * time, the enum keeps recording to an array index, and the STATS
 * wire frame can ship names from one table (docs/observability.md
 * lists the catalog).
 *
 * The process registry, global(), is what the STATS frame and the
 * periodic emitter read; every record into it is gated on
 * obs::metricsEnabled() — use the count()/observe()/gauge*() wrappers
 * below. A
 * BatchServer also owns a private registry it records into
 * unconditionally: its drain windows (serve/metrics.h).
 */

#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <mutex>

#include "common/thread_shards.h"
#include "common/types.h"
#include "obs/obs.h"

namespace ark {
namespace obs {

/** Monotonic event counts. */
enum class Counter : size_t
{
    AdmitAccepted = 0, ///< requests admitted into the queue
    AdmitRefused,      ///< requests refused at admission
    RequestsShed,      ///< requests shed by SLO admission control
    RequestsDone,      ///< requests completing successfully
    RequestsFailed,    ///< requests completing with an error
    EvkHit,            ///< evaluation-key cache hits (KeyCache)
    EvkMiss,           ///< evaluation-key cache misses
    StatsPolls,        ///< STATS wire frames served
    FaultsInjected,    ///< faults fired by the injection plane
    ClientRetries,     ///< WireClient submit attempts retried
    WorkerRespawns,    ///< dead/stuck workers replaced by the watchdog
    DeadlineExpired,   ///< requests dropped pre-execute past deadline
    DrainRefused,      ///< queued requests refused at graceful drain
    SessionsReaped,    ///< idle sessions closed by the server reaper
    RequestsSloGood,   ///< completions within their class's p99 target
    HeOps,             ///< primitive HE ops executed by requests
};
constexpr size_t kCounterCount = 16;
const char *counterName(Counter c);

/** Per-phase latency histograms: one per request phase span, plus the
 *  end-to-end time the SLO targets bound. */
enum class Phase : size_t
{
    Recv = 0,  ///< SUBMIT body deserialization
    Admit,     ///< admission decision
    QueueWait, ///< enqueue -> worker pop
    Dispatch,  ///< pop -> execution start (schedule/setup)
    Execute,   ///< homomorphic evaluation
    Respond,   ///< RESPONSE serialization + send
    E2e,       ///< admission -> completion, on the server's ServeClock
};
constexpr size_t kPhaseCount = 7;
const char *phaseName(Phase p);

/** Current-level values (set/adjusted, not accumulated). */
enum class Gauge : size_t
{
    QueueDepth = 0, ///< sampled total queued jobs across shards
    InFlight,       ///< jobs admitted but not yet completed
    ActiveSessions, ///< open wire sessions
};
constexpr size_t kGaugeCount = 3;

/**
 * Fixed-bucket latency histogram with geometric edges, 8 per octave:
 * bucket i holds values in (upperMs(i-1), upperMs(i)], where
 * upperMs(i) = 0.001 * 2^(i/8) ms, from 1 us up to 2^26 us (~67 s);
 * bucket 0 also takes everything below 1 us, and the last bucket is
 * the unbounded overflow. A quantile reports its bucket's upper edge
 * clamped to the recorded max, so for a true nearest-rank value
 * v >= 1 us the estimate lies in [v, v * 2^(1/8)), under 9.05% high.
 * Fixed buckets make merge a plain element-wise add and keep record()
 * allocation-free.
 */
struct Histogram
{
    static constexpr size_t kPerOctave = 8;
    static constexpr size_t kOctaves = 26;
    /** 1 + kOctaves * kPerOctave bounded buckets, then the overflow. */
    static constexpr size_t kBuckets = kOctaves * kPerOctave + 2;

    /** Upper bound of bucket @p i in ms (+inf for the last bucket). */
    static double upperMs(size_t i);
    /** Bucket index a value of @p ms lands in (O(1)). */
    static size_t bucketIndex(double ms);

    u64 count = 0;
    double sum_ms = 0;
    double max_ms = 0;
    std::array<u64, kBuckets> buckets{};

    /** Negative and NaN values record as 0. */
    void record(double ms);
    void merge(const Histogram &other);
    /** Quantile estimate (q in [0,1]): the upper bound of the bucket
     *  where the cumulative count crosses q, clamped to max_ms. 0 when
     *  empty. */
    double quantileMs(double q) const;
    double meanMs() const { return count ? sum_ms / count : 0.0; }
};

/** Counters and phase histograms: one thread's shard of a registry,
 *  or the merge of them all. */
struct MetricsTally
{
    std::array<u64, kCounterCount> counters{};
    std::array<Histogram, kPhaseCount> phases{};

    void count(Counter c, u64 n = 1)
    {
        counters[static_cast<size_t>(c)] += n;
    }
    void observe(Phase p, double ms)
    {
        phases[static_cast<size_t>(p)].record(ms);
    }
    void merge(const MetricsTally &other);
};

/** Merged point-in-time view of every metric. */
struct MetricsSnapshot : MetricsTally
{
    std::array<i64, kGaugeCount> gauges{};
};

/** A sharded registry: global() for the process, or one per owner. */
class MetricsRegistry
{
  public:
    static MetricsRegistry &global();

    void count(Counter c, u64 n)
    {
        update([&](MetricsTally &t) { t.count(c, n); });
    }
    void observe(Phase p, double ms)
    {
        update([&](MetricsTally &t) { t.observe(p, ms); });
    }
    /** Apply @p f(MetricsTally &) to the calling thread's shard under
     *  the shard's lock: everything @p f records lands in the same
     *  snapshotAndReset() window. */
    template <typename F>
    void update(F &&f)
    {
        Shard &s = shards_.local();
        std::lock_guard<std::mutex> lk(s.m);
        f(s.tally);
    }
    void gaugeSet(Gauge g, i64 v);
    void gaugeAdd(Gauge g, i64 delta);

    /** Merge every shard into one snapshot. */
    MetricsSnapshot snapshot() const;
    /** snapshot(), zeroing each shard's counters and histograms under
     *  that shard's lock as it is merged, so an update() racing the
     *  call lands wholly in this snapshot or wholly in the next.
     *  Gauges are levels and keep their values. */
    MetricsSnapshot snapshotAndReset();
    /** Zero all shards and gauges (tests). */
    void reset();

  private:
    struct Shard
    {
        std::mutex m;
        MetricsTally tally;
    };
    /** Merge every shard, zeroing each as it goes iff @p zero. */
    MetricsSnapshot collect(bool zero) const;

    ThreadShards<Shard> shards_;
    std::array<std::atomic<i64>, kGaugeCount> gauges_{};
};

/** Increment @p c by @p n iff metrics are enabled. */
inline void
count(Counter c, u64 n = 1)
{
    if (metricsEnabled())
        MetricsRegistry::global().count(c, n);
}

/** Record @p ms into phase @p p's histogram iff enabled. */
inline void
observe(Phase p, double ms)
{
    if (metricsEnabled())
        MetricsRegistry::global().observe(p, ms);
}

/** Set gauge @p g to @p v iff enabled. */
inline void
gaugeSet(Gauge g, i64 v)
{
    if (metricsEnabled())
        MetricsRegistry::global().gaugeSet(g, v);
}

/** Adjust gauge @p g by @p delta iff enabled. */
inline void
gaugeAdd(Gauge g, i64 delta)
{
    if (metricsEnabled())
        MetricsRegistry::global().gaugeAdd(g, delta);
}

} // namespace obs
} // namespace ark
