#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ark {
namespace obs {

const char *
counterName(Counter c)
{
    switch (c) {
    case Counter::AdmitAccepted: return "admit_accepted";
    case Counter::AdmitRefused: return "admit_refused";
    case Counter::RequestsShed: return "requests_shed";
    case Counter::RequestsDone: return "requests_done";
    case Counter::RequestsFailed: return "requests_failed";
    case Counter::EvkHit: return "evk_hit";
    case Counter::EvkMiss: return "evk_miss";
    case Counter::StatsPolls: return "stats_polls";
    case Counter::FaultsInjected: return "faults_injected";
    case Counter::ClientRetries: return "client_retries";
    case Counter::WorkerRespawns: return "worker_respawns";
    case Counter::DeadlineExpired: return "deadline_expired";
    case Counter::DrainRefused: return "drain_refused";
    case Counter::SessionsReaped: return "sessions_reaped";
    case Counter::RequestsSloGood: return "requests_slo_good";
    case Counter::HeOps: return "he_ops";
    }
    return "?";
}

const char *
phaseName(Phase p)
{
    switch (p) {
    case Phase::Recv: return "recv";
    case Phase::Admit: return "admit";
    case Phase::QueueWait: return "queue_wait";
    case Phase::Dispatch: return "dispatch";
    case Phase::Execute: return "execute";
    case Phase::Respond: return "respond";
    case Phase::E2e: return "e2e";
    }
    return "?";
}

double
Histogram::upperMs(size_t i)
{
    if (i + 1 >= kBuckets)
        return std::numeric_limits<double>::infinity();
    return 0.001 * std::exp2(static_cast<double>(i) / kPerOctave);
}

size_t
Histogram::bucketIndex(double ms)
{
    if (!(ms > upperMs(0))) // also NaN
        return 0;
    if (ms > upperMs(kBuckets - 2))
        return kBuckets - 1;
    // The logarithm lands within one bucket of the answer; comparing
    // against the edges themselves makes the result exact.
    size_t i = static_cast<size_t>(
        std::ceil(kPerOctave * std::log2(ms / upperMs(0))));
    i = std::min(std::max<size_t>(i, 1), kBuckets - 2);
    if (ms <= upperMs(i - 1))
        --i;
    else if (ms > upperMs(i))
        ++i;
    return i;
}

void
Histogram::record(double ms)
{
    if (!(ms >= 0)) // negative or NaN
        ms = 0;
    count += 1;
    sum_ms += ms;
    max_ms = std::max(max_ms, ms);
    buckets[bucketIndex(ms)] += 1;
}

void
Histogram::merge(const Histogram &other)
{
    count += other.count;
    sum_ms += other.sum_ms;
    max_ms = std::max(max_ms, other.max_ms);
    for (size_t i = 0; i < kBuckets; ++i)
        buckets[i] += other.buckets[i];
}

double
Histogram::quantileMs(double q) const
{
    if (count == 0)
        return 0;
    q = std::min(1.0, std::max(0.0, q));
    const u64 rank =
        static_cast<u64>(std::ceil(q * static_cast<double>(count)));
    u64 seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
        seen += buckets[i];
        // The overflow bucket's +inf edge clamps to the max too.
        if (seen >= rank && seen > 0)
            return std::min(upperMs(i), max_ms);
    }
    return max_ms;
}

void
MetricsTally::merge(const MetricsTally &other)
{
    for (size_t i = 0; i < kCounterCount; ++i)
        counters[i] += other.counters[i];
    for (size_t i = 0; i < kPhaseCount; ++i)
        phases[i].merge(other.phases[i]);
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

void
MetricsRegistry::gaugeSet(Gauge g, i64 v)
{
    gauges_[static_cast<size_t>(g)].store(v,
                                          std::memory_order_relaxed);
}

void
MetricsRegistry::gaugeAdd(Gauge g, i64 delta)
{
    gauges_[static_cast<size_t>(g)].fetch_add(
        delta, std::memory_order_relaxed);
}

MetricsSnapshot
MetricsRegistry::collect(bool zero) const
{
    MetricsSnapshot snap;
    shards_.forEach([&](Shard &s) {
        std::lock_guard<std::mutex> lk(s.m);
        snap.merge(s.tally);
        if (zero)
            s.tally = MetricsTally{};
    });
    for (size_t i = 0; i < kGaugeCount; ++i)
        snap.gauges[i] = gauges_[i].load(std::memory_order_relaxed);
    return snap;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    return collect(false);
}

MetricsSnapshot
MetricsRegistry::snapshotAndReset()
{
    return collect(true);
}

void
MetricsRegistry::reset()
{
    (void)collect(true);
    for (auto &g : gauges_)
        g.store(0, std::memory_order_relaxed);
}

} // namespace obs
} // namespace ark
