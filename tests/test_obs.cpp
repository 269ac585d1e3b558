/**
 * @file
 * Observability subsystem tests (src/obs/): histogram bucket math and
 * its quantile error bound, concurrent sharded-counter merge under the
 * ThreadPool, drain-window exactness of snapshotAndReset, trace-event
 * JSON export shape, the periodic stats emitter, the env-switch
 * parsers, and — the contract the serving hot path depends on — that
 * the disabled path records nothing and allocates nothing.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <new>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/stats_util.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/stats_emitter.h"
#include "obs/trace.h"

// Global allocation counter for the disabled-path gate: every
// operator-new in this binary bumps it, so a scope that must not
// allocate can diff the count across itself.
//
// The replacements are noinline so every call site keeps the
// operator new / operator delete pair the compiler matches: an inlined
// delete would show an optimizing build a bare free() of a pointer
// from operator new (-Wmismatched-new-delete).
namespace {
std::atomic<size_t> g_allocs{0};
} // namespace

[[gnu::noinline]] void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new[](std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

// The nothrow forms (std::stable_sort's temporary buffer) must come
// from the same malloc the replaced deletes free into.
[[gnu::noinline]] void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n);
}

[[gnu::noinline]] void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace ark {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::Phase;

/** Every test leaves the global observability state as it found it:
 *  overrides cleared, registry zeroed, trace session empty. */
class ObsTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        unsetenv("ARK_TRACE");
        unsetenv("ARK_METRICS");
        obs::resetObsOverrides();
        obs::MetricsRegistry::global().reset();
        obs::TraceSession::global().clear();
    }
    void TearDown() override
    {
        obs::resetObsOverrides();
        obs::MetricsRegistry::global().reset();
        obs::TraceSession::global().clear();
    }
};

TEST_F(ObsTest, HistogramBucketBounds)
{
    // Geometric bounds, 8 per octave: 0.001 * 2^(i/8) ms from 1 us to
    // 2^26 us (~67 s, past the 60 s the scheme must cover); the last
    // bucket is the unbounded overflow.
    EXPECT_EQ(Histogram::kBuckets, 210u);
    EXPECT_DOUBLE_EQ(Histogram::upperMs(0), 0.001);
    EXPECT_DOUBLE_EQ(Histogram::upperMs(1), 0.001 * std::exp2(0.125));
    EXPECT_DOUBLE_EQ(Histogram::upperMs(8), 0.002);
    EXPECT_DOUBLE_EQ(Histogram::upperMs(80), 1.024);
    EXPECT_DOUBLE_EQ(Histogram::upperMs(Histogram::kBuckets - 2),
                     67108.864);
    EXPECT_TRUE(std::isinf(Histogram::upperMs(Histogram::kBuckets - 1)));

    // A value exactly on an edge lands in that bucket; the next double
    // past it lands in the next one.
    for (size_t i = 0; i + 1 < Histogram::kBuckets; ++i) {
        const double edge = Histogram::upperMs(i);
        EXPECT_EQ(Histogram::bucketIndex(edge), i) << "edge " << i;
        EXPECT_EQ(Histogram::bucketIndex(std::nextafter(
                      edge, std::numeric_limits<double>::infinity())),
                  i + 1)
            << "past edge " << i;
    }
    EXPECT_EQ(Histogram::bucketIndex(0.0), 0u);
    EXPECT_EQ(Histogram::bucketIndex(0.0011), 2u); // (1.09, 1.19] us
    EXPECT_EQ(Histogram::bucketIndex(1.0), 80u);   // (0.939, 1.024] ms
    // Junk clamps: negative and NaN to bucket 0, +inf and anything
    // past every finite bound to the overflow bucket.
    EXPECT_EQ(Histogram::bucketIndex(-1.0), 0u);
    EXPECT_EQ(Histogram::bucketIndex(
                  std::numeric_limits<double>::quiet_NaN()),
              0u);
    EXPECT_EQ(Histogram::bucketIndex(1e12), Histogram::kBuckets - 1);
    EXPECT_EQ(Histogram::bucketIndex(
                  std::numeric_limits<double>::infinity()),
              Histogram::kBuckets - 1);
}

TEST_F(ObsTest, HistogramRecordQuantileMerge)
{
    Histogram h;
    EXPECT_DOUBLE_EQ(h.quantileMs(0.5), 0.0); // empty
    for (int i = 0; i < 99; ++i)
        h.record(0.5); // bucket 72: (0.470, 0.512] ms
    h.record(100.0);   // bucket 133: (92.68, 101.07] ms
    EXPECT_EQ(h.count, 100u);
    EXPECT_EQ(h.buckets[72], 99u);
    EXPECT_EQ(h.buckets[133], 1u);
    EXPECT_DOUBLE_EQ(h.max_ms, 100.0);
    EXPECT_NEAR(h.meanMs(), (99 * 0.5 + 100.0) / 100.0, 1e-9);
    // p50/p98 report the dense bucket's edge; p100's edge (101.07 ms)
    // clamps to the recorded max.
    EXPECT_DOUBLE_EQ(h.quantileMs(0.5), 0.512);
    EXPECT_DOUBLE_EQ(h.quantileMs(0.98), 0.512);
    EXPECT_DOUBLE_EQ(h.quantileMs(1.0), 100.0);
    // A lone sample reports itself, not its bucket's edge.
    Histogram one;
    one.record(0.5);
    EXPECT_DOUBLE_EQ(one.quantileMs(0.5), 0.5);

    // Junk inputs clamp instead of corrupting buckets.
    Histogram j;
    j.record(-5.0);
    j.record(std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(j.count, 2u);
    EXPECT_EQ(j.buckets[0], 2u);
    EXPECT_DOUBLE_EQ(j.sum_ms, 0.0);
    EXPECT_DOUBLE_EQ(j.max_ms, 0.0);

    // Merge is element-wise add.
    Histogram a, b;
    a.record(0.5);
    b.record(100.0);
    b.record(0.5);
    const Histogram a0 = a;
    a.merge(b);
    EXPECT_EQ(a.count, 3u);
    EXPECT_DOUBLE_EQ(a.max_ms, 100.0);
    EXPECT_NEAR(a.sum_ms, 101.0, 1e-9);
    for (size_t i = 0; i < Histogram::kBuckets; ++i)
        EXPECT_EQ(a.buckets[i], a0.buckets[i] + b.buckets[i]) << i;
}

TEST_F(ObsTest, HistogramQuantilesBoundTheNearestRankValue)
{
    // Seeded property: on log-uniform samples across 1 us .. 60 s,
    // every quantile estimate lies in [v, v * 2^(1/8)) of the exact
    // nearest-rank value v.
    std::mt19937_64 rng(0x5eed14);
    std::uniform_real_distribution<double> log10_ms(-3.0,
                                                    std::log10(60000.0));
    const double step = std::exp2(1.0 / Histogram::kPerOctave);
    for (int trial = 0; trial < 200; ++trial) {
        const size_t n = 1 + rng() % 400;
        Histogram h;
        std::vector<double> samples;
        for (size_t i = 0; i < n; ++i) {
            samples.push_back(std::pow(10.0, log10_ms(rng)));
            h.record(samples.back());
        }
        std::sort(samples.begin(), samples.end());
        for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
            const double v = nearestRankPercentile(samples, q);
            const double est = h.quantileMs(q);
            EXPECT_GE(est, v) << "trial " << trial << " q " << q;
            EXPECT_LT(est, v * step) << "trial " << trial << " q " << q;
        }
    }

    // bucketIndex (O(1)) agrees with a linear scan of the edges, on a
    // fine geometric sweep and on random values.
    const auto linear = [](double ms) {
        for (size_t i = 0; i + 1 < Histogram::kBuckets; ++i) {
            if (ms <= Histogram::upperMs(i))
                return i;
        }
        return Histogram::kBuckets - 1;
    };
    size_t mismatches = 0;
    for (double ms = 1e-4; ms < 1e6; ms *= 1.0007)
        mismatches += Histogram::bucketIndex(ms) != linear(ms);
    std::uniform_real_distribution<double> log10_wide(-5.0, 6.0);
    for (int i = 0; i < 20000; ++i) {
        const double ms = std::pow(10.0, log10_wide(rng));
        mismatches += Histogram::bucketIndex(ms) != linear(ms);
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST_F(ObsTest, SnapshotAndResetHandsEachUpdateToOneWindow)
{
    // Pool threads book (count, sample) pairs through one update()
    // while the main thread repeatedly drains: every window must hold
    // whole pairs, and the windows must add up to every pair.
    obs::MetricsRegistry reg;
    constexpr size_t kJobs = 20000;
    ThreadPool pool(3);
    std::atomic<bool> done{false};
    u64 counted = 0, sampled = 0;
    bool paired = true;
    std::thread drainer([&] {
        for (bool last = false; !last;) {
            last = done.load();
            const obs::MetricsSnapshot w = reg.snapshotAndReset();
            const u64 c =
                w.counters[static_cast<size_t>(Counter::RequestsDone)];
            const u64 s =
                w.phases[static_cast<size_t>(Phase::Execute)].count;
            paired = paired && c == s;
            counted += c;
            sampled += s;
        }
    });
    pool.parallelFor(kJobs, [&](size_t i) {
        reg.update([&](obs::MetricsTally &t) {
            t.count(Counter::RequestsDone);
            t.observe(Phase::Execute, 0.001 * static_cast<double>(i));
        });
    });
    done.store(true);
    drainer.join();
    EXPECT_TRUE(paired);
    EXPECT_EQ(counted, kJobs);
    EXPECT_EQ(sampled, kJobs);
}

TEST_F(ObsTest, ConcurrentCountersMergeExactly)
{
    // The sharded registry's one invariant: counts recorded from many
    // pool threads at once merge to the exact total, with every
    // histogram observation retained.
    obs::MetricsRegistry reg;
    constexpr size_t kJobs = 4096;
    ThreadPool pool(4);
    pool.parallelFor(kJobs, [&](size_t i) {
        reg.count(Counter::RequestsDone, 1);
        reg.count(Counter::EvkHit, 2);
        reg.observe(Phase::Execute,
                    0.001 * static_cast<double>(i % 64));
        reg.gaugeAdd(Gauge::InFlight, 1);
        reg.gaugeAdd(Gauge::InFlight, -1);
    });
    const obs::MetricsSnapshot s = reg.snapshot();
    EXPECT_EQ(s.counters[static_cast<size_t>(Counter::RequestsDone)],
              kJobs);
    EXPECT_EQ(s.counters[static_cast<size_t>(Counter::EvkHit)],
              2 * kJobs);
    EXPECT_EQ(s.phases[static_cast<size_t>(Phase::Execute)].count,
              kJobs);
    EXPECT_EQ(s.gauges[static_cast<size_t>(Gauge::InFlight)], 0);

    reg.reset();
    const obs::MetricsSnapshot z = reg.snapshot();
    EXPECT_EQ(z.counters[static_cast<size_t>(Counter::RequestsDone)],
              0u);
    EXPECT_EQ(z.phases[static_cast<size_t>(Phase::Execute)].count,
              0u);
}

TEST_F(ObsTest, TraceJsonRoundTrip)
{
    obs::setTraceEnabled(true);
    const auto t0 = std::chrono::steady_clock::now();
    obs::TraceSession::global().record(
        "execute", 42, t0, t0 + std::chrono::microseconds(1500));
    obs::TraceSession::global().record(
        "ntt_fwd", 0, t0 + std::chrono::microseconds(100),
        t0 + std::chrono::microseconds(200));
    {
        obs::ScopedSpan span("respond", 42);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(obs::TraceSession::global().eventCount(), 3u);

    const std::vector<obs::TraceEvent> evs =
        obs::TraceSession::global().events();
    ASSERT_EQ(evs.size(), 3u);
    // Merged snapshot is ordered by start time.
    for (size_t i = 1; i < evs.size(); ++i)
        EXPECT_GE(evs[i].start_ns, evs[i - 1].start_ns);

    const std::string json = obs::TraceSession::global().toJson();
    // Chrome trace-event shape: the envelope, complete events, the
    // request-id correlation arg, and microsecond durations.
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"execute\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"req\":42"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":1500.000"), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""),
              std::string::npos);
    // Balanced braces — the cheap well-formedness proxy
    // (scripts/check_trace_json.py does the full parse in CI).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));

    // Clamped, not negative, when end precedes start.
    obs::TraceSession::global().clear();
    obs::TraceSession::global().record(
        "backwards", 1, t0 + std::chrono::microseconds(10), t0);
    EXPECT_EQ(obs::TraceSession::global().events()[0].dur_ns, 0u);
}

TEST_F(ObsTest, TraceRingOverwritesOldestAndCountsDrops)
{
    obs::setTraceEnabled(true);
    const auto t0 = std::chrono::steady_clock::now();
    const size_t n = obs::TraceSession::kRingCapacity + 100;
    for (size_t i = 0; i < n; ++i)
        obs::TraceSession::global().record(
            "spin", 1, t0 + std::chrono::nanoseconds(i),
            t0 + std::chrono::nanoseconds(i + 1));
    EXPECT_EQ(obs::TraceSession::global().eventCount(),
              obs::TraceSession::kRingCapacity);
    EXPECT_EQ(obs::TraceSession::global().droppedCount(), 100u);
}

TEST_F(ObsTest, DisabledPathRecordsNothingAndAllocatesNothing)
{
    // Defaults: both switches off. This is the serving hot path when
    // nobody asked for observability — it must not touch the trace
    // session, the registry, the clock-driven rings, or the heap.
    ASSERT_FALSE(obs::traceEnabled());
    ASSERT_FALSE(obs::metricsEnabled());

    const size_t events_before =
        obs::TraceSession::global().eventCount();
    const size_t allocs_before =
        g_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < 10000; ++i) {
        obs::ScopedSpan span("execute", 7);
        obs::count(Counter::RequestsDone);
        obs::observe(Phase::Execute, 1.0);
        obs::gaugeAdd(Gauge::InFlight, 1);
    }
    EXPECT_EQ(g_allocs.load(std::memory_order_relaxed),
              allocs_before);
    EXPECT_EQ(obs::TraceSession::global().eventCount(),
              events_before);
    const obs::MetricsSnapshot s =
        obs::MetricsRegistry::global().snapshot();
    EXPECT_EQ(s.counters[static_cast<size_t>(Counter::RequestsDone)],
              0u);
}

TEST_F(ObsTest, RuntimeOverridesFlipRecording)
{
    obs::setMetricsEnabled(true);
    obs::count(Counter::RequestsDone);
    obs::setMetricsEnabled(false);
    obs::count(Counter::RequestsDone);
    const obs::MetricsSnapshot s =
        obs::MetricsRegistry::global().snapshot();
    EXPECT_EQ(s.counters[static_cast<size_t>(Counter::RequestsDone)],
              1u);

    obs::setTraceEnabled(true);
    { obs::ScopedSpan span("execute", 1); }
    obs::setTraceEnabled(false);
    { obs::ScopedSpan span("execute", 2); }
    EXPECT_EQ(obs::TraceSession::global().eventCount(), 1u);
}

TEST_F(ObsTest, EnvSwitchParsers)
{
    bool v = false;
    EXPECT_TRUE(obs::parseOnOff("on", v));
    EXPECT_TRUE(v);
    EXPECT_TRUE(obs::parseOnOff("0", v));
    EXPECT_FALSE(v);
    EXPECT_TRUE(obs::parseOnOff("1", v));
    EXPECT_TRUE(v);
    EXPECT_TRUE(obs::parseOnOff("off", v));
    EXPECT_FALSE(v);
    EXPECT_FALSE(obs::parseOnOff("yes", v));
    EXPECT_FALSE(obs::parseOnOff("", v));

    LogLevel lvl = LogLevel::Warn;
    EXPECT_TRUE(parseLogLevel("error", lvl));
    EXPECT_EQ(lvl, LogLevel::Error);
    EXPECT_TRUE(parseLogLevel("debug", lvl));
    EXPECT_EQ(lvl, LogLevel::Debug);
    EXPECT_FALSE(parseLogLevel("verbose", lvl));
    EXPECT_FALSE(parseLogLevel("WARN", lvl)); // case-sensitive
}

TEST_F(ObsTest, StatsEmitterRendersPeriodically)
{
    std::atomic<size_t> sunk{0};
    std::string last;
    std::mutex m;
    {
        obs::StatsEmitter emitter(
            std::chrono::milliseconds(5),
            [] { return std::string("tick"); },
            [&](const std::string &s) {
                std::lock_guard<std::mutex> lk(m);
                last = s;
                sunk.fetch_add(1);
            });
        // Wait for at least two emissions rather than a fixed sleep.
        for (int i = 0; i < 400 && sunk.load() < 2; ++i)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        emitter.stop();
        EXPECT_GE(emitter.emissions(), 2u);
        emitter.stop(); // idempotent
    }
    EXPECT_GE(sunk.load(), 2u);
    std::lock_guard<std::mutex> lk(m);
    EXPECT_EQ(last, "tick");
}

TEST_F(ObsTest, TraceWriteJsonRejectsBadPath)
{
    EXPECT_FALSE(obs::TraceSession::global().writeJson(
        "/nonexistent-dir-xyz/trace.json"));
}

} // namespace
} // namespace ark
