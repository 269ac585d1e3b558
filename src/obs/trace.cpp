#include "obs/trace.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <mutex>

namespace ark {
namespace obs {

/**
 * One thread's span ring. Only the owning thread records into it; the
 * per-ring mutex is therefore uncontended on the hot path and exists
 * so a concurrent export (another thread's toJson) reads a consistent
 * event, never a torn one.
 */
struct TraceSession::Ring
{
    std::mutex m;
    std::array<TraceEvent, kRingCapacity> ev;
    /** Total events ever recorded; min(total, capacity) retained. */
    u64 total = 0;
};

TraceSession::TraceSession() : epoch_(std::chrono::steady_clock::now())
{
}

TraceSession::~TraceSession() = default;

TraceSession &
TraceSession::global()
{
    static TraceSession session;
    return session;
}

void
TraceSession::record(const char *name, u64 request_id,
                     std::chrono::steady_clock::time_point start,
                     std::chrono::steady_clock::time_point end)
{
    // Clamp a clock hiccup rather than emitting a negative duration
    // (the exported format's dur is unsigned anyway).
    if (end < start)
        end = start;
    TraceEvent e;
    e.name = name;
    e.request_id = request_id;
    e.start_ns = static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(start -
                                                             epoch_)
            .count());
    e.dur_ns = static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end -
                                                             start)
            .count());
    Ring &r = rings_.local();
    std::lock_guard<std::mutex> lk(r.m);
    r.ev[r.total % kRingCapacity] = e;
    r.total += 1;
}

size_t
TraceSession::eventCount() const
{
    size_t n = 0;
    rings_.forEach([&](Ring &r) {
        std::lock_guard<std::mutex> lk(r.m);
        n += static_cast<size_t>(std::min<u64>(r.total, kRingCapacity));
    });
    return n;
}

u64
TraceSession::droppedCount() const
{
    u64 n = 0;
    rings_.forEach([&](Ring &r) {
        std::lock_guard<std::mutex> lk(r.m);
        n += r.total > kRingCapacity ? r.total - kRingCapacity : 0;
    });
    return n;
}

void
TraceSession::clear()
{
    rings_.forEach([](Ring &r) {
        std::lock_guard<std::mutex> lk(r.m);
        r.total = 0;
    });
}

std::vector<std::pair<TraceEvent, u32>>
TraceSession::tagged() const
{
    std::vector<std::pair<TraceEvent, u32>> out;
    u32 tid = 0; // forEach visits rings in registration order
    rings_.forEach([&](Ring &r) {
        ++tid;
        std::lock_guard<std::mutex> lk(r.m);
        const u64 kept = std::min<u64>(r.total, kRingCapacity);
        for (u64 i = 0; i < kept; ++i)
            out.emplace_back(r.ev[i], tid);
    });
    std::stable_sort(out.begin(), out.end(),
                     [](const auto &a, const auto &b) {
                         return a.first.start_ns < b.first.start_ns;
                     });
    return out;
}

std::vector<TraceEvent>
TraceSession::events() const
{
    const std::vector<std::pair<TraceEvent, u32>> all = tagged();
    std::vector<TraceEvent> out;
    out.reserve(all.size());
    for (const auto &t : all)
        out.push_back(t.first);
    return out;
}

std::string
TraceSession::toJson() const
{
    const std::vector<std::pair<TraceEvent, u32>> all = tagged();
    std::string out = "{\"traceEvents\":[\n";
    char buf[256];
    for (size_t i = 0; i < all.size(); ++i) {
        const TraceEvent &e = all[i].first;
        // Span names are static identifiers (phase / kernel-op
        // names), so no JSON string escaping is needed.
        std::snprintf(
            buf, sizeof buf,
            "{\"name\":\"%s\",\"cat\":\"ark\",\"ph\":\"X\","
            "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
            "\"args\":{\"req\":%llu}}%s\n",
            e.name, static_cast<double>(e.start_ns) / 1e3,
            static_cast<double>(e.dur_ns) / 1e3, all[i].second,
            static_cast<unsigned long long>(e.request_id),
            i + 1 < all.size() ? "," : "");
        out += buf;
    }
    out += "],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

bool
TraceSession::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const std::string json = toJson();
    const bool ok =
        std::fwrite(json.data(), 1, json.size(), f) == json.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace obs
} // namespace ark
