#include "wire/stats_frame.h"

#include <cstdio>

namespace ark {

void
writeStats(ByteWriter &w, const RemoteStats &s)
{
    w.putU64(s.uptime_ms);
    w.putU64(s.active_sessions);
    w.putU64(s.sessions_opened);
    w.putU64(s.outstanding);
    w.putU32(static_cast<u32>(s.queues.size()));
    for (const StatsQueueEntry &e : s.queues) {
        w.putU64(e.queue_depth);
        w.putU64(e.queue_capacity);
        w.putU64(e.in_flight);
        w.putU64(e.total_done);
    }
    w.putU32(static_cast<u32>(s.counters.size()));
    for (const StatsCounterEntry &e : s.counters) {
        w.putString(e.name);
        w.putU64(e.value);
    }
    w.putU32(static_cast<u32>(s.phases.size()));
    for (const StatsPhaseEntry &e : s.phases) {
        w.putString(e.name);
        w.putU64(e.count);
        w.putF64(e.mean_ms);
        w.putF64(e.p50_ms);
        w.putF64(e.p99_ms);
        w.putF64(e.max_ms);
    }
}

namespace {

/**
 * Guard an entry count read off the wire against the bytes actually
 * present: each entry needs at least @p min_entry_bytes, so a count
 * the remaining body cannot possibly satisfy is rejected BEFORE the
 * resize — a corrupted count field must yield a typed error, not a
 * multi-gigabyte allocation (tests/test_wire_fuzz.cpp found exactly
 * that with a bit-flipped num_queues).
 */
u32
checkedCount(const ByteReader &r, u32 count, size_t min_entry_bytes)
{
    if (static_cast<u64>(count) * min_entry_bytes > r.remaining())
        throw WireError(WireCode::TruncatedFrame,
                        "stats entry count " + std::to_string(count) +
                            " exceeds the remaining body");
    return count;
}

} // namespace

RemoteStats
readStats(ByteReader &r)
{
    RemoteStats s;
    s.uptime_ms = r.getU64();
    s.active_sessions = r.getU64();
    s.sessions_opened = r.getU64();
    s.outstanding = r.getU64();
    const u32 num_queues = checkedCount(r, r.getU32(), 32);
    s.queues.resize(num_queues);
    for (StatsQueueEntry &e : s.queues) {
        e.queue_depth = r.getU64();
        e.queue_capacity = r.getU64();
        e.in_flight = r.getU64();
        e.total_done = r.getU64();
    }
    const u32 num_counters = checkedCount(r, r.getU32(), 4 + 8);
    s.counters.resize(num_counters);
    for (StatsCounterEntry &e : s.counters) {
        e.name = r.getString();
        e.value = r.getU64();
    }
    const u32 num_phases = checkedCount(r, r.getU32(), 4 + 5 * 8);
    s.phases.resize(num_phases);
    for (StatsPhaseEntry &e : s.phases) {
        e.name = r.getString();
        e.count = r.getU64();
        e.mean_ms = r.getF64();
        e.p50_ms = r.getF64();
        e.p99_ms = r.getF64();
        e.max_ms = r.getF64();
    }
    return s;
}

std::string
RemoteStats::toString() const
{
    std::string out;
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "server: up %.1f s  sessions %llu open / %llu "
                  "total  outstanding %llu\n",
                  static_cast<double>(uptime_ms) / 1e3,
                  static_cast<unsigned long long>(active_sessions),
                  static_cast<unsigned long long>(sessions_opened),
                  static_cast<unsigned long long>(outstanding));
    out += buf;
    for (const StatsQueueEntry &e : queues) {
        std::snprintf(
            buf, sizeof buf,
            "queue: depth %llu/%llu  in-flight %llu  done %llu\n",
            static_cast<unsigned long long>(e.queue_depth),
            static_cast<unsigned long long>(e.queue_capacity),
            static_cast<unsigned long long>(e.in_flight),
            static_cast<unsigned long long>(e.total_done));
        out += buf;
    }
    for (const StatsCounterEntry &e : counters) {
        if (e.value == 0)
            continue;
        std::snprintf(buf, sizeof buf, "counter %-16s %llu\n",
                      e.name.c_str(),
                      static_cast<unsigned long long>(e.value));
        out += buf;
    }
    for (const StatsPhaseEntry &e : phases) {
        if (e.count == 0)
            continue;
        std::snprintf(buf, sizeof buf,
                      "phase %-10s n=%llu mean=%.3fms p50=%.3fms "
                      "p99=%.3fms max=%.3fms\n",
                      e.name.c_str(),
                      static_cast<unsigned long long>(e.count),
                      e.mean_ms, e.p50_ms, e.p99_ms, e.max_ms);
        out += buf;
    }
    return out;
}

} // namespace ark
