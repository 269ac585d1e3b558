/**
 * @file
 * §5.16 STATS frame body: the live-stats surface's wire encoding.
 *
 * A client sends an empty-bodied STATS frame; the server answers with
 * a STATS frame whose body is the structure below. The counter and
 * phase lists are *self-describing* (each entry carries its name), so
 * the metric catalog can grow server-side without another frame
 * change — an old client simply prints names it has never heard of.
 * docs/wire_format.md §5.16 is the normative layout.
 */

#pragma once

#include <string>
#include <vector>

#include "wire/wire_format.h"

namespace ark {

/** One queue's live state on the wire (a server sends one). */
struct StatsQueueEntry
{
    u64 queue_depth = 0;
    u64 queue_capacity = 0;
    u64 in_flight = 0;
    u64 total_done = 0;
};

/** One named monotonic counter. */
struct StatsCounterEntry
{
    std::string name;
    u64 value = 0;
};

/** One named phase-latency summary (histogram digest, not the raw
 *  buckets: the poll surface wants a readout, not a merge input). */
struct StatsPhaseEntry
{
    std::string name;
    u64 count = 0;
    double mean_ms = 0;
    double p50_ms = 0;
    double p99_ms = 0;
    double max_ms = 0;
};

/** The decoded §5.16 STATS response body. */
struct RemoteStats
{
    u64 uptime_ms = 0;
    u64 active_sessions = 0;
    u64 sessions_opened = 0;
    u64 outstanding = 0;
    std::vector<StatsQueueEntry> queues;
    std::vector<StatsCounterEntry> counters;
    std::vector<StatsPhaseEntry> phases;

    /** Human-readable block (`remote_client --stats` output). */
    std::string toString() const;
};

void writeStats(ByteWriter &w, const RemoteStats &s);
RemoteStats readStats(ByteReader &r);

} // namespace ark
