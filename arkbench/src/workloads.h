/**
 * @file
 * The three benchmark workloads. Each runs one request shape in a
 * closed loop from this process, on the simd kernel engine with
 * admission off, source-order scheduling, one shard and the fault
 * plane disarmed.
 *
 * With Options::trace unset a run sets its state up several times
 * (setup_s is the median), warms up, and reports the end-to-end
 * metrics. With it set, the run sets up once,
 * measures half its time untraced and half with spans, then probes
 * each layer directly and reports the per-layer metrics.
 */

#pragma once

#include "bench.h"

namespace arkbench {

/** Untimed closed-loop seconds before an end-to-end window, so lazy
 *  caches and buffer pools are filled before timing. */
constexpr double kWarmupS = 1.0;

/** boot: Bootstrapper::bootstrap at testBoot, one in flight. */
RunResult runBoot(const Options &opt, SpanLog &log);
/** serve: in-process BatchServer at testSmall, 2 workers, 8 in flight. */
RunResult runServe(const Options &opt, SpanLog &log);
/** wire: WireClient over loopback to a 1-worker server, one in flight,
 *  every thread pinned to one CPU. */
RunResult runWire(const Options &opt, SpanLog &log);

/** Add trace.overhead_share and trace.unattributed_share, print the
 *  table, and note whether @p expect (the layer the workload is built
 *  to stress) came out as expected. The run's checks hold only when
 *  the table closes and @p expect is true. */
void finishTrace(RunResult &out, const SelfTimeTable &table,
                 const std::string &workload, double untraced_p50_ms,
                 double traced_p50_ms, bool expect, const char *expectation);

} // namespace arkbench
