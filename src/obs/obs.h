/**
 * @file
 * Observability runtime switches (ARK_TRACE / ARK_METRICS).
 *
 * The tracer (obs/trace.h) and the metrics registry (obs/metrics.h)
 * sit on every serving hot path, so both are gated at runtime by the
 * ARK_TRACE / ARK_METRICS environment variables (`on`/`off`/`1`/`0`;
 * empty counts as unset, junk is fatal — the ARK_BACKEND discipline,
 * docs/configuration.md) or the set*() overrides (what
 * `remote_client --trace` and the tests use). Both default OFF: the
 * disabled path is one relaxed atomic load, no clock read, no
 * allocation (tests/test_obs.cpp pins this).
 */

#pragma once

#include <atomic>

namespace ark {
namespace obs {

/** Parse one on/off switch value: accepts "on", "off", "1", "0".
 *  Returns false on anything else (the caller makes junk fatal). */
bool parseOnOff(const char *s, bool &out);

namespace detail {
/** -1 = follow the environment (parsed once); 0/1 = forced. */
extern std::atomic<int> trace_override;
extern std::atomic<int> metrics_override;
bool envTraceEnabled();
bool envMetricsEnabled();
} // namespace detail

/** Is span tracing on? (ARK_TRACE, overridable via setTraceEnabled.) */
inline bool
traceEnabled()
{
    const int o = detail::trace_override.load(std::memory_order_relaxed);
    if (o >= 0)
        return o != 0;
    return detail::envTraceEnabled();
}

/** Is metrics recording on? (ARK_METRICS / setMetricsEnabled.) */
inline bool
metricsEnabled()
{
    const int o =
        detail::metrics_override.load(std::memory_order_relaxed);
    if (o >= 0)
        return o != 0;
    return detail::envMetricsEnabled();
}

/** Force tracing on/off, overriding the environment (tests,
 *  `remote_client --trace`). */
void setTraceEnabled(bool on);
/** Force metrics on/off, overriding the environment. */
void setMetricsEnabled(bool on);
/** Drop any set*() override; follow the environment again. */
void resetObsOverrides();

} // namespace obs
} // namespace ark
