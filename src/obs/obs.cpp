#include "obs/obs.h"

#include <cstring>

#include "common/env.h"

namespace ark {
namespace obs {

bool
parseOnOff(const char *s, bool &out)
{
    if (std::strcmp(s, "on") == 0 || std::strcmp(s, "1") == 0) {
        out = true;
        return true;
    }
    if (std::strcmp(s, "off") == 0 || std::strcmp(s, "0") == 0) {
        out = false;
        return true;
    }
    return false;
}

namespace detail {

std::atomic<int> trace_override{-1};
std::atomic<int> metrics_override{-1};

namespace {

/** Parse one switch variable once (common/env discipline). Empty
 *  counts as unset (off). */
bool
envSwitch(const char *var)
{
    bool on = false;
    const char *env = envValue(var);
    if (env != nullptr && !parseOnOff(env, on))
        fatalEnv(var, env, "on|off|1|0");
    return on;
}

} // namespace

bool
envTraceEnabled()
{
    static const bool on = envSwitch("ARK_TRACE");
    return on;
}

bool
envMetricsEnabled()
{
    static const bool on = envSwitch("ARK_METRICS");
    return on;
}

} // namespace detail

void
setTraceEnabled(bool on)
{
    detail::trace_override.store(on ? 1 : 0,
                                 std::memory_order_relaxed);
}

void
setMetricsEnabled(bool on)
{
    detail::metrics_override.store(on ? 1 : 0,
                                   std::memory_order_relaxed);
}

void
resetObsOverrides()
{
    detail::trace_override.store(-1, std::memory_order_relaxed);
    detail::metrics_override.store(-1, std::memory_order_relaxed);
}

} // namespace obs
} // namespace ark
