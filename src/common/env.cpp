#include "common/env.h"

#include <cstdlib>
#include <string>

#include "common/logging.h"

namespace ark {

const char *
envValue(const char *var)
{
    const char *env = std::getenv(var);
    return env != nullptr && *env != '\0' ? env : nullptr;
}

bool
parseU64(const char *s, u64 lo, u64 hi, u64 &out)
{
    if (s == nullptr || *s == '\0')
        return false;
    u64 v = 0;
    for (const char *p = s; *p != '\0'; ++p) {
        if (*p < '0' || *p > '9')
            return false;
        const u64 d = static_cast<u64>(*p - '0');
        if (v > (~u64{0} - d) / 10)
            return false; // would overflow 64 bits
        v = v * 10 + d;
    }
    if (v < lo || v > hi)
        return false;
    out = v;
    return true;
}

void
fatalEnv(const char *var, const char *value, const char *expected)
{
    const std::string msg = std::string("invalid ") + var + " '" + value +
                            "' (expected " + expected + ")";
    ARK_FATAL(msg.c_str());
}

std::optional<u64>
envU64(const char *var, u64 lo, u64 hi, const char *expected)
{
    const char *env = envValue(var);
    if (env == nullptr)
        return std::nullopt;
    u64 v = 0;
    if (!parseU64(env, lo, hi, v))
        fatalEnv(var, env, expected);
    return v;
}

} // namespace ark
