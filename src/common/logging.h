/**
 * @file
 * Error-reporting helpers in the spirit of gem5's logging.hh.
 *
 * ARK_PANIC is for conditions that indicate a bug in this library
 * (aborts, so a debugger or core dump can pinpoint it); ARK_FATAL is
 * for user-caused conditions such as invalid parameters (clean exit);
 * ARK_ASSERT is a checked invariant that stays on in release builds
 * because the FHE math silently corrupts data when invariants break.
 *
 * ARK_LOG(level, fmt, ...) is leveled diagnostic output to stderr.
 * The threshold comes from ARK_LOG_LEVEL (error|warn|info|debug;
 * empty = unset, junk is fatal — the ARK_BACKEND discipline) and
 * defaults to warn, so info/debug chatter is silent unless asked for.
 * The macro evaluates its arguments only when the level is enabled.
 */

#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/env.h"

namespace ark {

[[noreturn]] inline void
panicImpl(const char *file, int line, const char *msg)
{
    std::fprintf(stderr, "panic: %s:%d: %s\n", file, line, msg);
    std::abort();
}

[[noreturn]] inline void
fatalImpl(const char *file, int line, const char *msg)
{
    std::fprintf(stderr, "fatal: %s:%d: %s\n", file, line, msg);
    std::exit(1);
}

/** Diagnostic severities, most to least severe. */
enum class LogLevel : int
{
    Error = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
};

inline const char *
logLevelName(LogLevel lvl)
{
    switch (lvl) {
    case LogLevel::Error: return "error";
    case LogLevel::Warn: return "warn";
    case LogLevel::Info: return "info";
    case LogLevel::Debug: return "debug";
    }
    return "?";
}

/** Parse a log-level name; false on anything unrecognized. */
inline bool
parseLogLevel(const char *s, LogLevel &out)
{
    if (std::strcmp(s, "error") == 0) {
        out = LogLevel::Error;
        return true;
    }
    if (std::strcmp(s, "warn") == 0) {
        out = LogLevel::Warn;
        return true;
    }
    if (std::strcmp(s, "info") == 0) {
        out = LogLevel::Info;
        return true;
    }
    if (std::strcmp(s, "debug") == 0) {
        out = LogLevel::Debug;
        return true;
    }
    return false;
}

/** ARK_LOG_LEVEL threshold, parsed once. Empty counts as unset
 *  (warn); an unrecognized value is fatal, naming it. */
inline LogLevel
logThreshold()
{
    static const LogLevel threshold = [] {
        LogLevel lvl = LogLevel::Warn;
        const char *env = envValue("ARK_LOG_LEVEL");
        if (env != nullptr && !parseLogLevel(env, lvl))
            fatalEnv("ARK_LOG_LEVEL", env, "error|warn|info|debug");
        return lvl;
    }();
    return threshold;
}

inline bool
logEnabled(LogLevel lvl)
{
    return static_cast<int>(lvl) <= static_cast<int>(logThreshold());
}

inline void
logImpl(LogLevel lvl, const char *file, int line, const char *fmt,
        ...)
{
    char msg[512];
    std::va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(msg, sizeof msg, fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "ark[%s] %s:%d: %s\n", logLevelName(lvl),
                 file, line, msg);
}

} // namespace ark

/** Leveled diagnostic: ARK_LOG(Info, "session %u opened", id).
 *  Arguments are not evaluated when the level is below threshold. */
#define ARK_LOG(level, ...)                                                 \
    do {                                                                    \
        if (::ark::logEnabled(::ark::LogLevel::level)) {                    \
            ::ark::logImpl(::ark::LogLevel::level, __FILE__, __LINE__,      \
                           __VA_ARGS__);                                    \
        }                                                                   \
    } while (0)

#define ARK_PANIC(msg) ::ark::panicImpl(__FILE__, __LINE__, (msg))
#define ARK_FATAL(msg) ::ark::fatalImpl(__FILE__, __LINE__, (msg))

#define ARK_ASSERT(cond, msg)                                               \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::ark::panicImpl(__FILE__, __LINE__,                            \
                             "assertion failed: " #cond " -- " msg);        \
        }                                                                   \
    } while (0)
