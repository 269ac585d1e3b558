/**
 * @file
 * The one reader of the ARK_* environment knobs
 * (docs/configuration.md). Every knob follows the same discipline:
 * an empty value counts as unset, numbers are digits only and
 * range-checked, and junk is fatal with a message naming the
 * variable and the offending value — never a silent fallback or a
 * wrapped count.
 */

#pragma once

#include <optional>

#include "common/types.h"

namespace ark {

/** The value of @p var, or nullptr when it is unset or empty. */
const char *envValue(const char *var);

/**
 * Strict unsigned parse: digits only (no sign, whitespace, or
 * trailing characters; leading zeros are fine), no overflow, and
 * lo <= value <= hi. False on anything else, including null or "".
 */
bool parseU64(const char *s, u64 lo, u64 hi, u64 &out);

/** Exit 1 with "invalid VAR 'value' (expected EXPECTED)". */
[[noreturn]] void fatalEnv(const char *var, const char *value,
                           const char *expected);

/**
 * @p var parsed by parseU64 over [lo, hi]; nullopt when unset or
 * empty, fatalEnv naming @p expected when set to anything else.
 */
std::optional<u64> envU64(const char *var, u64 lo, u64 hi,
                          const char *expected);

} // namespace ark
