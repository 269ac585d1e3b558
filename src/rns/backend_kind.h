/**
 * @file
 * Backend selector shared by CkksParams and the kernel-backend
 * factory. Lives in its own header so the lightweight params header
 * does not have to pull in the full backend interface.
 */

#pragma once

#include <cstddef>

namespace ark {

/** Which (executor x kernel table) cell executes limb-level compute. */
enum class BackendKind {
    Scalar,   ///< serial x scalar reference loops
    Parallel, ///< limb-parallel thread pool x best (capped) table
    Simd,     ///< serial x best (capped) table: AVX-512/AVX2 by CPUID
};

inline const char *
backendKindName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Scalar:
        return "scalar";
      case BackendKind::Parallel:
        return "parallel";
      case BackendKind::Simd:
        return "simd";
    }
    return "scalar";
}

/** Parse "scalar" / "parallel" / "simd"; false on anything else. */
bool parseBackendKind(const char *name, BackendKind &out);

/** Upper bound accepted for a thread-count knob (sanity guard against
 *  overflowed or wrapped values like ARK_THREADS=-1). */
constexpr size_t kMaxBackendThreads = 4096;

/** ARK_BACKEND env override, else @p fallback; exits with a clear
 *  error naming the offending value on junk input. */
BackendKind backendKindFromEnv(BackendKind fallback);

/** ARK_THREADS env override, else @p fallback (0 = hardware); exits
 *  with a clear error naming the offending value on junk input. */
size_t backendThreadsFromEnv(size_t fallback);

} // namespace ark
