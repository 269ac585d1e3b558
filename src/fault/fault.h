/**
 * @file
 * Deterministic fault-injection plane for the serving stack.
 *
 * The chaos tests (tests/test_chaos_serving.cpp) and the resilience
 * machinery they exercise — client retry/reconnect, server timeouts,
 * the worker watchdog, graceful drain — need a way to make the stack
 * fail ON DEMAND and REPRODUCIBLY. The FaultInjector provides that:
 * each instrumented site (socket short reads/writes, delays, resets;
 * worker crashes and stalls) asks shouldInject() per call, and the
 * decision is a pure function of (seed, site, per-site call index), so
 * a fault schedule replays bit-identically from its seed. Counters are
 * per-site atomics; under concurrency the *assignment* of call indices
 * to threads races, but the set of indices that fire is fixed by the
 * seed — the schedule is deterministic, the interleaving is the test's
 * to control (docs/robustness.md §2).
 *
 * The plane is DISARMED by default. It arms either programmatically
 * (FaultInjector::global().arm(plan) — what the chaos tests do) or
 * from the environment on first query: ARK_FAULT_SEED (presence arms
 * the plane), ARK_FAULT_PERMILLE, ARK_FAULT_SITES, ARK_FAULT_DELAY_US,
 * ARK_FAULT_STALL_MS (docs/configuration.md). Junk values are fatal,
 * naming the value — the ARK_BACKEND discipline. The disarmed hot path
 * is one relaxed atomic load, as in the obs plane (src/obs/obs.h).
 */

#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>

#include "common/types.h"

namespace ark {
namespace fault {

/** Instrumented failure sites. Socket sites live in net/socket.cpp
 *  (every sendAll/recvAll chunk asks); worker sites in
 *  serve/batch_server.cpp (asked once per popped job). */
enum class Site : size_t
{
    RecvShort = 0, ///< clamp one recv() to a single byte
    RecvDelay,     ///< sleep delay_us before one recv()
    RecvReset,     ///< shut the socket down mid-read (connection loss)
    SendShort,     ///< clamp one send() to a single byte
    SendDelay,     ///< sleep delay_us before one send()
    SendReset,     ///< shut the socket down mid-write
    WorkerCrash,   ///< worker thread dies after settling its job
    WorkerStall,   ///< worker blocks on the stall gate before serving
};
constexpr size_t kSiteCount = 8;

const char *siteName(Site s);
/** Parse a siteName() string back to its Site. False on junk. */
bool parseSite(const char *name, Site &out);

/** One seeded fault schedule. */
struct FaultPlan
{
    /** Decision seed; the whole schedule is a function of it. */
    u64 seed = 1;
    /** Per-site injection probability in permille (0..1000); a site
     *  at 0 never fires, at 1000 fires on every call. */
    std::array<u32, kSiteCount> permille{};
    /** Duration of an injected RecvDelay / SendDelay. */
    u64 delay_us = 100;
    /** Real-time cap on an injected WorkerStall; 0 = hold until
     *  releaseStalls()/disarm() (what the sleep-free watchdog tests
     *  use — the test clock advances, the wall clock does not). */
    u64 stall_ms = 0;
};

namespace detail {
/** -1 = environment not yet consulted; 0 = disarmed; 1 = armed. */
extern std::atomic<int> armed_state;
/** Slow path of faultsEnabled(): parse ARK_FAULT_* once. */
bool armFromEnv();
} // namespace detail

/** Is the fault plane armed? One relaxed load when settled; the first
 *  call consults the ARK_FAULT_* environment. */
inline bool
faultsEnabled()
{
    const int s =
        detail::armed_state.load(std::memory_order_relaxed);
    if (s >= 0)
        return s != 0;
    return detail::armFromEnv();
}

/** Process-wide deterministic fault scheduler. */
class FaultInjector
{
  public:
    static FaultInjector &global();

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /** Install @p plan, zero all counters, and arm the plane. */
    void arm(const FaultPlan &plan);
    /** Disarm (shouldInject answers false) and release any stalled
     *  workers; counters keep their totals for inspection. */
    void disarm();

    /**
     * Deterministic per-call decision for @p s: draws this site's next
     * call index and fires iff hash(seed, site, index) lands under the
     * site's permille. Disarmed -> false without drawing an index.
     */
    bool shouldInject(Site s);

    /** Injected-delay duration for the *Delay sites. */
    u64 delayMicros() const;
    /** Real-time stall cap (0 = until release). */
    u64 stallMillis() const;

    /**
     * The WorkerStall gate: blocks until releaseStalls()/disarm() (or
     * the plan's stall_ms cap, when nonzero; or @p abort answers true
     * — the caller's own shutdown flag, checked under the gate's lock
     * so a racing release is never lost). Sleep-free tests hold
     * workers here while the ManualServeClock advances past the
     * watchdog threshold, then release.
     */
    void enterStall(const std::function<bool()> &abort = {});
    /** Wake every thread blocked in enterStall(). */
    void releaseStalls();
    /** Threads currently blocked in enterStall(). */
    size_t stalledCount() const;

    /** Calls asked / injections fired at @p s since the last arm(). */
    u64 calls(Site s) const;
    u64 injected(Site s) const;

  private:
    FaultInjector() = default;

    std::array<std::atomic<u64>, kSiteCount> calls_{};
    std::array<std::atomic<u64>, kSiteCount> injected_{};
    std::array<std::atomic<u32>, kSiteCount> permille_{};
    std::atomic<u64> seed_{1};
    std::atomic<u64> delay_us_{100};
    std::atomic<u64> stall_ms_{0};

    mutable std::mutex stall_m_;
    std::condition_variable stall_cv_;
    u64 stall_epoch_ = 0;
    size_t stalled_ = 0;
};

} // namespace fault
} // namespace ark
