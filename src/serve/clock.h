/**
 * @file
 * Injectable serving clock: the one time source every admission,
 * shedding, deadline and watchdog decision reads.
 *
 * The adaptive serving layer is time-dependent (SLO targets are
 * wall-time budgets; the watchdog fires on an interval), which would
 * make its tests either sleep-ridden or flaky. Instead, everything in
 * src/serve/ that needs "now" takes a ServeClock: production wires the
 * steady-clock-backed SystemServeClock (the default when
 * BatchServerConfig::clock is null), tests wire a ManualServeClock and
 * advance it explicitly — every decision replays bit-identically with
 * zero wall-clock sleeps (tests/test_serving_admission.cpp).
 *
 * The unit is microseconds since an arbitrary epoch: fine enough for
 * sub-millisecond service times at test parameters, wide enough (u64)
 * to never wrap in practice.
 */

#pragma once

#include <atomic>
#include <chrono>

#include "common/types.h"

namespace ark {

/** Monotonic time source for the serving plane. Implementations must
 *  be safe to call from any worker/session thread. */
class ServeClock
{
  public:
    virtual ~ServeClock() = default;

    /** Microseconds since an arbitrary fixed epoch, monotone
     *  non-decreasing across calls (per thread and across threads). */
    virtual u64 nowMicros() const = 0;
};

/** Production clock: std::chrono::steady_clock. */
class SystemServeClock final : public ServeClock
{
  public:
    u64 nowMicros() const override
    {
        return static_cast<u64>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    /** Process-wide instance (stateless, so sharing is free). */
    static const SystemServeClock &instance()
    {
        static const SystemServeClock clock;
        return clock;
    }
};

/**
 * Test clock: time advances only when the test says so. Reads and
 * advances are atomic, so concurrent server threads may read while
 * the test thread advances — time just never moves on its own.
 */
class ManualServeClock final : public ServeClock
{
  public:
    explicit ManualServeClock(u64 start_us = 0) : now_us_(start_us) {}

    u64 nowMicros() const override
    {
        return now_us_.load(std::memory_order_relaxed);
    }

    void advanceMicros(u64 us)
    {
        now_us_.fetch_add(us, std::memory_order_relaxed);
    }
    void advanceMs(u64 ms) { advanceMicros(ms * 1000); }
    void setMicros(u64 us)
    {
        now_us_.store(us, std::memory_order_relaxed);
    }

  private:
    std::atomic<u64> now_us_;
};

} // namespace ark
