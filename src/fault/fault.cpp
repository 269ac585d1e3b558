#include "fault/fault.h"

#include <chrono>
#include <cstring>

#include "common/env.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace ark {
namespace fault {

const char *
siteName(Site s)
{
    switch (s) {
      case Site::RecvShort:
        return "recv_short";
      case Site::RecvDelay:
        return "recv_delay";
      case Site::RecvReset:
        return "recv_reset";
      case Site::SendShort:
        return "send_short";
      case Site::SendDelay:
        return "send_delay";
      case Site::SendReset:
        return "send_reset";
      case Site::WorkerCrash:
        return "worker_crash";
      case Site::WorkerStall:
        return "worker_stall";
    }
    return "?";
}

bool
parseSite(const char *name, Site &out)
{
    for (size_t i = 0; i < kSiteCount; ++i) {
        const Site s = static_cast<Site>(i);
        if (std::strcmp(name, siteName(s)) == 0) {
            out = s;
            return true;
        }
    }
    return false;
}

namespace detail {

std::atomic<int> armed_state{-1};

namespace {

/**
 * Parse the ARK_FAULT_* family once. ARK_FAULT_SEED present (and
 * nonempty) arms the plane; the other variables refine the plan:
 * ARK_FAULT_PERMILLE (0..1000, default 10) applies to every site in
 * ARK_FAULT_SITES (comma-separated siteName()s; empty/unset = the six
 * socket sites — worker faults are an explicit opt-in),
 * ARK_FAULT_DELAY_US (0..10^6) and ARK_FAULT_STALL_MS (0..60000).
 */
bool
envArm()
{
    const auto seed = envU64("ARK_FAULT_SEED", 1, ~u64{0},
                             "a positive integer seed");
    if (!seed)
        return false;

    FaultPlan plan;
    plan.seed = *seed;

    const u64 permille = envU64("ARK_FAULT_PERMILLE", 0, 1000,
                                "an integer in [0, 1000]")
                             .value_or(10);
    plan.delay_us = envU64("ARK_FAULT_DELAY_US", 0, 1000000,
                           "an integer in [0, 1000000]")
                        .value_or(plan.delay_us);
    plan.stall_ms = envU64("ARK_FAULT_STALL_MS", 0, 60000,
                           "an integer in [0, 60000]")
                        .value_or(plan.stall_ms);

    if (const char *sites_env = envValue("ARK_FAULT_SITES")) {
        // Comma-separated site names, each validated.
        const char *p = sites_env;
        while (*p) {
            const char *comma = std::strchr(p, ',');
            const size_t len = comma ? static_cast<size_t>(comma - p)
                                     : std::strlen(p);
            char name[32];
            if (len == 0 || len >= sizeof name)
                fatalEnv("ARK_FAULT_SITES", sites_env,
                         "comma-separated fault site names");
            std::memcpy(name, p, len);
            name[len] = '\0';
            Site s;
            if (!parseSite(name, s))
                fatalEnv("ARK_FAULT_SITES", sites_env,
                         "comma-separated fault site names");
            plan.permille[static_cast<size_t>(s)] =
                static_cast<u32>(permille);
            p = comma ? comma + 1 : p + len;
        }
    } else {
        // Default: the six socket sites. Worker crash/stall faults
        // change the server's thread population, so env-armed runs
        // must name them explicitly.
        for (size_t i = 0;
             i <= static_cast<size_t>(Site::SendReset); ++i)
            plan.permille[i] = static_cast<u32>(permille);
    }

    FaultInjector::global().arm(plan);
    ARK_LOG(Info,
            "fault plane armed from environment (seed %llu, "
            "%llu permille)",
            static_cast<unsigned long long>(*seed),
            static_cast<unsigned long long>(permille));
    return true;
}

} // namespace

bool
armFromEnv()
{
    // One thread wins the parse; arm()/disarm() settle armed_state,
    // so a lost race just re-reads the settled value.
    static const bool armed = envArm();
    if (armed_state.load(std::memory_order_relaxed) < 0)
        armed_state.store(armed ? 1 : 0, std::memory_order_relaxed);
    return armed_state.load(std::memory_order_relaxed) != 0;
}

} // namespace detail

namespace {

/** splitmix64 finalizer: the per-call decision hash. */
u64
mix64(u64 x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

} // namespace

FaultInjector &
FaultInjector::global()
{
    static FaultInjector fi;
    return fi;
}

void
FaultInjector::arm(const FaultPlan &plan)
{
    for (size_t i = 0; i < kSiteCount; ++i) {
        calls_[i].store(0, std::memory_order_relaxed);
        injected_[i].store(0, std::memory_order_relaxed);
        permille_[i].store(plan.permille[i],
                           std::memory_order_relaxed);
    }
    seed_.store(plan.seed, std::memory_order_relaxed);
    delay_us_.store(plan.delay_us, std::memory_order_relaxed);
    stall_ms_.store(plan.stall_ms, std::memory_order_relaxed);
    detail::armed_state.store(1, std::memory_order_release);
}

void
FaultInjector::disarm()
{
    detail::armed_state.store(0, std::memory_order_release);
    releaseStalls();
}

bool
FaultInjector::shouldInject(Site s)
{
    if (detail::armed_state.load(std::memory_order_relaxed) != 1)
        return false;
    const size_t i = static_cast<size_t>(s);
    const u32 pm = permille_[i].load(std::memory_order_relaxed);
    if (pm == 0)
        return false;
    const u64 n = calls_[i].fetch_add(1, std::memory_order_relaxed);
    const u64 seed = seed_.load(std::memory_order_relaxed);
    // Pure function of (seed, site, call index): the schedule replays
    // from the seed regardless of thread interleaving.
    const u64 h = mix64(seed ^ mix64((i + 1) * 0x0DD6A9D3ull) ^ n);
    const bool fire = (h % 1000) < pm;
    if (fire) {
        injected_[i].fetch_add(1, std::memory_order_relaxed);
        obs::count(obs::Counter::FaultsInjected);
    }
    return fire;
}

u64
FaultInjector::delayMicros() const
{
    return delay_us_.load(std::memory_order_relaxed);
}

u64
FaultInjector::stallMillis() const
{
    return stall_ms_.load(std::memory_order_relaxed);
}

void
FaultInjector::enterStall(const std::function<bool()> &abort)
{
    const u64 cap_ms = stallMillis();
    std::unique_lock<std::mutex> lk(stall_m_);
    const u64 epoch = stall_epoch_;
    ++stalled_;
    const auto released = [&] {
        return stall_epoch_ != epoch ||
               detail::armed_state.load(
                   std::memory_order_relaxed) != 1 ||
               (abort && abort());
    };
    if (cap_ms == 0)
        stall_cv_.wait(lk, released);
    else
        stall_cv_.wait_for(lk, std::chrono::milliseconds(cap_ms),
                           released);
    --stalled_;
}

void
FaultInjector::releaseStalls()
{
    {
        std::lock_guard<std::mutex> lk(stall_m_);
        ++stall_epoch_;
    }
    stall_cv_.notify_all();
}

size_t
FaultInjector::stalledCount() const
{
    std::lock_guard<std::mutex> lk(stall_m_);
    return stalled_;
}

u64
FaultInjector::calls(Site s) const
{
    return calls_[static_cast<size_t>(s)].load(
        std::memory_order_relaxed);
}

u64
FaultInjector::injected(Site s) const
{
    return injected_[static_cast<size_t>(s)].load(
        std::memory_order_relaxed);
}

} // namespace fault
} // namespace ark
