#include "serve/arrival.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "common/env.h"
#include "common/logging.h"
#include "common/random.h"

namespace ark {

double
arrivalRateAt(const ArrivalConfig &cfg, double t_s)
{
    double mult = 1.0;
    for (const BurstEpisode &b : cfg.bursts) {
        if (t_s >= b.start_s && t_s < b.start_s + b.duration_s)
            mult = std::max(mult, b.rate_multiplier);
    }
    return cfg.rate_per_sec * mult;
}

std::vector<ArrivalEvent>
generateArrivals(const ArrivalConfig &cfg, size_t workload_count)
{
    ARK_ASSERT(cfg.rate_per_sec > 0, "arrival rate must be positive");
    ARK_ASSERT(cfg.duration_s > 0, "arrival horizon must be positive");
    ARK_ASSERT(workload_count > 0, "need at least one workload");

    // Workload mix as a cumulative weight table for the per-arrival
    // draw. An empty weight list is the uniform mix.
    std::vector<double> cum;
    cum.reserve(workload_count);
    double total_w = 0;
    for (size_t i = 0; i < workload_count; ++i) {
        double w = 1.0;
        if (!cfg.workload_weights.empty()) {
            w = i < cfg.workload_weights.size()
                    ? cfg.workload_weights[i]
                    : 0.0;
            ARK_ASSERT(w >= 0, "workload weights must be >= 0");
        }
        total_w += w;
        cum.push_back(total_w);
    }
    ARK_ASSERT(total_w > 0, "at least one workload weight must be > 0");

    double peak = cfg.rate_per_sec;
    for (const BurstEpisode &b : cfg.bursts) {
        ARK_ASSERT(b.rate_multiplier > 0,
                   "burst multiplier must be positive");
        peak = std::max(peak, cfg.rate_per_sec * b.rate_multiplier);
    }

    Rng rng(cfg.seed);
    std::vector<ArrivalEvent> events;
    events.reserve(static_cast<size_t>(peak * cfg.duration_s) + 16);

    // Thinning: exponential gaps at the peak rate; keep a candidate at
    // t with probability rate(t)/peak. 1 - uniformReal() keeps the log
    // argument in (0, 1] so the gap is always finite.
    double t = 0;
    while (true) {
        const double u = 1.0 - rng.uniformReal();
        t += -std::log(u) / peak;
        if (t >= cfg.duration_s)
            break;
        if (rng.uniformReal() * peak > arrivalRateAt(cfg, t))
            continue;
        const double draw = rng.uniformReal() * total_w;
        const size_t wi = static_cast<size_t>(
            std::lower_bound(cum.begin(), cum.end(), draw) -
            cum.begin());
        events.push_back({t, std::min(wi, workload_count - 1)});
    }
    return events;
}

ArrivalConfig
arrivalConfigFromEnv(ArrivalConfig cfg)
{
    if (const auto v = envU64("ARK_ARRIVAL_RATE", 1, 1000000,
                              "an integer in [1, 1000000] arrivals/sec"))
        cfg.rate_per_sec = static_cast<double>(*v);
    if (const auto v = envU64("ARK_ARRIVAL_MS", 1, 3600000,
                              "an integer in [1, 3600000] milliseconds"))
        cfg.duration_s = static_cast<double>(*v) / 1000.0;
    if (const auto v = envU64("ARK_ARRIVAL_SEED", 0, ~u64{0},
                              "an unsigned 64-bit integer"))
        cfg.seed = *v;
    if (const char *burst_env = envValue("ARK_ARRIVAL_BURST")) {
        u64 start_ms = 0, dur_ms = 0, mult = 0;
        const char *p1 = std::strchr(burst_env, ':');
        const char *p2 = p1 ? std::strchr(p1 + 1, ':') : nullptr;
        bool ok = p1 != nullptr && p2 != nullptr;
        if (ok) {
            const std::string a(burst_env, p1);
            const std::string b(p1 + 1, p2);
            ok = parseU64(a.c_str(), 0, 3600000, start_ms) &&
                 parseU64(b.c_str(), 1, 3600000, dur_ms) &&
                 parseU64(p2 + 1, 1, 1000, mult);
        }
        if (!ok)
            fatalEnv("ARK_ARRIVAL_BURST", burst_env,
                     "start_ms:duration_ms:multiplier");
        cfg.bursts = {{static_cast<double>(start_ms) / 1000.0,
                       static_cast<double>(dur_ms) / 1000.0,
                       static_cast<double>(mult)}};
    }
    return cfg;
}

} // namespace ark
