#include "serve/metrics.h"

#include <cstdio>

namespace ark {

LatencySummary
LatencySummary::from(const obs::Histogram &h)
{
    LatencySummary s;
    s.count = static_cast<size_t>(h.count);
    s.mean_ms = h.meanMs();
    s.p50_ms = h.quantileMs(0.50);
    s.p90_ms = h.quantileMs(0.90);
    s.p99_ms = h.quantileMs(0.99);
    s.max_ms = h.max_ms;
    return s;
}

std::string
ServeReport::toString() const
{
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "requests %zu (%zu failed) in %.3f s  |  %.1f req/s  "
        "%.1f HE-ops/s\n"
        "execute ms: mean %.3f  p50 %.3f  p90 %.3f  p99 %.3f  "
        "max %.3f\n"
        "kernels: %.2f Mwords/s  %.2f Mmults/s",
        requests, failed, wall_seconds, requests_per_sec,
        he_ops_per_sec, latency.mean_ms,
        latency.p50_ms, latency.p90_ms, latency.p99_ms,
        latency.max_ms, words_per_sec / 1e6, mults_per_sec / 1e6);
    std::string out = buf;
    if (shed > 0 || slo_good > 0) {
        std::snprintf(buf, sizeof buf,
                      "\nslo: %zu good (%.1f goodput/s)  %zu shed",
                      slo_good, goodput_per_sec, shed);
        out += buf;
    }
    if (deadline_expired > 0 || drain_refused > 0) {
        std::snprintf(buf, sizeof buf,
                      "\ndropped: %zu past deadline  %zu at drain",
                      deadline_expired, drain_refused);
        out += buf;
    }
    if (e2e.count > 0) {
        std::snprintf(buf, sizeof buf,
                      "\ne2e ms: mean %.3f  p50 %.3f  p90 %.3f  "
                      "p99 %.3f  max %.3f",
                      e2e.mean_ms, e2e.p50_ms, e2e.p90_ms, e2e.p99_ms,
                      e2e.max_ms);
        out += buf;
    }
    return out;
}

} // namespace ark
