#include "bench.h"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <sys/resource.h>

namespace arkbench {

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

double
highestSupportedQuantile(size_t n)
{
    if (n <= kTailBeyond)
        return 0;
    return 1.0 - static_cast<double>(kTailBeyond) / static_cast<double>(n);
}

bool
tailSupported(size_t n, double q)
{
    // Samples strictly beyond quantile q: n * (1 - q), counted with a
    // small slack so 1000 samples support p99 despite rounding.
    return static_cast<double>(n) * (1.0 - q) + 1e-9 >=
           static_cast<double>(kTailBeyond);
}

double
precisionBits(const std::vector<std::complex<double>> &got,
              const std::vector<std::complex<double>> &want)
{
    double err = 0;
    for (size_t i = 0; i < got.size() && i < want.size(); ++i)
        err = std::max(err, std::abs(got[i] - want[i]));
    if (got.size() != want.size() || !std::isfinite(err))
        return 0;
    return err > 0 ? -std::log2(err) : 64.0;
}

double
processCpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

bool
LoopStats::finish(Clock::time_point submitted, Clock::time_point done, bool ok)
{
    ++attempted;
    correct += ok ? 1 : 0;
    if (done >= deadline)
        return false;
    latency_ms.push_back(msBetween(submitted, done));
    last = done;
    cpu_last_ms = processCpuMs();
    return true;
}

void
book(RunResult &out, const LoopStats &loop)
{
    out.attempted += loop.attempted;
    out.failed += loop.attempted - loop.correct;
}

void
failAll(RunResult &out, const std::string &why)
{
    out.failed = out.attempted;
    out.notes.push_back(why);
}

void
addEndToEnd(RunResult &out, const LoopStats &loop,
            const std::vector<double> &setup_s, double precision_bits,
            bool precise)
{
    const double n = static_cast<double>(loop.latency_ms.size());
    const double window = loop.windowS();
    const ark::u64 correct = precise ? loop.correct : 0;
    book(out, loop);
    out.add("setup_s", median(setup_s), "s");
    out.add("throughput_rps", window > 0 ? n / window : 0, "1/s");
    out.add("peak_rss_mib", peakRssMiB(), "MiB");
    out.add("precision_bits", precision_bits, "bits");
    out.add("ok_share",
            loop.attempted > 0
                ? static_cast<double>(correct) / static_cast<double>(loop.attempted)
                : 0,
            "fraction");

    // Printed with the stamp, not in the result: on a shared host the
    // median and tail latencies of whole runs spread wider than any
    // bound the result may carry (see README.md).
    char line[200];
    const size_t samples = loop.latency_ms.size();
    std::snprintf(line, sizeof line, "latency_p50_ms %.4f ms over %zu in-window samples",
                  quantile(loop.latency_ms, 0.50), samples);
    out.notes.emplace_back(line);
    if (tailSupported(samples, 0.99)) {
        std::snprintf(line, sizeof line, "latency_p99_ms %.4f ms (>= %zu samples beyond it)",
                      quantile(loop.latency_ms, 0.99), kTailBeyond);
    } else {
        std::snprintf(line, sizeof line,
                      "latency_p99_ms not reported: fewer than %zu samples beyond it "
                      "(highest supported quantile: p%.1f)",
                      kTailBeyond, 100.0 * highestSupportedQuantile(samples));
    }
    out.notes.emplace_back(line);
    std::snprintf(line, sizeof line, "cpu_ms_per_req %.4f ms",
                  n > 0 ? (loop.cpu_last_ms - loop.cpu_start_ms) / n : 0);
    out.notes.emplace_back(line);
}

long
SpanLog::add(const std::string &name, ark::u64 request,
             Clock::time_point start, Clock::time_point end)
{
    if (!enabled_)
        return -1;
    auto us = [this](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    spans_.push_back({name, request, -1, us(start), us(end)});
    return static_cast<long>(spans_.size()) - 1;
}

void
SpanLog::setParent(long child, long parent)
{
    if (child >= 0 && static_cast<size_t>(child) < spans_.size())
        spans_[static_cast<size_t>(child)].parent = parent;
}

bool
SpanLog::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    for (const Span &s : spans_)
        std::fprintf(f,
                     "{\"name\": \"%s\", \"request\": %llu, \"parent\": %ld, "
                     "\"start_us\": %.3f, \"end_us\": %.3f}\n",
                     s.name.c_str(), static_cast<unsigned long long>(s.request),
                     s.parent, s.start_us, s.end_us);
    return std::fclose(f) == 0;
}

void
SelfTimeTable::close()
{
    double sum = 0;
    for (const Row &r : rows)
        sum += r.ms;
    rows.push_back({"unattributed", "remainder", latency_ms - sum});
}

double
SelfTimeTable::rowMs(const std::string &layer) const
{
    double ms = 0;
    for (const Row &r : rows)
        if (r.layer == layer)
            ms += r.ms;
    return ms;
}

double
SelfTimeTable::share(const std::string &layer) const
{
    return latency_ms > 0 ? rowMs(layer) / latency_ms : 0;
}

bool
SelfTimeTable::holds() const
{
    if (latency_ms <= 0)
        return false;
    for (const Row &r : rows)
        if (r.ms < -kClosureTolerance * latency_ms)
            return false;
    return true;
}

std::string
SelfTimeTable::largest() const
{
    const Row *best = nullptr;
    for (const Row &r : rows)
        if (best == nullptr || r.ms > best->ms)
            best = &r;
    return best ? best->layer : "";
}

std::vector<std::string>
SelfTimeTable::render(const std::string &workload) const
{
    std::vector<std::string> out;
    char line[160];
    std::snprintf(line, sizeof line,
                  "self time per request, workload %s (mean %.3f ms):",
                  workload.c_str(), latency_ms);
    out.emplace_back(line);
    std::snprintf(line, sizeof line, "  %-14s %-10s %12s %8s", "layer",
                  "source", "ms", "share");
    out.emplace_back(line);
    for (const Row &r : rows) {
        std::snprintf(line, sizeof line, "  %-14s %-10s %12.4f %7.1f%%",
                      r.layer.c_str(), r.source.c_str(), r.ms,
                      latency_ms > 0 ? 100.0 * r.ms / latency_ms : 0.0);
        out.emplace_back(line);
    }
    std::snprintf(line, sizeof line,
                  "  closure: no row below -%.0f%% of the latency: %s",
                  100.0 * kClosureTolerance, holds() ? "holds" : "FAILS");
    out.emplace_back(line);
    return out;
}

} // namespace arkbench
