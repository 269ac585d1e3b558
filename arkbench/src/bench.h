/**
 * @file
 * Shared pieces of the arkbench harness: the run options, the result
 * every workload returns, the statistics rules the metrics follow,
 * the in-memory span log of the traced run, and the self-time table
 * with its closure check.
 *
 * Everything here measures the program from outside: spans wrap calls
 * into the library's public functions, and per-layer numbers come
 * from those spans, from fields the library already returns
 * (ServeResult, SubmitOutcome, BootStats, KernelBackend::stats()),
 * and from direct timings of public kernels and HE ops.
 */

#pragma once

#include <chrono>
#include <complex>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace arkbench {

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    ark::u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Where the traced run writes its spans (JSON lines). */
    std::string trace_out;
};

/** One named metric of the final JSON line. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What a workload run reports back to main(). */
struct RunResult
{
    ark::u64 attempted = 0;
    ark::u64 failed = 0; ///< wrong, failed or refused requests
    std::vector<Metric> metrics;
    /** Busy threads the workload runs (printed with the stamp). */
    size_t threads = 0;
    /** Free-form lines printed before the JSON (tables, notes). */
    std::vector<std::string> notes;
    /** False when a check on the traced run itself failed (closure or
     *  stress); the run then reports correct = false and exits nonzero. */
    bool checks_hold = true;

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
};

/// @name Process resources
/// @{
double processCpuMs();
double peakRssMiB();
/// @}

/**
 * One closed-loop measurement. A request is in the window when its
 * completion is observed before the deadline; throughput and CPU
 * cost are taken over the window up to the last such completion, so
 * a closed loop's rate is not quantized by the run length. Requests
 * completing after the deadline are still checked for correctness.
 */
struct LoopStats
{
    Clock::time_point start = Clock::now();
    Clock::time_point deadline = start;
    double cpu_start_ms = processCpuMs();
    double cpu_last_ms = cpu_start_ms;
    Clock::time_point last = start;
    std::vector<double> latency_ms; ///< in-window requests only
    ark::u64 attempted = 0;
    ark::u64 correct = 0;

    explicit LoopStats(double seconds = 0)
        : deadline(start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds)))
    {
    }

    bool open() const { return Clock::now() < deadline; }
    /** Book one finished request; returns whether it was in-window. */
    bool finish(Clock::time_point submitted, Clock::time_point done, bool ok);
    double windowS() const
    {
        return std::chrono::duration<double>(last - start).count();
    }
};

/** Count a loop's requests into @p out's attempted and failed. */
void book(RunResult &out, const LoopStats &loop);

/** Count every request booked so far as failed, noting @p why. */
void failAll(RunResult &out, const std::string &why);

/** Add the five end-to-end metrics of a closed-loop run (and book
 *  its requests), and note its latency median, tail and CPU cost.
 *  Unless @p precise (precision_bits reached the workload's floor),
 *  no request counts as correct in ok_share. */
void addEndToEnd(RunResult &out, const LoopStats &loop,
                 const std::vector<double> &setup_s, double precision_bits,
                 bool precise);

/**
 * Set a workload's state up @p times times, keeping the last and
 * recording each set-up's seconds in @p secs. Earlier states are
 * destroyed before the next is built, so each set-up starts cold in
 * the same way.
 */
template <typename T, typename F>
std::unique_ptr<T>
setUpRepeated(size_t times, std::vector<double> &secs, F &&make)
{
    std::unique_ptr<T> state;
    for (size_t i = 0; i < times; ++i) {
        state.reset();
        const auto t0 = Clock::now();
        state = make();
        secs.push_back(msBetween(t0, Clock::now()) / 1e3);
    }
    return state;
}

/// @name Statistics
/// @{
/** Quantile @p q in [0, 1] by linear interpolation between order
 *  statistics (Python's statistics.quantiles 'inclusive' method). */
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double mean(const std::vector<double> &v);

/** Samples a tail quantile needs beyond it before it is reported. */
constexpr size_t kTailBeyond = 10;
/**
 * The highest quantile of @p n samples that still has at least
 * kTailBeyond samples beyond it: 1 - kTailBeyond / n, or 0 when
 * n <= kTailBeyond (no tail quantile is supported).
 */
double highestSupportedQuantile(size_t n);
/** Whether quantile @p q of @p n samples has kTailBeyond beyond it. */
bool tailSupported(size_t n, double q);

/** -log2 of the largest slot error (the precision of a result). */
double precisionBits(const std::vector<std::complex<double>> &got,
                     const std::vector<std::complex<double>> &want);
/// @}

/**
 * In-memory span log for the traced run. A span is one call into a
 * public function of the program, recorded by the harness: name,
 * start, end, parent span and request id. Nothing is recorded while
 * disabled, so the untraced run pays one branch per call site.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        ark::u64 request = 0;
        long parent = -1; ///< index of the parent span, -1 = root
        double start_us = 0;
        double end_us = 0;
    };

    void setEnabled(bool on) { enabled_ = on; }

    /** Record a finished span; returns its index (-1 when disabled). */
    long add(const std::string &name, ark::u64 request,
             Clock::time_point start, Clock::time_point end);

    /** Link span @p child to @p parent (a caller's span is recorded
     *  when it ends, after the spans of the calls it made). */
    void setParent(long child, long parent);

    /** Write every span as one JSON object per line. */
    bool write(const std::string &path) const;

  private:
    bool enabled_ = false;
    const Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/** A self-time row may go negative by at most this share of the
 *  latency: a measured or modelled part over-explaining its parent. */
constexpr double kClosureTolerance = 0.10;

/**
 * A self-time table: the mean time per request attributed to each
 * layer, an explicit `unattributed` row holding what no row explains,
 * and the closure check against the mean request latency.
 */
struct SelfTimeTable
{
    struct Row
    {
        std::string layer;
        std::string source; ///< span | field | model | remainder
        double ms = 0;
    };
    std::vector<Row> rows;
    double latency_ms = 0;

    /** Append the `unattributed` row: latency minus every other row. */
    void close();
    double share(const std::string &layer) const;
    double rowMs(const std::string &layer) const;
    /** No row, the unattributed one included, is below
     *  -kClosureTolerance * latency: the rows measured apart from the
     *  latency do not over-explain it, alone or together. */
    bool holds() const;
    /** The largest row by time. */
    std::string largest() const;
    std::vector<std::string> render(const std::string &workload) const;
};

} // namespace arkbench
