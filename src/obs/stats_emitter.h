/**
 * @file
 * Periodic stats emitter: a background thread that renders a snapshot
 * string at a fixed interval and hands it to a sink (stderr by
 * default). WireServer starts one when ARK_STATS_INTERVAL_MS is set,
 * rendering BatchServer::liveStats() + the metrics snapshot, so a
 * running server prints its live queue depth without any client
 * polling.
 */

#pragma once

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

namespace ark {
namespace obs {

class StatsEmitter
{
  public:
    /** Produces one emission's text (called on the emitter thread). */
    using Render = std::function<std::string()>;
    /** Consumes one emission's text; default writes to stderr. */
    using Sink = std::function<void(const std::string &)>;

    StatsEmitter(std::chrono::milliseconds interval, Render render,
                 Sink sink = {});
    ~StatsEmitter();

    StatsEmitter(const StatsEmitter &) = delete;
    StatsEmitter &operator=(const StatsEmitter &) = delete;

    /** Stop and join the emitter thread (idempotent). */
    void stop();

    /** Emissions so far (tests). */
    size_t emissions() const;

  private:
    void run(std::chrono::milliseconds interval);

    Render render_;
    Sink sink_;
    mutable std::mutex m_;
    std::condition_variable cv_;
    bool stop_ = false;
    size_t emissions_ = 0;
    std::thread thread_;
};

} // namespace obs
} // namespace ark
