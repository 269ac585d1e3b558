/**
 * @file
 * Small work-stealing thread pool: the KernelBackend's pooled executor.
 *
 * Kernels submit a batch of independent limb jobs with parallelFor();
 * each worker owns a deque and pops its own work LIFO, stealing FIFO
 * from siblings when drained (the classic Cilk discipline, which keeps
 * a worker's cache warm on its own limbs while letting idle workers
 * balance skewed batches). The submitting thread participates in the
 * batch instead of blocking, so a pool of k workers applies k + 1
 * threads to every batch and a single-worker pool still makes
 * progress when the caller is the only runnable thread.
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ark {

/**
 * Non-owning reference to a job body `void(size_t)`: an object pointer
 * plus a trampoline, so submitting a batch never allocates (a
 * `std::function` heap-allocates closures above its small buffer).
 * The referenced callable must outlive every call through the
 * reference; parallelFor's argument lives until the batch drains.
 */
class JobRef
{
  public:
    template <typename Fn>
    JobRef(const Fn &fn) // implicit: callers pass lambdas
        : obj_(&fn), call_([](const void *obj, size_t i) {
              (*static_cast<const Fn *>(obj))(i);
          })
    {
    }

    void operator()(size_t i) const { call_(obj_, i); }

  private:
    const void *obj_;
    void (*call_)(const void *, size_t);
};

/**
 * Fixed-size work-stealing pool. parallelFor may be called from many
 * threads concurrently, and from inside a job of the same pool (the
 * nested waiter helps drain queues instead of blocking, so progress
 * is guaranteed); the serving runtime relies on both.
 */
class ThreadPool
{
  public:
    /** @param num_threads worker threads; 0 = hardware concurrency. */
    explicit ThreadPool(size_t num_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker threads owned by the pool (the caller adds one more). */
    size_t threads() const { return workers_.size(); }

    /**
     * Run fn(i) for every i in [0, count) across the pool and the
     * calling thread; returns once all indices completed. Jobs must be
     * independent. If any job throws, every index still runs to
     * completion and the first exception captured is rethrown in the
     * caller (the pool itself stays usable).
     */
    void parallelFor(size_t count, JobRef fn);

    /** Default worker count: hardware concurrency (at least 1). */
    static size_t defaultThreads();

  private:
    struct Batch
    {
        Batch(JobRef f, size_t n) : fn(f), count(n) {}

        JobRef fn;
        size_t count;
        /** Guarded by m (not atomic): completion must be observed
         *  under the mutex so a finishing worker can never touch the
         *  stack-allocated Batch after the owner saw it complete. */
        size_t completed = 0;
        /** First exception a job of this batch threw (guarded by m);
         *  rethrown to the parallelFor caller after the batch drains. */
        std::exception_ptr error;
        std::mutex m;
        std::condition_variable done_cv;
    };

    struct Task
    {
        Batch *batch = nullptr;
        size_t index = 0;
    };

    struct Worker
    {
        std::mutex m;
        std::deque<Task> queue;
    };

    void workerLoop(size_t self);
    /** Pop own-back / steal-front one task and run it. */
    bool tryRunOne(size_t self);
    void submit(const Task &t, size_t hint);

    std::vector<std::unique_ptr<Worker>> slots_;
    std::vector<std::thread> workers_;
    std::atomic<size_t> pending_{0}; ///< queued, not-yet-popped tasks
    std::atomic<bool> stop_{false};
    std::mutex sleep_m_;
    std::condition_variable sleep_cv_;
};

} // namespace ark
