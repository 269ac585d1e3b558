/**
 * @file
 * Small batch-claiming thread pool: the KernelBackend's pooled executor.
 *
 * Kernels submit a batch of independent, equal-sized limb jobs with
 * parallelFor(). The batch is published once on the pool's list of
 * open batches; the submitting thread and every woken worker then
 * claim indices from it with one atomic increment each until it runs
 * dry, so a batch costs a constant number of lock round trips
 * whatever its size. The submitting thread works too, so a pool of k
 * workers applies k + 1 threads to every batch and a single-worker
 * pool still makes progress when the caller is the only runnable
 * thread.
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
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
 * Fixed-size batch-claiming pool. parallelFor may be called from many
 * threads concurrently, and from inside a job of the same pool (the
 * nested caller claims its own batch's indices, so it always makes
 * progress); the serving runtime relies on both.
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
    /** One parallelFor call, on its caller's stack. */
    struct Batch
    {
        Batch(JobRef f, size_t n) : fn(f), count(n) {}

        JobRef fn;
        size_t count;
        /** Next unclaimed index; values past count mean exhausted. */
        std::atomic<size_t> next{0};
        /** Workers inside the batch (guarded by m_). The owner may
         *  destroy the batch only once it is off open_ and this is
         *  zero, so no thread can still touch it. */
        size_t active = 0;
        /** First exception a job threw (guarded by m_). */
        std::exception_ptr error;
        std::condition_variable left_cv;
    };

    /** Claim and run indices of @p b until it is exhausted; returns
     *  the first exception a job threw. */
    static std::exception_ptr runClaims(Batch &b);
    /** Book a thread's finished claims on @p b (m_ held): record its
     *  error and take the exhausted batch off open_. */
    void retire(Batch &b, std::exception_ptr err);
    void workerLoop();

    std::mutex m_;
    std::condition_variable work_cv_;
    std::vector<Batch *> open_; ///< batches with indices left (m_)
    bool stop_ = false;         ///< guarded by m_
    std::vector<std::thread> workers_;
};

} // namespace ark
