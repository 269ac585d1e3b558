#include "common/thread_pool.h"

#include "common/logging.h"

namespace ark {

size_t
ThreadPool::defaultThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<size_t>(hw);
}

ThreadPool::ThreadPool(size_t num_threads)
{
    if (num_threads == 0)
        num_threads = defaultThreads();
    slots_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i)
        slots_.push_back(std::make_unique<Worker>());
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(sleep_m_);
        stop_.store(true);
    }
    sleep_cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(const Task &t, size_t hint)
{
    Worker &w = *slots_[hint % slots_.size()];
    {
        std::lock_guard<std::mutex> lk(w.m);
        w.queue.push_back(t);
    }
    // Increment under sleep_m_ so it cannot interleave between a
    // worker's predicate check and its wait (lost-wakeup race).
    {
        std::lock_guard<std::mutex> lk(sleep_m_);
        pending_.fetch_add(1, std::memory_order_release);
    }
    sleep_cv_.notify_one();
}

bool
ThreadPool::tryRunOne(size_t self)
{
    const size_t k = slots_.size();
    Task t;
    bool have = false;

    // Own queue first, newest-first: the local end of the deque.
    if (self < k) {
        Worker &own = *slots_[self];
        std::lock_guard<std::mutex> lk(own.m);
        if (!own.queue.empty()) {
            t = own.queue.back();
            own.queue.pop_back();
            have = true;
        }
    }
    // Steal oldest-first from siblings (external callers always steal).
    for (size_t off = 1; !have && off <= k; ++off) {
        Worker &victim = *slots_[(self + off) % k];
        std::lock_guard<std::mutex> lk(victim.m);
        if (!victim.queue.empty()) {
            t = victim.queue.front();
            victim.queue.pop_front();
            have = true;
        }
    }
    if (!have)
        return false;

    pending_.fetch_sub(1, std::memory_order_acquire);
    std::exception_ptr err;
    try {
        t.batch->fn(t.index);
    } catch (...) {
        // Jobs may throw (a serving request validates mid-kernel);
        // capture the first error for the batch owner instead of
        // terminating the worker.
        err = std::current_exception();
    }
    // Record completion and notify entirely under the batch mutex:
    // once the owner (who also checks under the mutex) has observed
    // completed == count, no thread can still be inside this region,
    // so destroying the Batch right after is safe.
    {
        std::lock_guard<std::mutex> lk(t.batch->m);
        if (err && !t.batch->error)
            t.batch->error = err;
        t.batch->completed += 1;
        if (t.batch->completed == t.batch->count)
            t.batch->done_cv.notify_all();
    }
    return true;
}

void
ThreadPool::workerLoop(size_t self)
{
    while (true) {
        if (tryRunOne(self))
            continue;
        std::unique_lock<std::mutex> lk(sleep_m_);
        sleep_cv_.wait(lk, [this] {
            return stop_.load() || pending_.load() > 0;
        });
        if (stop_.load() && pending_.load() == 0)
            return;
    }
}

void
ThreadPool::parallelFor(size_t count, JobRef fn)
{
    if (count == 0)
        return;
    if (count == 1) {
        fn(0);
        return;
    }

    Batch batch(fn, count);
    for (size_t i = 0; i < count; ++i)
        submit(Task{&batch, i}, i);

    // The caller helps drain the queues; `slots_.size()` marks it as
    // an external thief with no queue of its own. Once nothing is
    // left to steal, every remaining task is in flight on a worker:
    // wait for completion under the batch mutex (the only place
    // completion is observed, see Batch::completed).
    while (tryRunOne(slots_.size())) {
    }
    std::exception_ptr err;
    {
        std::unique_lock<std::mutex> lk(batch.m);
        batch.done_cv.wait(
            lk, [&batch, count] { return batch.completed >= count; });
        err = batch.error;
    }
    if (err)
        std::rethrow_exception(err);
}

} // namespace ark
