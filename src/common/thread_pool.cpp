#include "common/thread_pool.h"

#include <algorithm>

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
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(m_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

std::exception_ptr
ThreadPool::runClaims(Batch &b)
{
    // Relaxed suffices: fn and count were published under m_, and the
    // jobs' results reach the owner through m_ when each thread retires.
    std::exception_ptr err;
    for (size_t i = b.next.fetch_add(1, std::memory_order_relaxed);
         i < b.count; i = b.next.fetch_add(1, std::memory_order_relaxed)) {
        try {
            b.fn(i);
        } catch (...) {
            // Jobs may throw (a serving request validates mid-kernel);
            // keep claiming so every index runs before the rethrow.
            if (!err)
                err = std::current_exception();
        }
    }
    return err;
}

void
ThreadPool::retire(Batch &b, std::exception_ptr err)
{
    if (err && !b.error)
        b.error = std::move(err);
    const auto it = std::find(open_.begin(), open_.end(), &b);
    if (it != open_.end())
        open_.erase(it);
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lk(m_);
    while (true) {
        work_cv_.wait(lk, [this] { return stop_ || !open_.empty(); });
        if (open_.empty())
            return;
        Batch &b = *open_.front();
        ++b.active;
        lk.unlock();
        std::exception_ptr err = runClaims(b);
        lk.lock();
        retire(b, std::move(err));
        // Notify under m_: the owner cannot see active == 0, and so
        // cannot destroy the batch, until this thread lets go of m_.
        if (--b.active == 0)
            b.left_cv.notify_one();
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
    {
        std::lock_guard<std::mutex> lk(m_);
        open_.push_back(&batch);
    }
    for (size_t i = 1; i < count && i <= workers_.size(); ++i)
        work_cv_.notify_one();

    std::exception_ptr err = runClaims(batch);
    {
        std::unique_lock<std::mutex> lk(m_);
        retire(batch, std::move(err));
        // Off open_ now, so no thread can enter; wait for those inside.
        batch.left_cv.wait(lk, [&batch] { return batch.active == 0; });
        err = batch.error;
    }
    if (err)
        std::rethrow_exception(err);
}

} // namespace ark
