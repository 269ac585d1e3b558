#include "serve/request_queue.h"

#include <algorithm>

#include "common/logging.h"

namespace ark {

RequestQueue::RequestQueue(size_t capacity) : capacity_(capacity)
{
    ARK_ASSERT(capacity > 0, "queue capacity must be positive");
}

bool
RequestQueue::push(ServeJob &&job)
{
    std::unique_lock<std::mutex> lk(m_);
    not_full_.wait(lk,
                   [this] { return closed_ || q_.size() < capacity_; });
    if (closed_)
        return false;
    q_.push_back(std::move(job));
    peak_ = std::max(peak_, q_.size());
    lk.unlock();
    not_empty_.notify_one();
    return true;
}

AdmitResult
RequestQueue::tryPush(ServeJob &&job)
{
    {
        std::lock_guard<std::mutex> lk(m_);
        if (closed_)
            return AdmitResult::Closed;
        if (q_.size() >= capacity_)
            return AdmitResult::Full;
        q_.push_back(std::move(job));
        peak_ = std::max(peak_, q_.size());
    }
    not_empty_.notify_one();
    return AdmitResult::Admitted;
}

bool
RequestQueue::pop(ServeJob &out)
{
    std::unique_lock<std::mutex> lk(m_);
    not_empty_.wait(lk, [this] { return closed_ || !q_.empty(); });
    if (q_.empty())
        return false; // closed and drained
    out = std::move(q_.front());
    q_.pop_front();
    lk.unlock();
    not_full_.notify_one();
    return true;
}

bool
RequestQueue::evictLowestBelow(u32 floor, ServeJob &victim)
{
    {
        std::lock_guard<std::mutex> lk(m_);
        size_t pick = q_.size();
        for (size_t i = 0; i < q_.size(); ++i) {
            // <= on the running minimum: the LAST among equals wins,
            // so the freshest low-priority job is shed first.
            if (q_[i].priority < floor &&
                (pick == q_.size() ||
                 q_[i].priority <= q_[pick].priority))
                pick = i;
        }
        if (pick == q_.size())
            return false;
        victim = std::move(q_[pick]);
        q_.erase(q_.begin() +
                 static_cast<std::deque<ServeJob>::difference_type>(
                     pick));
    }
    not_full_.notify_one();
    return true;
}

bool
RequestQueue::lowestPriority(u32 &out) const
{
    std::lock_guard<std::mutex> lk(m_);
    if (q_.empty())
        return false;
    u32 lo = q_.front().priority;
    for (const ServeJob &j : q_)
        lo = std::min(lo, j.priority);
    out = lo;
    return true;
}

void
RequestQueue::close()
{
    {
        std::lock_guard<std::mutex> lk(m_);
        closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
}

void
RequestQueue::closeNow(std::vector<ServeJob> &out)
{
    {
        std::lock_guard<std::mutex> lk(m_);
        closed_ = true;
        while (!q_.empty()) {
            out.push_back(std::move(q_.front()));
            q_.pop_front();
        }
    }
    not_full_.notify_all();
    not_empty_.notify_all();
}

size_t
RequestQueue::size() const
{
    std::lock_guard<std::mutex> lk(m_);
    return q_.size();
}

bool
RequestQueue::closed() const
{
    std::lock_guard<std::mutex> lk(m_);
    return closed_;
}

size_t
RequestQueue::peakDepth() const
{
    std::lock_guard<std::mutex> lk(m_);
    return peak_;
}

void
RequestQueue::resetPeak()
{
    std::lock_guard<std::mutex> lk(m_);
    peak_ = q_.size();
}

} // namespace ark
