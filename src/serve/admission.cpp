#include "serve/admission.h"

#include "common/logging.h"

namespace ark {

AdmissionController::AdmissionController(AdmissionConfig cfg)
    : cfg_(std::move(cfg)), classes_(cfg_.classes)
{
    if (classes_.empty())
        classes_.push_back(SloClass{});
    for (size_t cid : cfg_.class_of_workload)
        ARK_ASSERT(cid < classes_.size(),
                   "class_of_workload references an unknown class");
    state_.resize(classes_.size());
}

const SloClass &
AdmissionController::classAt(size_t id) const
{
    ARK_ASSERT(id < classes_.size(), "class id out of range");
    return classes_[id];
}

size_t
AdmissionController::classOf(size_t workload_index) const
{
    if (workload_index < cfg_.class_of_workload.size())
        return cfg_.class_of_workload[workload_index];
    return 0;
}

void
AdmissionController::recordService(size_t class_id, double ms)
{
    ARK_ASSERT(class_id < state_.size(), "class id out of range");
    std::lock_guard<std::mutex> lk(m_);
    state_[class_id].service.record(ms);
}

double
AdmissionController::predictedP99Ms(size_t class_id,
                                    size_t queue_depth,
                                    size_t workers) const
{
    ARK_ASSERT(class_id < state_.size(), "class id out of range");
    ARK_ASSERT(workers > 0, "a queue needs at least one worker");

    double mean_ms, tail_ms;
    {
        std::lock_guard<std::mutex> lk(m_);
        const obs::Histogram &h = state_[class_id].service;
        if (h.count >= cfg_.min_samples) {
            mean_ms = h.meanMs();
            tail_ms = h.quantileMs(0.99);
        } else if (cfg_.expected_service_ms > 0) {
            // Cold class: stand the calibrated prior in for both the
            // mean and the tail until real observations arrive.
            mean_ms = cfg_.expected_service_ms;
            tail_ms = cfg_.expected_service_ms;
        } else {
            return 0; // nothing to predict from yet
        }
    }
    // The new request waits for the queue ahead of it plus its own
    // dispatch slot, drained by `workers` servers in parallel, then
    // pays its own service tail.
    const double waves =
        static_cast<double>(queue_depth + 1) /
        static_cast<double>(workers);
    return waves * mean_ms + tail_ms;
}

AdmissionVerdict
AdmissionController::decide(size_t class_id, size_t queue_depth,
                            size_t workers, bool queue_nonempty,
                            u32 lowest_queued_priority) const
{
    if (!cfg_.enabled)
        return AdmissionVerdict::Admit;
    const SloClass &cls = classAt(class_id);
    if (cls.p99_ms <= 0)
        return AdmissionVerdict::Admit;

    const double predicted =
        predictedP99Ms(class_id, queue_depth, workers);
    if (predicted <= 0 || predicted <= cls.p99_ms)
        return AdmissionVerdict::Admit;

    // Over target: shed from the bottom of the priority order. An
    // eviction frees one slot's worth of predicted delay AND keeps
    // the high-priority request — strictly better than shedding the
    // newcomer whenever lower-priority work is queued.
    if (queue_nonempty && lowest_queued_priority < cls.priority)
        return AdmissionVerdict::EvictLower;
    return AdmissionVerdict::Shed;
}

} // namespace ark
