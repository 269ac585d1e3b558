/**
 * @file
 * SLO-aware admission control for the BatchServer.
 *
 * Every request belongs to an SLO class (priority + end-to-end p50/p99
 * latency targets). At admission the controller predicts the p99 a new
 * request would see behind the server's current queue — queueing delay
 * from depth and the class's observed mean service time, plus the
 * class's observed service-time p99 tail — and compares it against the
 * class target. When the prediction exceeds the target the server
 * makes room by shedding the LOWEST-priority work first: a queued
 * victim of strictly lower priority is evicted (its promise completes
 * with ServeErrorKind::Shed, wire code SHED — retryable, the client's
 * cue to back off), or, when no such victim exists, the incoming
 * request itself is shed. Higher-priority work is therefore never
 * shed while lower-priority work occupies the queue — the invariant
 * tests/test_serving_admission.cpp pins down.
 *
 * Observation: per-class service-time histograms use the same
 * fixed-bucket obs::Histogram the phase metrics use (its p99 estimate
 * is never low and under 9.05% high), recorded by the workers after
 * every execution. Before a class has min_samples
 * observations the configured expected_service_ms prior stands in —
 * calibrated by the benches from a closed-loop warmup — so admission
 * engages from the first over-saturated second instead of after the
 * queue has already blown the SLO.
 *
 * The controller is deliberately clock-free and thread-safe (one
 * internal mutex; decisions are O(classes)). All timing it reasons
 * about arrives as numbers, so tests drive it deterministically with
 * synthetic observations (no virtual-clock advance even needed).
 */

#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"

namespace ark {

/** One SLO class: a priority tier with latency targets. */
struct SloClass
{
    std::string name = "default";
    /** Shedding order: higher priority is shed later. Equal-priority
     *  work never evicts each other. */
    u32 priority = 0;
    /** Informational median target (reported, not enforced). */
    double p50_ms = 0;
    /** The admission gate: end-to-end p99 budget in ms. 0 = no
     *  target, the class is never shed and never counted against
     *  goodput. */
    double p99_ms = 0;
};

/** Admission-control knobs (BatchServerConfig::admission). */
struct AdmissionConfig
{
    /** Master switch for shedding. Targets below are still used for
     *  goodput accounting when false — the no-admission baseline the
     *  open-loop bench compares against must report goodput too. */
    bool enabled = false;
    /** The class catalog; index = class id. Empty = one default
     *  class (priority 0, no target). */
    std::vector<SloClass> classes;
    /** class_of_workload[i] = class id of workload i. Shorter than
     *  the workload list (or empty) = remaining workloads map to
     *  class 0. */
    std::vector<size_t> class_of_workload;
    /** Observations a class needs before its own histogram replaces
     *  the expected_service_ms prior in predictions. */
    u64 min_samples = 16;
    /** Prior mean service time (ms) used until min_samples arrive;
     *  0 = no prior, predictions stay disabled until warmed. */
    double expected_service_ms = 0;
};

/** Verdict for one admission attempt. */
enum class AdmissionVerdict {
    Admit,      ///< predicted p99 within target (or no target/diagnosis)
    EvictLower, ///< over target; room can be made below this priority
    Shed,       ///< over target; nothing lower-priority to evict
};

/** Predicts per-class p99 and decides admit / evict / shed. */
class AdmissionController
{
  public:
    explicit AdmissionController(AdmissionConfig cfg);

    const AdmissionConfig &config() const { return cfg_; }
    size_t classCount() const { return classes_.size(); }
    const SloClass &classAt(size_t id) const;
    /** Class id of workload @p workload_index (0 when unmapped). */
    size_t classOf(size_t workload_index) const;

    /** Record one observed service time for @p class_id (worker-side,
     *  after execution). */
    void recordService(size_t class_id, double ms);

    /**
     * Predicted end-to-end p99 (ms) for a class-@p class_id request
     * admitted behind @p queue_depth queued jobs on a queue drained by
     * @p workers workers: (depth + 1) / workers * mean_service +
     * service_p99. Returns 0 while the class lacks both min_samples
     * and a prior — "no prediction", which always admits.
     */
    double predictedP99Ms(size_t class_id, size_t queue_depth,
                          size_t workers) const;

    /**
     * The admission decision for one incoming request.
     * @p lowest_queued_priority is the minimum priority currently in
     * the server's queue (meaningful only when
     * @p queue_nonempty). Always Admit when disabled or the class has
     * no p99 target.
     */
    AdmissionVerdict decide(size_t class_id, size_t queue_depth,
                            size_t workers, bool queue_nonempty,
                            u32 lowest_queued_priority) const;

  private:
    struct ClassState
    {
        obs::Histogram service; // observed service times (ms)
    };

    const AdmissionConfig cfg_;
    std::vector<SloClass> classes_; // cfg classes, defaulted if empty
    mutable std::mutex m_;
    std::vector<ClassState> state_;
};

} // namespace ark
