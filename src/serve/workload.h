/**
 * @file
 * Executable serving workloads: the request payloads the BatchServer
 * schedules across its workers.
 *
 * A ServeWorkload is a short, deterministic sequence of primitive HE
 * ops executed by a CkksEvaluator against a pre-encrypted input
 * ciphertext. Workloads are *lowered* from the same SimProgram traces
 * the ARK simulator consumes (workloads/programs.h: bootstrapping,
 * HELR, ResNet, sorting), so the op mix, rotation structure, and
 * mult/rotation ratio a request exercises match the published
 * workloads — while staying executable at the small functional-test
 * parameter sets a host can serve at interactive rates.
 *
 * Lowering manages the level budget explicitly (a trace emitted for
 * L = 30-ish accelerator parameters must still execute at L = 3 test
 * parameters): every multiplicative op is paired with a rescale, the
 * walk stops when levels run out, and rotation amounts are folded onto
 * a small deterministic set so the evk working set stays bounded (the
 * Min-KS discipline applied to serving).
 */

#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckks/context.h"
#include "sim/program.h"

namespace ark {

class KeyCache;

/** Primitive ops a serving request executes. */
enum class ServeOpKind {
    Square,    ///< HMult with itself through evk_mult
    Rescale,   ///< drop one level (always follows a multiplicative op)
    Rotate,    ///< HRot by `rotation` slots through a cached evk
    MulPlain,  ///< PMult with a PlaintextStore entry (OF-Limb eligible)
    AddScalar, ///< CAdd (cheap elementwise filler between key switches)
};

/** One executable op instance. */
struct ServeOp
{
    ServeOpKind kind = ServeOpKind::AddScalar;
    i64 rotation = 0;    ///< Rotate only
    size_t pt_index = 0; ///< MulPlain only (mod store size at use)
    double scalar = 0;   ///< AddScalar only
};

/** A named executable op sequence (the request payload). */
struct ServeWorkload
{
    std::string name;
    std::vector<ServeOp> ops;
    /** Which pre-encrypted input template to start from (mod the
     *  server's input count). */
    size_t input_index = 0;

    /** Levels a request consumes end to end (one per Rescale). */
    size_t levelsNeeded() const;
    /** Distinct rotation amounts referenced (the evk working set). */
    std::vector<i64> rotationAmounts() const;
    /**
     * The canonical evk signature: rotationAmounts() sorted — what
     * clusterAdmissionOrder keys on to decide which workloads share a
     * working set.
     */
    std::vector<i64> evkSignature() const;
};

/**
 * Admission order for a batch (BatchServer::submitBatch): a
 * permutation of [0, n) over @p request_workloads (the workload index
 * of each request) that runs requests with identical evkSignature()
 * back to back, so adjacent requests reuse the hot evk material
 * instead of alternating working sets. Groups keep first-appearance
 * order and requests keep FCFS order within a group, so the sort is
 * stable and deterministic. Each request is a pure function of fixed
 * key material, so its result does not depend on this order.
 */
std::vector<size_t>
clusterAdmissionOrder(const std::vector<ServeWorkload> &workloads,
                      const std::vector<size_t> &request_workloads);

/** One admitted request: a workload instance with an identity. */
struct ServeRequest
{
    u64 id = 0;
    size_t workload_index = 0;
    /**
     * Remote-tenant input: when set, execution starts from this
     * ciphertext instead of the server's pre-encrypted template for
     * the workload (the SUBMIT frame's payload,
     * docs/wire_format.md §5.12). shared_ptr because the job is moved
     * through the queue while the session thread may still hold it.
     */
    std::shared_ptr<Ciphertext> input;
    /**
     * Remote-tenant key material: when set, execution resolves evks
     * from this uploaded-mode cache instead of the server's own.
     * Borrowed, never owned — the WireServer session owning the
     * tenant keeps it alive until its last submit completes. Null for
     * in-process requests.
     */
    KeyCache *tenant_keys = nullptr;
};

/** Machine-readable failure class of a request (ServeResult::error
 *  carries the human-readable detail). The network front-end maps
 *  these 1:1 onto wire error codes (docs/wire_format.md §7). */
enum class ServeErrorKind {
    None = 0,       ///< request succeeded
    LevelExhausted, ///< level budget ran out mid-workload
    MissingKey,     ///< tenant never uploaded a referenced evk
    Other,          ///< anything else (wire code EXEC_FAILED)
    Shed,           ///< SLO admission shed it (wire code SHED,
                    ///< retryable — the client should back off)
    DeadlineExceeded, ///< client deadline expired before execution
                      ///< started (wire code DEADLINE_EXCEEDED,
                      ///< retryable — the work was never done)
    DrainRefused,     ///< queued at graceful drain, never started
                      ///< (wire code SERVER_SHUTDOWN, fatal)
};

/** Thrown by request execution when the level budget runs out —
 *  typed so the wire layer can report LEVEL_EXHAUSTED rather than a
 *  generic execution failure. */
class LevelExhaustedError : public std::runtime_error
{
  public:
    explicit LevelExhaustedError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Outcome of one request. */
struct ServeResult
{
    u64 id = 0;
    bool ok = false;
    std::string error;
    /** Failure class for typed error reporting (None when ok). */
    ServeErrorKind error_kind = ServeErrorKind::None;
    /** FNV-1a digest over the output ciphertext's limbs and level —
     *  cheap bit-exact identity for parity tests. */
    u64 checksum = 0;
    int final_level = -1;
    size_t he_ops = 0; ///< primitive ops executed
    double latency_ms = 0;
    /** The output ciphertext itself, populated only for remote
     *  requests (ServeRequest::input set) — in-process callers key on
     *  the checksum and skip the copy. */
    std::shared_ptr<Ciphertext> output;
};

/** FNV-1a digest of a ciphertext (both polys, word-at-a-time). */
u64 ciphertextChecksum(const Ciphertext &ct);

/** Lowering knobs. */
struct LowerOptions
{
    /** Op cap per request: keeps a request's service time in the
     *  interactive range at test parameters. */
    size_t max_ops = 48;
    /** Distinct rotation amounts the lowered workload may reference;
     *  trace evk ids fold onto [1, max_rotation_keys]. */
    size_t max_rotation_keys = 8;
};

/**
 * Lower a simulator program trace to an executable workload for a
 * context with @p start_level usable levels and @p slots slots.
 * Deterministic: the same trace and options produce the same ops.
 */
ServeWorkload lowerProgram(const SimProgram &prog, int start_level,
                           size_t slots, const LowerOptions &opt = {});

/**
 * The standard serving mix: the four paper workloads (bootstrap, HELR,
 * ResNet-20, sorting) lowered for @p params, with input templates
 * spread round-robin.
 */
std::vector<ServeWorkload> standardServingMix(const CkksParams &params,
                                              const LowerOptions &opt = {});

} // namespace ark
