#include "serve/workload.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "workloads/programs.h"

namespace ark {

size_t
ServeWorkload::levelsNeeded() const
{
    size_t levels = 0;
    for (const auto &op : ops)
        levels += op.kind == ServeOpKind::Rescale;
    return levels;
}

std::vector<i64>
ServeWorkload::rotationAmounts() const
{
    std::vector<i64> amts;
    for (const auto &op : ops) {
        if (op.kind != ServeOpKind::Rotate)
            continue;
        if (std::find(amts.begin(), amts.end(), op.rotation) ==
            amts.end())
            amts.push_back(op.rotation);
    }
    return amts;
}

std::vector<i64>
ServeWorkload::evkSignature() const
{
    std::vector<i64> sig = rotationAmounts();
    std::sort(sig.begin(), sig.end());
    return sig;
}

std::vector<size_t>
clusterAdmissionOrder(const std::vector<ServeWorkload> &workloads,
                      const std::vector<size_t> &request_workloads)
{
    // Number each signature by its first appearance in the batch, so
    // the order depends only on the batch, not on where a workload
    // sits in the server's workload list.
    std::map<std::vector<i64>, size_t> group_of_sig;
    std::vector<size_t> group_of(request_workloads.size());
    for (size_t i = 0; i < group_of.size(); ++i) {
        const size_t wi = request_workloads[i];
        ARK_ASSERT(wi < workloads.size(),
                   "request references unknown workload");
        group_of[i] = group_of_sig
                          .emplace(workloads[wi].evkSignature(),
                                   group_of_sig.size())
                          .first->second;
    }
    std::vector<size_t> order(group_of.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                         return group_of[a] < group_of[b];
                     });
    return order;
}

u64
ciphertextChecksum(const Ciphertext &ct)
{
    u64 h = 14695981039346656037ull; // FNV-1a offset basis
    auto mix = [&h](u64 v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    for (const RnsPoly *p : {&ct.b, &ct.a}) {
        for (size_t l = 0; l < p->numLimbs(); ++l) {
            const u64 *w = p->limb(l);
            for (size_t i = 0; i < p->degree(); ++i)
                mix(w[i]);
        }
    }
    mix(static_cast<u64>(ct.level()));
    return h;
}

ServeWorkload
lowerProgram(const SimProgram &prog, int start_level, size_t slots,
             const LowerOptions &opt)
{
    ServeWorkload w;
    w.name = prog.name;

    const size_t max_rot =
        std::max<size_t>(1, std::min(opt.max_rotation_keys,
                                     slots > 1 ? slots - 1 : 1));
    int level = start_level;
    size_t pt_counter = 0;

    for (const SimOp &op : prog.ops) {
        if (w.ops.size() + 2 > opt.max_ops)
            break;
        switch (op.kind) {
          case SimOpKind::KeySwitch:
            if (op.evk_id == 0) {
                // The shared evk_mult: an HMult. Pair it with a
                // rescale so the scale stays near Delta.
                if (level < 1)
                    return w;
                w.ops.push_back({ServeOpKind::Square, 0, 0, 0});
                w.ops.push_back({ServeOpKind::Rescale, 0, 0, 0});
                --level;
            } else {
                // A rotation evk: fold the trace's evk identity onto
                // the bounded amount set deterministically.
                const i64 amt =
                    1 + static_cast<i64>(
                            static_cast<u64>(op.evk_id) % max_rot);
                w.ops.push_back({ServeOpKind::Rotate, amt, 0, 0});
            }
            break;
          case SimOpKind::PMult:
            if (level < 1)
                return w;
            w.ops.push_back(
                {ServeOpKind::MulPlain, 0, pt_counter++, 0});
            w.ops.push_back({ServeOpKind::Rescale, 0, 0, 0});
            --level;
            break;
          case SimOpKind::Elementwise:
            w.ops.push_back({ServeOpKind::AddScalar, 0, 0, 0.25});
            break;
          case SimOpKind::Rescale:
            // Rescales are re-inserted next to each multiplicative op
            // during lowering; the trace's standalone ones would
            // double-spend the small test-parameter level budget.
            break;
          case SimOpKind::ModRaise:
            // Serving inputs are already at the top level.
            break;
        }
    }
    return w;
}

std::vector<ServeWorkload>
standardServingMix(const CkksParams &params, const LowerOptions &opt)
{
    // Traces are generated at the paper's full parameter set (the
    // generators assume a bootstrappable level schedule); lowering
    // then re-budgets the op walk onto the *execution* parameters'
    // levels and slots. Only the trace's op mix and evk-identity
    // structure survive, which is exactly what serving exercises.
    //
    // The walk spends a level on every Square and MulPlain and stops
    // when they run out. The first ResNet layer or sorting round
    // already holds more multiplicative ops than any preset has
    // levels, so only that much is generated, not the full traces
    // (21340 and 304200 ops, ~17 MiB per call).
    const CkksParams trace_p = CkksParams::ark();
    const int level = params.max_level;
    const size_t slots = params.num_slots;
    std::vector<ServeWorkload> mix;
    mix.push_back(lowerProgram(
        bootstrapProgram(trace_p, KeySchedule::MinKS), level, slots,
        opt));
    mix.push_back(
        lowerProgram(helrProgram(trace_p, KeySchedule::MinKS), level,
                     slots, opt));
    mix.push_back(lowerProgram(
        resnetProgram(trace_p, KeySchedule::MinKS, /*layers=*/1), level,
        slots, opt));
    mix.push_back(lowerProgram(
        sortingProgram(trace_p, KeySchedule::MinKS, /*rounds=*/1), level,
        slots, opt));
    for (size_t i = 0; i < mix.size(); ++i)
        mix[i].input_index = i;
    return mix;
}

} // namespace ark
