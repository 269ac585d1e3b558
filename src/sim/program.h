/**
 * @file
 * HE-program intermediate representation consumed by the ARK cycle
 * simulator.
 *
 * HE applications have no dynamic control flow (paper Section VI), so
 * a program is a linear sequence of primitive-HE-op descriptors. Each
 * descriptor carries the information the machine model needs: the
 * multiplicative level (sets limb counts and hence FU work), the evk
 * identity (sets off-chip traffic through scratchpad residency — the
 * lever Min-KS pulls), and plaintext operand mode (the lever OF-Limb
 * pulls).
 */

#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "ckks/params.h"

namespace ark {

/** Kinds of schedulable HE ops. */
enum class SimOpKind {
    KeySwitch,   ///< HRot / HMult core (dominant cost)
    PMult,       ///< plaintext multiply (streams a plaintext operand)
    Elementwise, ///< HAdd / CAdd / CMult / automorphism-only
    Rescale,
    ModRaise,
};

/** One primitive HE op instance. */
struct SimOp
{
    SimOpKind kind = SimOpKind::Elementwise;
    int level = 0;
    /**
     * Identity of the evk this op consumes (KeySwitch only). Ops that
     * reuse an id hit in the scratchpad; unique ids force HBM streams.
     * -1 means no evk.
     */
    int evk_id = -1;
    /** PMult only: whether this plaintext participates in OF-Limb. */
    bool of_limb_eligible = true;
    /**
     * Human-readable phase label ("h-idft", "conv-rot", ...).
     *
     * Lifetime contract: the view is non-owning. The workload
     * generators point it at string literals (static storage, always
     * safe); any other producer must keep the referenced storage
     * alive for as long as the op — or any HeGraph/ScheduledProgram
     * node copied from it — is in use.
     * Copying a SimOp copies the view, not the characters.
     */
    std::string_view tag = "";
};

/** A whole workload. */
struct SimProgram
{
    std::string name;
    CkksParams params;
    std::vector<SimOp> ops;

    size_t count(SimOpKind k) const
    {
        size_t c = 0;
        for (const auto &op : ops)
            c += op.kind == k;
        return c;
    }
};

} // namespace ark
