#include "graph/builder.h"

namespace ark {

namespace {

void
addEdge(HeGraph &g, size_t from, size_t to)
{
    g.nodes[to].preds.push_back(from);
    g.nodes[from].succs.push_back(to);
}

bool
isBarrier(const SimOp &op)
{
    return op.kind == SimOpKind::Rescale ||
           op.kind == SimOpKind::ModRaise ||
           op.kind == SimOpKind::Elementwise;
}

} // namespace

HeGraph
liftProgram(const SimProgram &prog)
{
    HeGraph g;
    g.name = prog.name;
    g.params = prog.params;
    g.nodes.resize(prog.ops.size());
    for (size_t i = 0; i < prog.ops.size(); ++i) {
        g.nodes[i].op = prog.ops[i];
        g.nodes[i].index = i;
    }

    // Phase state: the barrier that opened the current phase (if any),
    // the phase's member ops so far, and the tail of the in-phase
    // mult-key chain.
    bool have_barrier = false;
    size_t barrier = 0;
    std::vector<size_t> phase_members;
    bool have_mult_tail = false;
    size_t mult_tail = 0;

    for (size_t i = 0; i < prog.ops.size(); ++i) {
        const SimOp &op = prog.ops[i];
        if (isBarrier(op)) {
            // The barrier joins everything since the previous barrier
            // (or chains directly on it when the phase is empty).
            if (phase_members.empty()) {
                if (have_barrier)
                    addEdge(g, barrier, i);
            } else {
                for (size_t m : phase_members)
                    addEdge(g, m, i);
            }
            have_barrier = true;
            barrier = i;
            phase_members.clear();
            have_mult_tail = false;
            continue;
        }

        // Non-barrier op: anchored on the phase-opening barrier.
        if (have_barrier)
            addEdge(g, barrier, i);
        if (op.kind == SimOpKind::KeySwitch && op.evk_id == 0) {
            // Mult-key switches form a serial multiplicative chain.
            if (have_mult_tail)
                addEdge(g, mult_tail, i);
            have_mult_tail = true;
            mult_tail = i;
        }
        phase_members.push_back(i);
    }
    return g;
}

} // namespace ark
