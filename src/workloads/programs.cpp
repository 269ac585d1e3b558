#include "workloads/programs.h"

#include "common/logging.h"
#include "common/math_util.h"

namespace ark {

namespace {

/** Emit one H-(I)DFT per its plan; returns the level after it. */
int
appendHdft(SimProgram &prog, EvkIds &ids, KeySchedule sched,
           const HdftPlan &plan, const char *tag)
{
    int level = 0;
    for (const auto &it : plan.iterations) {
        level = it.level;
        // Rotation key identities per schedule (Fig. 1).
        int baby_id = ids.fresh();
        int giant_id = ids.fresh();
        int pre_id = sched == KeySchedule::MinimalKS ? ids.fresh() : -1;
        size_t emitted = 0;
        if (sched == KeySchedule::MinimalKS && it.hrots > 0) {
            prog.ops.push_back(
                {SimOpKind::KeySwitch, level, pre_id, true, tag});
            ++emitted;
        }
        // Emit the *unhoisted* BSGS program order: each giant-step
        // rotation directly follows the baby-step segment it consumes,
        // so baby- and giant-key uses alternate through the phase.
        // (Hoisting — issuing every baby rotation up front so each key
        // is fetched once — is a schedule-time transformation; the
        // graph scheduler's EvkCluster policy recovers it from the
        // dependence graph, which is the point of emitting the natural
        // order here.) The per-key use counts and the distinct-key set
        // are unchanged from the clustered emission: the baby key
        // still covers trace positions [emitted, hrots/2), the giant
        // key the rest — only the issue order interleaves.
        size_t babies =
            it.hrots / 2 > emitted ? it.hrots / 2 - emitted : 0;
        size_t giants = it.hrots - emitted - babies;
        for (size_t k = 0; emitted < it.hrots; ++emitted, ++k) {
            int id;
            if (sched == KeySchedule::Baseline) {
                id = ids.fresh(); // every rotation its own evk
            } else if (k % 2 == 0 ? babies > 0 : giants == 0) {
                id = baby_id;
                --babies;
            } else {
                id = giant_id;
                --giants;
            }
            prog.ops.push_back(
                {SimOpKind::KeySwitch, level, id, true, tag});
        }
        for (size_t m = 0; m < it.pmults; ++m)
            prog.ops.push_back({SimOpKind::PMult, level, -1, true, tag});
        prog.ops.push_back({SimOpKind::Rescale, level, -1, true, tag});
    }
    return level - 1;
}

/** EvalMod on both coefficient branches (paper Section II-D). */
int
appendEvalMod(SimProgram &prog, EvkIds &ids, int top_level,
              const char *tag)
{
    // Models the paper's sin/cos EvalMod: angle scaling, BSGS power
    // basis (5 mults), 3 group products, and 8 double-angle steps with
    // two mults each, on the u and v branches; the single evk_mult is
    // shared by every multiplication (inter-operation key reuse that
    // exists even before Min-KS). The host's src/boot/evalmod.cpp
    // differs: it evaluates exp(i*y) with one squaring per step. The
    // simulator and the lowered serve trace keep the paper's sequence.
    int lv = top_level;
    for (int branch = 0; branch < 2; ++branch) {
        int b = top_level;
        auto mult = [&](int level) {
            prog.ops.push_back(
                {SimOpKind::KeySwitch, level, ids.mult(), true, tag});
            prog.ops.push_back(
                {SimOpKind::Rescale, level, -1, true, tag});
        };
        mult(b--);              // angle scaling (scalar, still rescales)
        for (int i = 0; i < 5; ++i)
            mult(b--);          // power basis y^2..y^12
        for (int i = 0; i < 3; ++i)
            prog.ops.push_back(
                {SimOpKind::KeySwitch, b, ids.mult(), true, tag});
        prog.ops.push_back({SimOpKind::Rescale, b, -1, true, tag});
        prog.ops.push_back({SimOpKind::Rescale, b - 1, -1, true, tag});
        b -= 2;
        for (int d = 0; d < 8; ++d) {
            mult(b);
            prog.ops.push_back(
                {SimOpKind::KeySwitch, b, ids.mult(), true, tag});
            --b;
        }
        lv = b;
    }
    prog.ops.push_back({SimOpKind::Elementwise, lv, -1, true, tag});
    return lv;
}

} // namespace

void
appendBootstrap(SimProgram &prog, EvkIds &ids, KeySchedule sched,
                size_t slots)
{
    const CkksParams &p = prog.params;
    const int L = p.max_level;

    prog.ops.push_back({SimOpKind::ModRaise, L, -1, true, "boot"});

    // SubSum for sparse packing.
    const size_t half = p.degree / 2;
    for (size_t amt = slots; amt < half; amt <<= 1) {
        prog.ops.push_back(
            {SimOpKind::KeySwitch, L, ids.fresh(), true, "subsum"});
        prog.ops.push_back(
            {SimOpKind::Elementwise, L, -1, true, "subsum"});
    }

    CkksParams sparse = p;
    sparse.num_slots = slots;
    HdftPlan hidft = HdftPlan::make(sparse, true, L);
    int lv = appendHdft(prog, ids, sched, hidft, "h-idft");

    // Conjugate split.
    prog.ops.push_back(
        {SimOpKind::KeySwitch, lv, ids.fresh(), true, "conj"});

    lv = appendEvalMod(prog, ids, lv, "evalmod");

    HdftPlan hdft = HdftPlan::make(sparse, false, lv);
    appendHdft(prog, ids, sched, hdft, "h-dft");
}

SimProgram
bootstrapProgram(const CkksParams &p, KeySchedule sched, size_t slots)
{
    SimProgram prog;
    prog.name = "bootstrap";
    prog.params = p;
    if (slots == 0)
        slots = p.num_slots;
    EvkIds ids;
    appendBootstrap(prog, ids, sched, slots);
    return prog;
}

SimProgram
helrProgram(const CkksParams &p, KeySchedule sched, int iterations)
{
    // One HELR iteration (Han et al. [43]): mini-batch of 1024 14x14
    // images; the gradient step performs inner products across the
    // batch (rotations whose amounts do NOT form an arithmetic
    // progression -> every rotation needs its own evk regardless of
    // schedule) plus sigmoid-polynomial HMults, then a sparse
    // bootstrap on n = 256 slots.
    SimProgram prog;
    prog.name = "HELR";
    prog.params = p;
    EvkIds ids;

    for (int iter = 0; iter < iterations; ++iter) {
        // Gradient + sigmoid update: levels walk down 8..1.
        for (int step = 0; step < 8; ++step) {
            const int lv = 8 - step;
            for (int r = 0; r < 6; ++r) {
                // Batch-reduction rotations: irregular amounts.
                prog.ops.push_back({SimOpKind::KeySwitch, lv,
                                    ids.fresh(), true, "helr-rot"});
            }
            for (int m = 0; m < 3; ++m) {
                prog.ops.push_back({SimOpKind::KeySwitch, lv, ids.mult(),
                                    true, "helr-mult"});
            }
            for (int m = 0; m < 4; ++m) {
                // Weight/feature plaintexts; OF-Limb applies.
                prog.ops.push_back(
                    {SimOpKind::PMult, lv, -1, true, "helr-pmult"});
            }
            prog.ops.push_back(
                {SimOpKind::Rescale, lv, -1, true, "helr"});
        }
        appendBootstrap(prog, ids, sched, 256);
    }
    return prog;
}

SimProgram
resnetProgram(const CkksParams &p, KeySchedule sched)
{
    // ResNet-20 (Lee et al. [64]): 19 convolution layers + FC, each
    // followed by a high-degree ReLU approximation that forces a
    // bootstrap. Multiplexed parallel convolution performs rotations
    // with arithmetic-progression amounts (Min-KS applies) and weight
    // PMults (OF-Limb applies).
    SimProgram prog;
    prog.name = "ResNet-20";
    prog.params = p;
    EvkIds ids;

    for (int layer = 0; layer < 20; ++layer) {
        // Convolution at mid levels: 3x3 kernel over multiplexed
        // channels -> ~36 rotations in arithmetic progression, emitted
        // in the natural tap-walk order: two in-row steps (baby key,
        // stride +-1) then a row crossing (giant key, stride +-W), so
        // baby- and giant-key uses interleave 2:1 through the layer.
        // EvkCluster re-groups them at schedule time (see appendHdft).
        int conv_baby = ids.fresh();
        int conv_giant = ids.fresh();
        for (int r = 0; r < 36; ++r) {
            int id;
            if (sched == KeySchedule::Baseline)
                id = ids.fresh();
            else
                id = r % 3 < 2 ? conv_baby : conv_giant;
            prog.ops.push_back(
                {SimOpKind::KeySwitch, 6, id, true, "conv-rot"});
        }
        for (int m = 0; m < 36; ++m)
            prog.ops.push_back(
                {SimOpKind::PMult, 6, -1, true, "conv-weights"});
        prog.ops.push_back({SimOpKind::Rescale, 6, -1, true, "conv"});
        // The composite ReLU approximation exhausts the level budget
        // twice per layer (Lee et al. use two bootstraps around the
        // high-degree minimax composition).
        appendBootstrap(prog, ids, sched, p.degree / 2);
        appendBootstrap(prog, ids, sched, p.degree / 2);
        // Part of the ReLU composite evaluation outside bootstrap.
        for (int m = 0; m < 10; ++m) {
            prog.ops.push_back({SimOpKind::KeySwitch, 7 - m % 4,
                                ids.mult(), true, "relu"});
            prog.ops.push_back(
                {SimOpKind::Rescale, 7 - m % 4, -1, true, "relu"});
        }
    }
    return prog;
}

SimProgram
sortingProgram(const CkksParams &p, KeySchedule sched)
{
    // k-way sorting network (Hong et al. [47]) on a full vector:
    // O(log^2) rounds of polynomial comparators; each comparator is a
    // deep HMult chain that exhausts the levels, so every round
    // bootstraps. The paper reports 15.6 s on BTS / 1.99 s on ARK for
    // the full sort; the op mix below reproduces the bootstrap-bound
    // profile (~2x speedup from the algorithms, Fig. 7b).
    SimProgram prog;
    prog.name = "sorting";
    prog.params = p;
    EvkIds ids;

    const int rounds = 60; // 5-way network over 2^15 elements
    for (int round = 0; round < rounds; ++round) {
        for (int boot = 0; boot < 10; ++boot) {
            // Comparator polynomial segments between bootstraps.
            for (int m = 0; m < 8; ++m) {
                int lv = 8 - m % 8;
                prog.ops.push_back({SimOpKind::KeySwitch, lv, ids.mult(),
                                    true, "cmp-mult"});
                prog.ops.push_back(
                    {SimOpKind::Rescale, lv, -1, true, "cmp"});
            }
            for (int r = 0; r < 2; ++r) {
                prog.ops.push_back({SimOpKind::KeySwitch, 6, ids.fresh(),
                                    true, "cmp-rot"});
            }
            for (int m = 0; m < 2; ++m) {
                prog.ops.push_back(
                    {SimOpKind::PMult, 6, -1, true, "cmp-pmult"});
            }
            appendBootstrap(prog, ids, sched, p.degree / 2);
        }
    }
    return prog;
}

} // namespace ark
