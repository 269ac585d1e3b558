/**
 * @file
 * Workload program generators for the ARK simulator.
 *
 * Each generator emits the primitive-HE-op trace of a published
 * workload with the op counts, level schedule, rotation structure, and
 * evk-identity pattern that determine accelerator behaviour:
 *
 *  - bootstrapProgram: full CKKS bootstrapping (paper Section II-D):
 *    ModRaise, SubSum (sparse slots), H-IDFT (Alg. 3 BSGS), EvalMod,
 *    H-DFT. The key schedule controls how many distinct evks the
 *    H-(I)DFT rotations reference.
 *  - helrProgram: one HELR iteration (Han et al.): mini-batch logistic
 *    regression update (rotations with non-arithmetic amounts that
 *    Min-KS cannot cover) + sparse-slot bootstrapping (n = 256).
 *  - resnetProgram: ResNet-20 inference (Lee et al.): multiplexed
 *    parallel convolutions (arithmetic-progression rotations + weight
 *    PMults, both Min-KS/OF-Limb eligible) dominated by bootstrapping.
 *  - sortingProgram: k-way sorting network (Hong et al.): deep
 *    polynomial comparator evaluations with frequent bootstrapping.
 *
 * The paper's MNIST/CIFAR inputs are not needed: accelerator timing
 * depends on the op sequence, not plaintext values (see DESIGN.md).
 */

#pragma once

#include "core/hdft_plan.h"
#include "sim/program.h"

namespace ark {

/** Shared evk-id allocator so programs compose. */
class EvkIds
{
  public:
    int fresh() { return next_++; }
    int mult() { return 0; } ///< the single evk_mult

  private:
    int next_ = 1;
};

/** Append a full bootstrap of @p slots slots to @p prog. */
void appendBootstrap(SimProgram &prog, EvkIds &ids, KeySchedule sched,
                     size_t slots);

SimProgram bootstrapProgram(const CkksParams &p, KeySchedule sched,
                            size_t slots = 0);

SimProgram helrProgram(const CkksParams &p, KeySchedule sched,
                       int iterations = 1);

/** ResNet-20 inference; @p layers < 20 emits only the first layers. */
SimProgram resnetProgram(const CkksParams &p, KeySchedule sched,
                         int layers = 20);

/** The sorting network; @p rounds < 60 emits only the first rounds. */
SimProgram sortingProgram(const CkksParams &p, KeySchedule sched,
                          int rounds = 60);

} // namespace ark
