/**
 * @file
 * The builder that lifts a simulator trace into the `HeGraph`
 * dependence IR.
 *
 * `liftProgram` keeps phase-granular dependence. A trace is cut into
 * accumulation phases at its barrier ops (Rescale, ModRaise,
 * Elementwise joins); within a phase, rotation key switches and
 * plaintext multiplies are independent siblings (BSGS babies/giants of
 * a common input, diagonal plaintexts joined only by the phase
 * barrier) while mult-key switches chain (a multiplicative depth chain
 * is inherently serial). This over-approximates slot-level dataflow
 * but preserves exactly the structure the machine model prices: per-op
 * level, evk identity, and operand streams.
 */

#pragma once

#include "graph/he_graph.h"

namespace ark {

/** Lift a simulator trace. Node i corresponds to prog.ops[i]; the
 *  graph borrows the trace's tags (string_view into static storage or
 *  @p prog's lifetime — see SimOp::tag). */
HeGraph liftProgram(const SimProgram &prog);

} // namespace ark
