/**
 * @file
 * Reference kernels the tests and bench_micro_kernels compare the
 * shipped ones against. None of them runs on a program's path, so
 * they live in ark_test_support rather than in ark_core, and they
 * read only the public table accessors of the classes they mirror.
 *
 *  - The strict NTT pair: fully-reduced Cooley-Tukey / Gentleman-Sande
 *    butterflies, the transforms the Harvey lazy ones
 *    (NttTables::forward / inverse) and the vector tables must match
 *    word for word.
 *  - The two-stage BConv: the scale stage materialized as a whole
 *    polynomial, then a limb-strided MAC with the original 128-bit
 *    correction loop for its Barrett reduce, which the fused tile
 *    (KernelBackend::bconv) must match word for word.
 *  - The dense slot-matrix product and matrix composition the
 *    homomorphic linear transforms are checked against.
 */

#pragma once

#include <vector>

#include "boot/linear_transform.h"
#include "rns/bconv.h"
#include "rns/ntt.h"

namespace ark::ref {

/** In-place forward negacyclic NTT with strict butterflies. */
void nttForwardStrict(const NttTables &tables, u64 *data);

/** In-place inverse negacyclic NTT with strict butterflies, then a
 *  strict 1/N scaling pass. */
void nttInverseStrict(const NttTables &tables, u64 *data);

/** BConv of @p in (Coeff rep over bc.inBase()) as two materialized
 *  stages: scale every limb by phat_j^-1, then the base-table MAC. */
RnsPoly bconvTwoStage(const BaseConverter &bc, const RnsPoly &in);

/** Dense product m * v on the slot space. */
std::vector<Complex> slotMatrixApply(const SlotMatrix &m,
                                     const std::vector<Complex> &v);

/** Dense product a * b of two slot matrices. */
SlotMatrix slotMatrixMultiply(const SlotMatrix &a, const SlotMatrix &b);

} // namespace ark::ref
