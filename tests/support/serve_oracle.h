/**
 * @file
 * Value-level oracle for served requests: the cleartext a response
 * should decrypt to, and how many bits of it a decryption matched.
 */

#pragma once

#include <vector>

#include "ckks/encoder.h"
#include "serve/workload.h"

namespace ark::ref {

/**
 * Cleartext replay of @p w on the slot message @p msg, op for op as
 * BatchServer::execute runs it: Square squares every slot, Rescale
 * leaves the message unchanged, Rotate shifts slots left by the
 * rotation amount, MulPlain multiplies by plaintexts[pt_index mod
 * plaintexts.size()] and AddScalar adds the scalar to every slot.
 */
std::vector<Complex>
replayServeWorkload(const ServeWorkload &w, std::vector<Complex> msg,
                    const std::vector<std::vector<Complex>> &plaintexts);

/** -log2 of the largest slot error of @p got against @p want (64 when
 *  exact; 0 on a length mismatch or a non-finite error). */
double precisionBits(const std::vector<Complex> &got,
                     const std::vector<Complex> &want);

} // namespace ark::ref
