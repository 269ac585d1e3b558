/**
 * @file
 * Wire serialization of the CKKS payload types: parameter sets,
 * polynomials, ciphertexts, and evaluation keys — the frame *bodies*
 * of docs/wire_format.md §5 (the envelope lives in wire/wire_format.h,
 * the transport in net/).
 *
 * Readers validate every shape field against the receiving context
 * (degree, limb counts, digit counts, representation flags), every
 * residue against its limb's modulus, and every scale for being
 * finite and positive, and throw WireError(BadField) on anything
 * inconsistent — a malformed peer can never construct an out-of-shape
 * polynomial or hand the kernels a non-canonical word. Evaluation
 * keys ship seed-compressed when the key carries an `a_seed`
 * (§6): the uniform `a` halves are omitted and re-expanded by the
 * reader via expandSeededEvkA, cutting key-transfer
 * bytes roughly in half (asserted >= 1.9x in tests/test_wire_format).
 */

#pragma once

#include "ckks/context.h"
#include "ckks/keys.h"
#include "wire/wire_format.h"

namespace ark {

/**
 * §3: FNV-1a 64 over the LE serialization of the parameter set's ten
 * scheme-defining numeric fields (degree .. boot_levels, in the §5.3
 * field order). The name and the host-local execution knobs (backend,
 * backend_threads) are excluded: two hosts running the same scheme
 * parameters agree on the hash regardless of how they execute.
 */
u64 paramsHash(const CkksParams &p);

/** §5.3 PARAMS body. */
void writeParams(ByteWriter &w, const CkksParams &p);
CkksParams readParams(ByteReader &r);

/** §4 `poly` encoding. Validation on read: degree must equal
 *  @p expect_degree, limb count in [1, @p moduli.size()], rep flag 1
 *  (Eval, the only representation a §5 body carries), and every word
 *  of limb l below moduli[l] — canonical residues, checked in the
 *  same pass as the copy. */
void writePoly(ByteWriter &w, const RnsPoly &p);
RnsPoly readPoly(ByteReader &r, size_t expect_degree,
                 const std::vector<Modulus> &moduli);

/** §5.11 CIPHERTEXT body (also embedded in SUBMIT §5.12 and
 *  RESPONSE §5.13). */
void writeCiphertext(ByteWriter &w, const Ciphertext &ct);
Ciphertext readCiphertext(ByteReader &r, const CkksContext &ctx);

/** §5.7 EVAL_KEY purpose discriminator. */
enum class EvalKeyPurpose : u8 {
    Multiplication = 0,
    Galois = 1,
};

/**
 * §5.7 EVAL_KEY body: purpose + Galois element (0 for mult) + the key
 * itself, seed-compressed when key.seeded (§6). The reader re-expands
 * the `a` halves from the seed, so the returned key is always fully
 * materialized and bit-identical to the sender's.
 */
void writeEvalKey(ByteWriter &w, EvalKeyPurpose purpose,
                  u64 galois_elt, const EvalKey &key);
struct WireEvalKey
{
    EvalKeyPurpose purpose = EvalKeyPurpose::Multiplication;
    u64 galois_elt = 0;
    EvalKey key;
};
WireEvalKey readEvalKey(ByteReader &r, const CkksContext &ctx);

} // namespace ark
