/**
 * @file
 * Plaintext store with on-the-fly limb extension (OF-Limb).
 *
 * Paper Section IV-B: the plaintexts multiplied into ciphertexts during
 * H-(I)DFT (and any PMult-heavy workload) are precomputed polynomials
 * whose (l+1) limbs are all derived from one integer coefficient
 * vector. OF-Limb stores only the q0-limb in the coefficient
 * representation and regenerates the other limbs at use time:
 *
 *     [Pm']_C = { NTT(center([Pm']_{q0}) mod q_i) }_{q_i in C}   (Eq. 12)
 *
 * (centering the q0 residue first, since plaintext coefficients are
 * signed values of magnitude << q0). This cuts the stored/loaded bytes
 * to 1/(l+1) at the price of l extra NTTs — exactly the compute/traffic
 * trade ARK's NTTU throughput absorbs.
 *
 * Two ways to consume a stored plaintext: get() materializes it as a
 * Plaintext (the one-off MulPlain of a serving op list), while the
 * BSGS transforms hand stored() straight to
 * KernelBackend::plainMulSum, which generates each OF-Limb limb in
 * per-job scratch and feeds it from the NTT into the MAC, as ARK's
 * NTTU feeds its MADUs — no plaintext is ever materialized there.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "ckks/context.h"
#include "ckks/encoder.h"

namespace ark {

/** How plaintext operands are materialized. */
enum class PlaintextMode {
    Full,   ///< all limbs precomputed and stored (baseline)
    OFLimb, ///< q0-limb stored; others generated on the fly
};

/** A bank of encoded plaintexts for one HE kernel. */
class PlaintextStore
{
  public:
    PlaintextStore(const CkksContext &ctx, PlaintextMode mode)
        : ctx_(ctx), mode_(mode)
    {
    }

    PlaintextMode mode() const { return mode_; }

    /**
     * Insert a plaintext (already encoded at the level it will be used
     * at). In OFLimb mode only the q0-limb is retained.
     */
    size_t insert(const Plaintext &pt);

    /** Materialize plaintext @p idx with @p level + 1 limbs. */
    Plaintext get(size_t idx, int level) const;

    /**
     * Plaintext @p idx as stored, the pt of a PlainMulTerm: the full
     * Eval-rep poly (Full) or the Coeff-rep q0 limb (OFLimb).
     */
    const RnsPoly &stored(size_t idx) const;

    size_t size() const { return entries_.size(); }

    /** Bytes held (the off-chip footprint of the plaintext bank). */
    size_t storedBytes() const;

  private:
    struct Entry
    {
        /** Full mode: complete Eval-rep poly. OFLimb: one coeff-rep
         *  q0 limb. */
        RnsPoly poly;
        double scale;
        int level; ///< level the plaintext was encoded at (Full mode)
    };

    const CkksContext &ctx_;
    PlaintextMode mode_;
    std::vector<Entry> entries_;
};

} // namespace ark
