/**
 * @file
 * RNS polynomial: the (limbs x N) word matrix at the heart of CKKS.
 *
 * A polynomial in R_Q = Z_Q[X]/(X^N + 1) is stored as one row ("limb",
 * paper Table I) per RNS prime, each row holding N words. A
 * representation flag tracks whether rows hold coefficients or NTT
 * evaluations; the limb-level kernels (rns/backend.h) check it so
 * that, e.g., a pointwise multiply on coefficient-representation data
 * is caught immediately instead of producing silent garbage.
 */

#pragma once

#include <cstddef>

#include <vector>

#include "rns/modulus.h"

namespace ark {

/** Which domain the limb data lives in. */
enum class Rep { Coeff, Eval };

/** A polynomial in RNS form: numLimbs() rows of degree() words. */
class RnsPoly
{
  public:
    RnsPoly() = default;
    RnsPoly(size_t degree, size_t num_limbs, Rep rep);

    size_t degree() const { return degree_; }
    size_t numLimbs() const { return num_limbs_; }
    Rep rep() const { return rep_; }
    void setRep(Rep rep) { rep_ = rep; }

    u64 *limb(size_t i) { return data_.data() + i * degree_; }
    const u64 *limb(size_t i) const { return data_.data() + i * degree_; }

    /** Drop limbs beyond @p keep (HRescale / ModDown bookkeeping). */
    void resizeLimbs(size_t keep);

    bool sameShape(const RnsPoly &o) const
    {
        return degree_ == o.degree_ && num_limbs_ == o.num_limbs_;
    }

    /** Size of the polynomial in bytes (8 bytes per word). */
    size_t byteSize() const { return data_.size() * sizeof(u64); }

  private:
    /**
     * PolyPool (rns/poly_pool.h) constructs polys over recycled
     * backing buffers without the zero-fill of the public constructor
     * and harvests the buffer back on release; no other caller may
     * adopt a buffer, because skipping the zero-fill is only safe for
     * temporaries every word of which is overwritten before being
     * read.
     */
    friend class PolyPool;

    /** Adopt @p buf as backing storage (contents left as-is beyond a
     *  resize to the exact word count — NOT zeroed when recycled). */
    RnsPoly(std::vector<u64> &&buf, size_t degree, size_t num_limbs,
            Rep rep);

    /** Surrender the backing buffer, leaving an empty poly. */
    std::vector<u64> takeBuffer() &&;

    size_t degree_ = 0;
    size_t num_limbs_ = 0;
    Rep rep_ = Rep::Coeff;
    std::vector<u64> data_;
};

/**
 * Lift a vector of signed coefficients into RNS form (Coeff rep):
 * limb i holds coeffs mod q_i.
 */
RnsPoly polyFromSigned(const std::vector<i64> &coeffs,
                       const std::vector<Modulus> &moduli);

} // namespace ark
