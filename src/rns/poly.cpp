#include "rns/poly.h"

#include "common/logging.h"

namespace ark {

RnsPoly::RnsPoly(size_t degree, size_t num_limbs, Rep rep)
    : degree_(degree), num_limbs_(num_limbs), rep_(rep),
      data_(degree * num_limbs, 0)
{
    ARK_ASSERT(isPowerOfTwo(degree), "degree must be a power of two");
}

RnsPoly::RnsPoly(std::vector<u64> &&buf, size_t degree, size_t num_limbs,
                 Rep rep)
    : degree_(degree), num_limbs_(num_limbs), rep_(rep),
      data_(std::move(buf))
{
    ARK_ASSERT(isPowerOfTwo(degree), "degree must be a power of two");
    // A recycled buffer arrives at exactly this size (the pool keys on
    // (degree, limbs)), making this a no-op that preserves its stale
    // contents; a fresh buffer is empty and value-initializes.
    data_.resize(degree * num_limbs);
}

std::vector<u64>
RnsPoly::takeBuffer() &&
{
    degree_ = 0;
    num_limbs_ = 0;
    return std::move(data_);
}

void
RnsPoly::resizeLimbs(size_t keep)
{
    ARK_ASSERT(keep <= num_limbs_, "cannot grow with resizeLimbs");
    num_limbs_ = keep;
    data_.resize(keep * degree_);
}

RnsPoly
polyFromSigned(const std::vector<i64> &coeffs,
               const std::vector<Modulus> &moduli)
{
    RnsPoly p(coeffs.size(), moduli.size(), Rep::Coeff);
    for (size_t l = 0; l < moduli.size(); ++l) {
        const u64 q = moduli[l].value();
        u64 *pl = p.limb(l);
        for (size_t i = 0; i < coeffs.size(); ++i) {
            i64 c = coeffs[i];
            pl[i] = c >= 0 ? static_cast<u64>(c) % q
                           : q - (static_cast<u64>(-c) % q);
        }
    }
    return p;
}

} // namespace ark
