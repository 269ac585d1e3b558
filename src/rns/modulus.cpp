#include "rns/modulus.h"

#include "common/logging.h"

namespace ark {

Modulus::Modulus(u64 q) : q_(q)
{
    ARK_ASSERT(q >= 2, "modulus must be >= 2");
    ARK_ASSERT(q < (1ULL << 62), "modulus must fit in 62 bits");
    u64 v = q;
    while (v > 0) {
        ++bits_;
        v >>= 1;
    }
    // floor(2^128 / q) computed by long division of 2^128 by q.
    // 2^128 / q = (2^64 / q) << 64 + ((2^64 mod q) << 64) / q.
    u64 quot_hi = (~0ULL) / q; // floor((2^64 - 1) / q) == floor(2^64/q)
    // Careful: floor(2^64 / q) equals floor((2^64 - 1)/q) unless q | 2^64,
    // impossible for odd prime q > 2.
    u128 rem = (static_cast<u128>(1) << 64) - static_cast<u128>(quot_hi) * q;
    u128 lo = (rem << 64) / q;
    barrett_hi_ = quot_hi;
    barrett_lo_ = static_cast<u64>(lo);
    barrett52_ =
        static_cast<u64>((static_cast<u128>(1) << (bits_ + 50)) / q);
    u128 pow = 1;
    for (int e = 0; e < 3; ++e) {
        pow52_[e] = static_cast<u64>(pow % q);
        pow52_shoup_[e] =
            static_cast<u64>((static_cast<u128>(pow52_[e]) << 52) / q);
        pow = static_cast<u128>(pow52_[e]) << 52;
    }
}

} // namespace ark
