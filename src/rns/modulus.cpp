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

u64
Modulus::reduceReference(u128 x) const
{
    // Pre-PR correction tail: compare-and-subtract on the full
    // 128-bit remainder estimate. Kept verbatim for the reference
    // kernels; reduce() (modulus.h) does the same correction in one
    // word.
    u64 x_lo = static_cast<u64>(x);
    u64 x_hi = static_cast<u64>(x >> 64);
    u128 lo_lo = static_cast<u128>(x_lo) * barrett_lo_;
    u128 lo_hi = static_cast<u128>(x_lo) * barrett_hi_;
    u128 hi_lo = static_cast<u128>(x_hi) * barrett_lo_;
    u128 hi_hi = static_cast<u128>(x_hi) * barrett_hi_;
    u128 mid = (lo_lo >> 64) + static_cast<u64>(lo_hi) +
               static_cast<u64>(hi_lo);
    u128 q_est = hi_hi + (lo_hi >> 64) + (hi_lo >> 64) + (mid >> 64);
    u128 r = x - q_est * q_;
    while (r >= q_)
        r -= q_;
    return static_cast<u64>(r);
}

} // namespace ark
