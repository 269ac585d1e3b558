#include "common/math_util.h"

#include <cmath>

#include "common/logging.h"

namespace ark {

u64
powMod(u64 a, u64 e, u64 m)
{
    u64 r = 1 % m;
    a %= m;
    while (e > 0) {
        if (e & 1)
            r = mulMod(r, a, m);
        a = mulMod(a, a, m);
        e >>= 1;
    }
    return r;
}

u64
invMod(u64 a, u64 m)
{
    // Extended Euclid on signed 128-bit to avoid overflow.
    i128 t = 0, new_t = 1;
    i128 r = m, new_r = a % m;
    while (new_r != 0) {
        i128 q = r / new_r;
        i128 tmp = t - q * new_t;
        t = new_t;
        new_t = tmp;
        tmp = r - q * new_r;
        r = new_r;
        new_r = tmp;
    }
    ARK_ASSERT(r == 1, "invMod: arguments are not coprime");
    if (t < 0)
        t += m;
    return static_cast<u64>(t);
}

bool
isPrime(u64 n)
{
    if (n < 2)
        return false;
    for (u64 p : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull,
                  23ull, 29ull, 31ull, 37ull}) {
        if (n % p == 0)
            return n == p;
    }
    u64 d = n - 1;
    int s = 0;
    while ((d & 1) == 0) {
        d >>= 1;
        ++s;
    }
    // This witness set is deterministic for all 64-bit integers.
    for (u64 a : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull,
                  23ull, 29ull, 31ull, 37ull}) {
        u64 x = powMod(a, d, n);
        if (x == 1 || x == n - 1)
            continue;
        bool composite = true;
        for (int i = 0; i < s - 1; ++i) {
            x = mulMod(x, x, n);
            if (x == n - 1) {
                composite = false;
                break;
            }
        }
        if (composite)
            return false;
    }
    return true;
}

u64
primitiveRoot(u64 p)
{
    ARK_ASSERT(isPrime(p), "primitiveRoot requires a prime modulus");
    u64 phi = p - 1;
    // Factor phi by trial division, called once per prime at setup. NTT
    // primes have phi = 2^k * m, and m is often a large prime, so the
    // division stops as soon as the cofactor left is prime: it is then
    // the last distinct factor, found without dividing up to its root.
    std::vector<u64> factors;
    u64 n = phi;
    for (u64 f = 2; f * f <= n; ++f) {
        if (n % f == 0) {
            factors.push_back(f);
            while (n % f == 0)
                n /= f;
            if (isPrime(n))
                break;
        }
    }
    if (n > 1)
        factors.push_back(n);

    for (u64 g = 2; g < p; ++g) {
        bool ok = true;
        for (u64 f : factors) {
            if (powMod(g, phi / f, p) == 1) {
                ok = false;
                break;
            }
        }
        if (ok)
            return g;
    }
    ARK_PANIC("no primitive root found");
}

u64
rootOfUnity(u64 order, u64 p)
{
    ARK_ASSERT((p - 1) % order == 0, "order must divide p - 1");
    u64 g = primitiveRoot(p);
    return powMod(g, (p - 1) / order, p);
}

i128
roundToI128(long double x)
{
    bool neg = x < 0;
    if (neg)
        x = -x;
    ARK_ASSERT(x < 0x1p95L, "roundToI128: value out of range");
    const long double c32 = 4294967296.0L; // 2^32
    long double hi = std::floor(x / (c32 * c32));
    long double rem = x - hi * (c32 * c32);
    long double mid = std::floor(rem / c32);
    long double lo = rem - mid * c32;
    i128 r = (static_cast<i128>(static_cast<u64>(hi)) << 64) +
             (static_cast<i128>(static_cast<u64>(mid)) << 32) +
             static_cast<i128>(std::llroundl(lo));
    return neg ? -r : r;
}

} // namespace ark
