#include "rns/primes.h"

#include <algorithm>

#include "common/logging.h"
#include "common/math_util.h"

namespace ark {

namespace {

bool
contains(const std::vector<u64> &v, u64 x)
{
    return std::find(v.begin(), v.end(), x) != v.end();
}

/** Largest candidate = 1 mod @p step below 2^@p bits. */
u64
firstCandidateBelow(int bits, u64 step)
{
    ARK_ASSERT(bits >= 20 && bits <= 61, "prime size out of range");
    const u64 top = 1ULL << bits;
    u64 down = (top / step) * step + 1;
    if (down >= top)
        down -= step;
    return down;
}

} // namespace

std::vector<u64>
generatePrimes(int bits, size_t count, size_t degree,
               const std::vector<u64> &skip)
{
    ARK_ASSERT(isPowerOfTwo(degree), "degree must be a power of two");

    const u64 step = 2 * static_cast<u64>(degree);
    std::vector<u64> primes;
    primes.reserve(count);

    // Start just below 2^bits at the largest candidate = 1 mod 2N and
    // alternate scanning downward then upward so generated primes stay
    // balanced around 2^bits (keeps the CKKS scale drift small).
    u64 down = firstCandidateBelow(bits, step);
    u64 up = down + step;

    bool go_down = true;
    while (primes.size() < count) {
        u64 cand;
        if (go_down) {
            cand = down;
            down -= step;
        } else {
            cand = up;
            up += step;
        }
        go_down = !go_down;
        if (cand < (1ULL << (bits - 1)))
            ARK_FATAL("ran out of prime candidates at this bit size");
        if (isPrime(cand) && !contains(skip, cand) &&
            !contains(primes, cand)) {
            primes.push_back(cand);
        }
    }
    return primes;
}

std::vector<u64>
generatePrimesBelow(int bits, size_t count, size_t degree,
                    const std::vector<u64> &skip)
{
    ARK_ASSERT(isPowerOfTwo(degree), "degree must be a power of two");
    const u64 step = 2 * static_cast<u64>(degree);
    std::vector<u64> primes;
    primes.reserve(count);
    for (u64 cand = firstCandidateBelow(bits, step); primes.size() < count;
         cand -= step) {
        if (cand < (1ULL << (bits - 1)))
            ARK_FATAL("ran out of prime candidates at this bit size");
        if (isPrime(cand) && !contains(skip, cand))
            primes.push_back(cand);
    }
    return primes;
}

u64
generateFirstPrime(int bits, size_t degree)
{
    return generatePrimes(bits, 1, degree).front();
}

} // namespace ark
