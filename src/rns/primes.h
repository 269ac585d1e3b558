/**
 * @file
 * Generation of NTT-friendly RNS primes.
 *
 * CKKS needs primes q with q = 1 (mod 2N) so that Z_q contains a
 * primitive 2N-th root of unity (negacyclic NTT), and with q close to
 * the scale Delta so HRescale keeps the scale stable (Section II-C of
 * the paper). We generate candidates of the form k*2N + 1 scanning
 * downward/upward from 2^bits, or downward only where a prime must
 * stay below 2^bits.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"

namespace ark {

/**
 * Generate @p count distinct NTT-friendly primes of roughly
 * @p bits bits for ring degree @p degree (primes = 1 mod 2*degree).
 *
 * The scan alternates below and above 2^bits, so the primes stay
 * balanced around 2^bits: the q_i limbs (bits ~= log2(Delta)) need
 * that, since every rescale divides by one of them.
 *
 * @param skip primes already in use that must not be duplicated.
 */
std::vector<u64> generatePrimes(int bits, size_t count, size_t degree,
                                const std::vector<u64> &skip = {});

/**
 * The @p count largest NTT-friendly primes below 2^@p bits for ring
 * degree @p degree, largest first, none of them in @p skip. Used for
 * the special p_j limbs: only their product P matters, and staying
 * below 2^60 keeps them on the vector NTT bodies.
 */
std::vector<u64> generatePrimesBelow(int bits, size_t count, size_t degree,
                                     const std::vector<u64> &skip = {});

/**
 * Generate the first prime q0 for CKKS: a prime = 1 mod 2*degree of
 * @p bits bits (q0 is usually bigger than the scale primes to leave
 * room for the message magnitude).
 */
u64 generateFirstPrime(int bits, size_t degree);

} // namespace ark
