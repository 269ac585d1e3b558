#include "ckks/context.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "rns/primes.h"

namespace ark {

PrimeChains
primeChains(const CkksParams &params)
{
    // q0 is generated at log_q0 bits and q1..qL balanced around the
    // scale, since rescale divides by them. The special primes are the
    // largest below 2^log_special: only their product P matters (the
    // CkksContext constructor checks that it covers every digit), and
    // at log_special <= 60 every one of them stays below the vector NTT
    // bodies' 2^60 bound.
    const size_t n = params.degree;
    PrimeChains chains;
    chains.q.push_back(generateFirstPrime(params.log_q0, n));
    const auto scale_primes =
        generatePrimes(params.log_scale, params.max_level, n, chains.q);
    chains.q.insert(chains.q.end(), scale_primes.begin(),
                    scale_primes.end());
    chains.p = generatePrimesBelow(params.log_special, params.alpha(), n,
                                   chains.q);
    return chains;
}

CkksContext::CkksContext(CkksParams params)
    : params_(std::move(params)),
      backend_(makeKernelBackend(
          backendKindFromEnv(params_.backend),
          backendThreadsFromEnv(params_.backend_threads)))
{
    const size_t n = params_.degree;
    const int L = params_.max_level;
    const int a = params_.alpha();
    ARK_ASSERT((L + 1) % params_.dnum == 0,
               "dnum must divide L + 1 (paper Table I)");

    const PrimeChains chains = primeChains(params_);
    // ModDown divides the key-switch error, which grows with the digit
    // Q_j being switched, by P. P must exceed the largest digit by
    // kSpecialMarginBits, or that error reaches the message: at
    // testSmall, special primes below 2^50 (P ~ Q_0) lost 4-5 bits.
    double log_p = 0;
    for (u64 p : chains.p)
        log_p += std::log2(static_cast<double>(p));
    double log_digit = 0;
    for (int d = 0; d < params_.dnum; ++d) {
        double log_q = 0;
        for (int j = d * a; j < (d + 1) * a; ++j)
            log_q += std::log2(static_cast<double>(chains.q[j]));
        log_digit = std::max(log_digit, log_q);
    }
    ARK_ASSERT(log_p >= log_digit + kSpecialMarginBits,
               "the special primes' product P must exceed the largest "
               "digit Q_j by kSpecialMarginBits bits");
    for (u64 q : chains.q) {
        q_moduli_.emplace_back(q);
        q_tables_.emplace_back(n, Modulus(q));
    }
    for (u64 p : chains.p) {
        p_moduli_.emplace_back(p);
        p_tables_.emplace_back(n, Modulus(p));
    }

    // Gadget constants for generalized key-switching (Alg. 2):
    // g_i = (Q / Q_i) * [(Q / Q_i)^{-1}]_{Q_i} mod every prime of D.
    // mod q in C_i this is 1; mod q in C \ C_i it is 0; mod the special
    // primes it is a full product.
    gadget_.resize(params_.dnum);
    for (int d = 0; d < params_.dnum; ++d) {
        auto &g = gadget_[d];
        g.resize(q_moduli_.size() + p_moduli_.size());

        const size_t digit_lo = static_cast<size_t>(d) * a;
        const size_t digit_hi = digit_lo + a;

        // For each target modulus m: compute Qhat_d mod m (product of q
        // primes outside the digit) and multiply by the CRT inverse
        // factor per digit prime. We need [Qhat_d^{-1}]_{Q_d} as an
        // integer mod Q_d, which we carry in RNS over the digit primes
        // and recombine with the digit CRT:
        //   g_d = sum_{j in digit} Qhat_d * qhat_j * c_j  with
        //   c_j = [(Qhat_d * qhat_j)^{-1}]_{q_j},
        // where qhat_j = Q_d / q_j. Each summand is a pure integer we
        // can reduce mod m factor-by-factor.
        auto add_all = [&](auto &&fn) {
            for (size_t m = 0; m < g.size(); ++m) {
                const Modulus &mod = m < q_moduli_.size()
                                         ? q_moduli_[m]
                                         : p_moduli_[m - q_moduli_.size()];
                g[m] = fn(mod);
            }
        };

        add_all([&](const Modulus &mod) {
            u64 acc = 0;
            for (size_t j = digit_lo; j < digit_hi; ++j) {
                // c_j = inverse mod q_j of (prod of all q primes != q_j).
                const Modulus &qj = q_moduli_[j];
                u64 prod_mod_qj = 1;
                for (size_t k = 0; k < q_moduli_.size(); ++k) {
                    if (k != j)
                        prod_mod_qj = qj.mul(
                            prod_mod_qj, q_moduli_[k].value() % qj.value());
                }
                u64 cj = qj.inv(prod_mod_qj);
                // term = (prod of all q primes != q_j) * c_j mod m.
                u64 term = cj % mod.value();
                for (size_t k = 0; k < q_moduli_.size(); ++k) {
                    if (k != j)
                        term = mod.mul(term,
                                       q_moduli_[k].value() % mod.value());
                }
                acc = mod.add(acc, term);
            }
            return acc;
        });
    }

    // P mod q_i and P^{-1} mod q_i.
    p_mod_q_.resize(q_moduli_.size());
    p_inv_mod_q_.resize(q_moduli_.size());
    for (size_t i = 0; i < q_moduli_.size(); ++i) {
        const Modulus &qi = q_moduli_[i];
        u64 pm = 1;
        for (const auto &p : p_moduli_)
            pm = qi.mul(pm, p.value() % qi.value());
        p_mod_q_[i] = pm;
        p_inv_mod_q_[i] = qi.inv(pm);
    }

    // Rescale constants: q_level^{-1} mod q_i.
    q_last_inv_.resize(L + 1);
    for (int lv = 1; lv <= L; ++lv) {
        q_last_inv_[lv].resize(lv);
        for (int i = 0; i < lv; ++i) {
            const Modulus &qi = q_moduli_[i];
            q_last_inv_[lv][i] =
                qi.inv(q_moduli_[lv].value() % qi.value());
        }
    }

    // Per-level key-switch tables, built here so the hot path reads
    // them without a lock.
    for (size_t count = 0; count <= q_tables_.size(); ++count) {
        auto &ptrs = q_table_ptrs_.emplace_back(count);
        for (size_t l = 0; l < count; ++l)
            ptrs[l] = &q_tables_[l];
    }
    for (int lv = 0; lv <= L; ++lv) {
        const size_t nq = static_cast<size_t>(lv) + 1;
        auto &ptrs = key_table_ptrs_.emplace_back(nq + p_tables_.size());
        for (size_t l = 0; l < ptrs.size(); ++l)
            ptrs[l] = &keyTable(l, lv);

        // Digit d converts its primes q_[lo, hi) to every other prime
        // of the extended basis.
        auto &digits = digit_bconv_.emplace_back();
        for (int d = 0; d < numDigits(lv); ++d) {
            const size_t lo = static_cast<size_t>(d * a);
            const size_t hi = std::min(lo + static_cast<size_t>(a), nq);
            std::vector<Modulus> out_base(q_moduli_.begin(),
                                          q_moduli_.begin() + lo);
            out_base.insert(out_base.end(), q_moduli_.begin() + hi,
                            q_moduli_.begin() + nq);
            out_base.insert(out_base.end(), p_moduli_.begin(),
                            p_moduli_.end());
            digits.emplace_back(
                std::vector<Modulus>(q_moduli_.begin() + lo,
                                     q_moduli_.begin() + hi),
                std::move(out_base));
        }
        moddown_bconv_.emplace_back(p_moduli_, levelModuli(lv));
    }
}

std::vector<Modulus>
CkksContext::levelModuli(int level) const
{
    ARK_ASSERT(level >= 0 && level <= maxLevel(), "bad level");
    return {q_moduli_.begin(), q_moduli_.begin() + level + 1};
}

std::vector<Modulus>
CkksContext::keyModuli(int level) const
{
    auto v = levelModuli(level);
    v.insert(v.end(), p_moduli_.begin(), p_moduli_.end());
    return v;
}

const NttTables &
CkksContext::keyTable(size_t limb, int level) const
{
    const size_t nq = static_cast<size_t>(level) + 1;
    if (limb < nq)
        return q_tables_[limb];
    return p_tables_[limb - nq];
}

int
CkksContext::numDigits(int level) const
{
    return (level + alpha()) / alpha(); // ceil((level+1)/alpha)
}

const Automorphism &
CkksContext::automorphism(u64 galois_elt) const
{
    std::lock_guard<std::mutex> lk(cache_m_);
    auto it = auto_cache_.find(galois_elt);
    if (it == auto_cache_.end()) {
        it = auto_cache_
                 .emplace(galois_elt, std::make_unique<Automorphism>(
                                          galois_elt, params_.degree))
                 .first;
    }
    return *it->second;
}

const std::vector<const NttTables *> &
CkksContext::qTablePtrs(size_t count) const
{
    ARK_ASSERT(count < q_table_ptrs_.size(), "not enough q tables");
    return q_table_ptrs_[count];
}

const std::vector<const NttTables *> &
CkksContext::keyTablePtrs(int level) const
{
    ARK_ASSERT(level >= 0 && level <= maxLevel(), "bad level");
    return key_table_ptrs_[static_cast<size_t>(level)];
}

const BaseConverter &
CkksContext::digitConverter(int level, int digit) const
{
    ARK_ASSERT(level >= 0 && level <= maxLevel(), "bad level");
    ARK_ASSERT(digit >= 0 && digit < numDigits(level),
               "digit out of range for this level");
    return digit_bconv_[static_cast<size_t>(level)]
                       [static_cast<size_t>(digit)];
}

const BaseConverter &
CkksContext::modDownConverter(int level) const
{
    ARK_ASSERT(level >= 0 && level <= maxLevel(), "bad level");
    return moddown_bconv_[static_cast<size_t>(level)];
}

void
CkksContext::keyNttForward(RnsPoly &p, int level) const
{
    backend().nttForward(p, keyTablePtrs(level));
}

} // namespace ark
