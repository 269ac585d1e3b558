#include "boot/plaintext_store.h"

#include <algorithm>

#include "common/logging.h"
#include "rns/backend.h"

namespace ark {

size_t
PlaintextStore::insert(const Plaintext &pt)
{
    Entry e;
    e.scale = pt.scale;
    e.level = pt.level;
    if (mode_ == PlaintextMode::Full) {
        e.poly = pt.poly;
    } else {
        // Keep only the q0-limb, in the coefficient representation.
        RnsPoly coeff = pt.poly;
        if (coeff.rep() == Rep::Eval)
            ctx_.backend().nttInverse(coeff, ctx_.qTables());
        e.poly = RnsPoly(ctx_.degree(), 1, Rep::Coeff);
        std::copy(coeff.limb(0), coeff.limb(0) + ctx_.degree(),
                  e.poly.limb(0));
    }
    entries_.push_back(std::move(e));
    return entries_.size() - 1;
}

Plaintext
PlaintextStore::get(size_t idx, int level) const
{
    ARK_ASSERT(idx < entries_.size(), "plaintext index out of range");
    const Entry &e = entries_[idx];
    KernelBackend &kb = ctx_.backend();
    Plaintext pt;
    pt.scale = e.scale;
    pt.level = level;

    if (mode_ == PlaintextMode::Full) {
        ARK_ASSERT(level <= e.level,
                   "full-mode plaintext stored at a lower level");
        pt.poly = e.poly;
        pt.poly.resizeLimbs(level + 1); // ModDown is free limb dropping
        // Full-mode plaintexts stream every limb from storage.
        kb.notePlaintextWords(static_cast<u64>(level + 1) *
                              ctx_.degree());
        return pt;
    }

    // OF-Limb extension (Eq. 12): center the q0 residue and reduce it
    // into every current limb, then NTT each generated limb. Only the
    // stored q0 limb streams from storage; the rest is runtime data
    // generation.
    const size_t n = ctx_.degree();
    kb.notePlaintextWords(n);
    std::vector<u64> src(e.poly.limb(0), e.poly.limb(0) + n);
    pt.poly = RnsPoly(n, level + 1, Rep::Coeff);
    kb.limbEmbed(src, ctx_.qModuli()[0], ctx_.qModuli(), pt.poly);
    kb.nttForward(pt.poly, ctx_.qTables());
    return pt;
}

const RnsPoly &
PlaintextStore::stored(size_t idx) const
{
    ARK_ASSERT(idx < entries_.size(), "plaintext index out of range");
    return entries_[idx].poly;
}

size_t
PlaintextStore::storedBytes() const
{
    size_t total = 0;
    for (const auto &e : entries_)
        total += e.poly.byteSize();
    return total;
}

} // namespace ark
