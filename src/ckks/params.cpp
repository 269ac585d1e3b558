#include "ckks/params.h"

namespace ark {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

} // namespace

double
CkksParams::plaintextMiB() const
{
    return static_cast<double>((max_level + 1) * degree * word_bytes) /
           kMiB;
}

double
CkksParams::ciphertextMiB() const
{
    return 2.0 * plaintextMiB();
}

double
CkksParams::evkMiB() const
{
    const size_t limbs = static_cast<size_t>(alpha() + max_level + 1);
    return static_cast<double>(2 * dnum * limbs * degree * word_bytes) /
           kMiB;
}

CkksParams
CkksParams::ark()
{
    CkksParams p;
    p.name = "ARK";
    p.degree = 1ULL << 16;
    p.num_slots = 1ULL << 15;
    p.max_level = 23;
    p.dnum = 4;
    p.log_q0 = 60;
    p.log_scale = 48; // error-resilient large primes for bootstrapping
    p.log_special = 60;
    p.boot_levels = 15;
    p.hamming_weight = 192;
    return p;
}

CkksParams
CkksParams::lattigo()
{
    CkksParams p;
    p.name = "Lattigo";
    p.degree = 1ULL << 16;
    p.num_slots = 1ULL << 15;
    p.max_level = 24;
    p.dnum = 5;
    p.log_q0 = 60;
    p.log_scale = 45;
    p.log_special = 60;
    p.boot_levels = 15;
    p.hamming_weight = 192;
    return p;
}

CkksParams
CkksParams::hundredX()
{
    CkksParams p;
    p.name = "100x";
    p.degree = 1ULL << 17;
    p.num_slots = 1ULL << 16;
    p.max_level = 29;
    p.dnum = 3;
    p.log_q0 = 60;
    p.log_scale = 50;
    p.log_special = 60;
    p.boot_levels = 19;
    p.hamming_weight = 64;
    return p;
}

CkksParams
CkksParams::f1()
{
    CkksParams p;
    p.name = "F1";
    p.degree = 1ULL << 14;
    p.num_slots = 1; // F1 only supports single-slot bootstrapping
    p.max_level = 15;
    p.dnum = 16;
    p.log_q0 = 32;
    p.log_scale = 24;
    p.log_special = 32;
    p.word_bytes = 4; // 32-bit machine words
    p.boot_levels = 0;
    p.hamming_weight = 64;
    return p;
}

CkksParams
CkksParams::testTiny()
{
    CkksParams p;
    p.name = "test-tiny";
    p.degree = 1ULL << 10;
    p.num_slots = 1ULL << 9;
    p.max_level = 3;
    p.dnum = 2;
    p.log_q0 = 60;
    p.log_scale = 40;
    p.log_special = 60;
    p.hamming_weight = 64;
    return p;
}

CkksParams
CkksParams::testSmall()
{
    CkksParams p;
    p.name = "test-small";
    p.degree = 1ULL << 11;
    p.num_slots = 1ULL << 10;
    p.max_level = 7;
    p.dnum = 4;
    p.log_q0 = 60;
    p.log_scale = 40;
    p.log_special = 60;
    p.hamming_weight = 64;
    return p;
}

CkksParams
CkksParams::testBoot()
{
    // A toy bootstrappable set: enough levels for ModRaise + a shallow
    // homomorphic (I)DFT + EvalMod at low degree. Not secure; exists to
    // execute the full bootstrap pipeline functionally.
    CkksParams p;
    p.name = "test-boot";
    p.degree = 1ULL << 12;
    p.num_slots = 1ULL << 8; // n = N/16: sparse, SubSum factor 8
    p.max_level = 20;
    p.dnum = 3;
    p.log_q0 = 60;
    p.log_scale = 42;
    // Seven special primes below 2^50 give P ~ 2^350 against a largest
    // digit Q_0 ~ 2^312, and keep every key-switch limb but q0 on the
    // IFMA kernel bodies. The other presets keep 60 bits: at 50, P
    // would barely cover their digits.
    p.log_special = 50;
    p.boot_levels = 16;
    // Very sparse secret so the ModRaise overflow I stays small enough
    // for the toy EvalMod range (|I'| <= 8 * (h+1)/2 after SubSum).
    p.hamming_weight = 4;
    return p;
}

} // namespace ark
