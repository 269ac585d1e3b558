#!/usr/bin/env python3
"""Unit tests for check_simd_isa.scan() on synthetic objdump lines.

Run directly (python3 scripts/test_check_simd_isa.py) or via CTest
(test_check_simd_isa, label unit).
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in scripts/
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from check_simd_isa import scan  # noqa: E402

NS = "ark::(anonymous namespace)::"
AVX512_SHOUP = (f"0000000000001000 <void {NS}avx512::nttForward<"
                f"{NS}avx512::Shoup64>(unsigned long*, "
                "ark::NttTables const&)>:")
AVX512_IFMA = (f"0000000000002000 <void {NS}avx512::nttForward<"
               f"{NS}avx512::Ifma52>(unsigned long*, "
               "ark::NttTables const&)>:")
AVX2_MUL_EVAL = (f"0000000000003000 <void {NS}avx2::mulEvalLimb<"
                 f"{NS}avx2::Shoup64>(ark::Modulus const&, "
                 "unsigned long const*, unsigned long const*, "
                 "unsigned long*, unsigned long)>:")
BCONV_ARGS = ("(ark::BaseConverter const&, ark::RnsPoly const&, "
              "unsigned long, unsigned long, unsigned long*, "
              "ark::RnsPoly&)>:")
BCONV_SHOUP = (f"0000000000005000 <void {NS}avx512::bconvTile<"
               f"{NS}avx512::Shoup64>{BCONV_ARGS}")
BCONV_IFMA = (f"0000000000006000 <void {NS}avx512::bconvTile<"
              f"{NS}avx512::Ifma52>{BCONV_ARGS}")
PLAIN_ARGS = ("(ark::Modulus const&, unsigned long const* const*, "
              "unsigned long const* const*, unsigned long const* const*, "
              "unsigned long, unsigned long*, unsigned long*, "
              "unsigned long)>:")
PLAIN_SHOUP = (f"0000000000007000 <void {NS}avx512::plainMulSumLimb<"
               f"{NS}avx512::Shoup64>{PLAIN_ARGS}")
PLAIN_IFMA = (f"0000000000008000 <void {NS}avx512::plainMulSumLimb<"
              f"{NS}avx512::Ifma52>{PLAIN_ARGS}")
EMBED_ARGS = ("(ark::Modulus const&, unsigned long const*, unsigned long, "
              "unsigned long*, unsigned long)>:")
EMBED_SHOUP = (f"0000000000009000 <void {NS}avx512::limbEmbed<"
               f"{NS}avx512::Shoup64>{EMBED_ARGS}")
EMBED_IFMA = (f"000000000000a000 <void {NS}avx512::limbEmbed<"
              f"{NS}avx512::Ifma52>{EMBED_ARGS}")
VEC4_CSUB = (f"0000000000004000 <{NS}Vec4::csub(long long "
             "__vector(4), long long __vector(4))>:")


def name(header):
    """The demangled function name of an objdump header line."""
    return header[header.index("<") + 1:-2]


def insn(text):
    return f"    1234:\t{text}"


def listing(avx2_body, shoup_body=(), vec4_body=()):
    return ([AVX512_SHOUP]
            + [insn(t) for t in ("vpmullq %zmm1,%zmm2,%zmm3",
                                 "vpcmpnltuq %zmm3,%zmm0,%k1",
                                 "vpsubq %zmm3,%zmm0,%zmm2{%k1}")]
            + [insn(t) for t in shoup_body]
            + ["", AVX512_IFMA]
            + [insn(t) for t in ("vpmadd52luq %zmm1,%zmm2,%zmm3",
                                 "vpmadd52huq %zmm1,%zmm2,%zmm4")]
            + ["", AVX2_MUL_EVAL]
            + [insn(t) for t in ("vpmuludq %ymm1,%ymm2,%ymm3",
                                 "vpcmpgtq %ymm12,%ymm4,%ymm14",
                                 "vmovdqu %ymm4,(%rcx,%rdx,8)")]
            + [insn(t) for t in avx2_body]
            + (["", VEC4_CSUB] + [insn(t) for t in vec4_body]
               if vec4_body else []))


class ScanTest(unittest.TestCase):
    def test_clean_listing_passes(self):
        stray, total = scan(listing(avx2_body=("ret",)))
        self.assertEqual(stray, {})
        self.assertEqual(total, 2)

    def test_ifma_outside_ifma_tier_fails(self):
        stray, total = scan(listing(
            avx2_body=(), shoup_body=("vpmadd52luq %zmm1,%zmm2,%zmm3",)))
        self.assertEqual(stray, {name(AVX512_SHOUP): 1})
        self.assertEqual(total, 3)

    def test_zmm_in_lane4_function_fails(self):
        stray, _ = scan(listing(
            avx2_body=("vpaddq %zmm1,%zmm2,%zmm3",
                       "vpaddq %ymm1,%ymm2,%ymm3")))
        self.assertEqual(stray, {name(AVX2_MUL_EVAL): 1})

    def test_mask_and_evex_registers_in_lane4_primitive_fail(self):
        stray, _ = scan(listing(
            avx2_body=(),
            vec4_body=("vpcmpuq $0x5,%ymm1,%ymm0,%k1",
                       "vpsubq %ymm17,%ymm0,%ymm0",
                       "vpmadd52luq %ymm1,%ymm2,%ymm3")))
        self.assertEqual(stray, {name(VEC4_CSUB): 3})

    def test_bconv_tile_follows_its_policy(self):
        madd = insn("vpmadd52huq %zmm1,%zmm2,%zmm3")
        stray, total = scan([BCONV_SHOUP, madd, "", BCONV_IFMA, madd])
        self.assertEqual(stray, {name(BCONV_SHOUP): 1})
        self.assertEqual(total, 2)
        stray, _ = scan([BCONV_IFMA, madd,
                         insn("vpmullq %zmm1,%zmm2,%zmm3")])
        self.assertEqual(stray, {})

    def test_plain_mac_and_embed_follow_their_policy(self):
        madd = insn("vpmadd52luq %zmm1,%zmm2,%zmm3")
        for shoup, ifma in ((PLAIN_SHOUP, PLAIN_IFMA),
                            (EMBED_SHOUP, EMBED_IFMA)):
            stray, total = scan([ifma, madd, madd])
            self.assertEqual(stray, {})
            self.assertEqual(total, 2)
            stray, total = scan([ifma, madd, "", shoup, madd])
            self.assertEqual(stray, {name(shoup): 1})
            self.assertEqual(total, 2)


if __name__ == "__main__":
    unittest.main()
