#!/usr/bin/env python3
"""Check that each SIMD tier's kernels use only their own ISA.

The vector kernels of src/rns/simd_kernels.cpp are written once, in
src/rns/simd_schedules.inc, and compiled once per lane width: the
8-lane copy (namespace avx512) for avx512ifma, so that its templates
can take the Ifma52 multiplier policy, the 4-lane copy (namespace avx2)
for avx2. Runtime dispatch then runs each copy only on a host that has
its tier's ISA, so an instruction from a wider ISA inside it would fault
on exactly the hosts the tier exists for. This check disassembles the
built library and fails on

  - a vpmadd52luq / vpmadd52huq in a function not named for the IFMA
    tier (its demangled name names the Ifma52 policy): the AVX-512
    table runs the Shoup64 instantiations on hosts without IFMA;
  - a zmm register, an EVEX-only xmm16-31 / ymm16-31 register, a %k
    mask operand or an IFMA instruction in a function named for the
    4-lane tier (the avx2 namespace or the Vec4 lane policy): the AVX2
    table runs on hosts without AVX-512.

Usage:
    scripts/check_simd_isa.py build/libark_core.a

Exit status: 0 clean, 1 an instruction outside its tier's ISA (each
offending function is listed), 2 usage or objdump error, 77 objdump
missing (CTest's SKIP_RETURN_CODE).
"""

import re
import shutil
import subprocess
import sys

FUNC_HEADER = re.compile(r"^[0-9a-f]+ <(.*)>:$")
IFMA_INSN = re.compile(r"\bvpmadd52[lh]uq\b")
AVX512_OPERAND = re.compile(
    r"%zmm\d+|%[xy]mm(?:1[6-9]|2\d|3[01])\b|%k[0-7]\b")
IFMA_TIER_NAME = re.compile(r"Ifma52")
LANE4_TIER_NAME = re.compile(r"\bavx2::|\bVec4::")


def is_ifma_tier(name):
    return IFMA_TIER_NAME.search(name) is not None


def is_lane4_tier(name):
    return LANE4_TIER_NAME.search(name) is not None


def scan(lines):
    """Return ({function: stray instruction count}, total IFMA
    instructions) over objdump -d -C lines."""
    stray = {}
    total = 0
    func = None
    for line in lines:
        header = FUNC_HEADER.match(line)
        if header:
            func = header.group(1)
            continue
        if func is None:
            continue
        ifma = IFMA_INSN.search(line) is not None
        if ifma:
            total += 1
        if is_lane4_tier(func):
            bad = ifma or AVX512_OPERAND.search(line) is not None
        else:
            bad = ifma and not is_ifma_tier(func)
        if bad:
            stray[func] = stray.get(func, 0) + 1
    return stray, total


def main(argv):
    if len(argv) != 2:
        print("usage: check_simd_isa.py LIBRARY", file=sys.stderr)
        return 2
    objdump = shutil.which("objdump")
    if objdump is None:
        print("check_simd_isa: objdump not found; skipping")
        return 77
    proc = subprocess.Popen([objdump, "-d", "-C", "--no-show-raw-insn",
                             argv[1]],
                            stdout=subprocess.PIPE, text=True)
    stray, total = scan(line.rstrip("\n") for line in proc.stdout)
    if proc.wait() != 0:
        print(f"check_simd_isa: objdump failed on {argv[1]}",
              file=sys.stderr)
        return 2
    if stray:
        print("check_simd_isa: instructions outside their tier's ISA:")
        for func, count in sorted(stray.items()):
            print(f"  {count:4d}  {func}")
        return 1
    print(f"check_simd_isa: {total} IFMA instructions, all in IFMA-tier "
          "functions; no AVX-512 in 4-lane-tier functions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
