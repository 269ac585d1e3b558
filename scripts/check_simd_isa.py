#!/usr/bin/env python3
"""Check that IFMA instructions stay inside the IFMA-tier kernels.

The 8-lane kernels of src/rns/simd_kernels.cpp are templates over a
multiplier policy (Shoup64 or Ifma52). A function template carries one
target attribute, so both instantiations are compiled with avx512ifma
enabled, yet only the Ifma52 ones may run on a host that has it: the
AVX-512 table dispatches the Shoup64 instantiations on hosts without
IFMA. This check disassembles the built library and fails when a
vpmadd52luq / vpmadd52huq appears in a function whose demangled name
does not mark it as IFMA-tier (it names the Ifma52 policy, or the
function's own name ends in "Ifma").

Usage:
    scripts/check_simd_isa.py build/libark_core.a

Exit status: 0 clean, 1 a stray IFMA instruction (each offending
function is listed), 2 usage or objdump error, 77 objdump missing
(CTest's SKIP_RETURN_CODE).
"""

import re
import shutil
import subprocess
import sys

FUNC_HEADER = re.compile(r"^[0-9a-f]+ <(.*)>:$")
IFMA_INSN = re.compile(r"\bvpmadd52[lh]uq\b")
IFMA_TIER_NAME = re.compile(r"Ifma52|Ifma\(")


def is_ifma_tier(name):
    return IFMA_TIER_NAME.search(name) is not None


def scan(lines):
    """Return ({function: stray IFMA count}, total IFMA instructions)."""
    stray = {}
    total = 0
    func = None
    for line in lines:
        header = FUNC_HEADER.match(line)
        if header:
            func = header.group(1)
            continue
        if func is None or not IFMA_INSN.search(line):
            continue
        total += 1
        if not is_ifma_tier(func):
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
        print("check_simd_isa: IFMA instructions outside the IFMA tier:")
        for func, count in sorted(stray.items()):
            print(f"  {count:4d}  {func}")
        return 1
    print(f"check_simd_isa: {total} IFMA instructions, all in IFMA-tier "
          "functions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
