#!/usr/bin/env python3
"""Check that every ark_core function is reached by a shipped binary.

Build the library and the binaries with -ffunction-sections and link
the binaries with -Wl,--gc-sections (Debug, -O0 -fno-inline, so no
call is folded away). The linker then keeps in each binary only the
functions some path from main() reaches. A function is unreached when
it is a global text (T) symbol of the library and no binary defines
it. This check fails on

  - an unreached function whose name is not in the allowlist;
  - a stale allowlist entry: a name that is now reached, or that the
    library no longer defines.

Reachability is decided per full signature, so an unreached overload
of a reached name is still reported; the report and the allowlist
name functions without their parameter lists, so one allowlist entry
covers every unreached overload of its name.

The allowlist holds one name per line, in groups separated by blank
lines. Each group opens with a comment (# ...) that gives the reason
its names may stay unreached; an entry outside such a group is an
error.

Usage:
    scripts/check_reachability.py LIB ALLOWLIST BIN...

Exit status: 0 clean, 1 an unreached or stale name (each is listed),
2 usage, allowlist or nm error, 77 nm missing (CTest's
SKIP_RETURN_CODE).
"""

import shutil
import subprocess
import sys

QUALIFIERS = (" const", " volatile", " &&", " &")


def strip_params(symbol):
    """The demangled @p symbol without its trailing parameter list and
    cv/ref qualifiers: 'ark::Foo::bar(int) const' -> 'ark::Foo::bar'."""
    name = symbol
    trimmed = True
    while trimmed:
        trimmed = False
        for q in QUALIFIERS:
            if name.endswith(q):
                name = name[:-len(q)]
                trimmed = True
    if not name.endswith(")"):
        return name
    depth = 0
    for i in range(len(name) - 1, -1, -1):
        if name[i] == ")":
            depth += 1
        elif name[i] == "(":
            depth -= 1
            if depth == 0:
                return name[:i]
    return name


def parse_nm(lines, types=None):
    """The demangled names of the defined symbols in nm -C output,
    restricted to the symbol @p types letters when given."""
    names = set()
    for line in lines:
        parts = line.rstrip("\n").split(" ", 2)
        if len(parts) != 3 or len(parts[1]) != 1:
            continue  # archive member headers, blank lines
        if types is None or parts[1] in types:
            names.add(parts[2])
    return names


def parse_allowlist(lines):
    """Return ({name}, [error]) for allowlist @p lines."""
    entries = set()
    errors = []
    in_group = False
    for number, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            in_group = False
        elif line.startswith("#"):
            in_group = True
        elif not in_group:
            errors.append(f"line {number}: '{line}' has no reason "
                          "comment opening its group")
        elif line in entries:
            errors.append(f"line {number}: '{line}' is listed twice")
        else:
            entries.add(line)
    return entries, errors


def check(lib_symbols, bin_symbols, allowed):
    """Return (unreached names not in @p allowed, {stale entry: why})."""
    unreached = {strip_params(s) for s in lib_symbols - bin_symbols}
    defined = {strip_params(s) for s in lib_symbols}
    missing = sorted(unreached - allowed)
    stale = {}
    for name in allowed:
        if name not in defined:
            stale[name] = "no longer defined"
        elif name not in unreached:
            stale[name] = "now reached"
    return missing, stale


def nm_names(nm, path, types=None):
    proc = subprocess.run([nm, "-C", "--defined-only", path],
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"nm failed on {path}")
    return parse_nm(proc.stdout.splitlines(), types)


def main(argv):
    if len(argv) < 4:
        print("usage: check_reachability.py LIB ALLOWLIST BIN...",
              file=sys.stderr)
        return 2
    nm = shutil.which("nm")
    if nm is None:
        print("check_reachability: nm not found; skipping")
        return 77
    lib, allowlist, bins = argv[1], argv[2], argv[3:]
    with open(allowlist) as f:
        allowed, errors = parse_allowlist(f)
    if errors:
        for e in errors:
            print(f"check_reachability: {allowlist}: {e}",
                  file=sys.stderr)
        return 2
    try:
        lib_symbols = nm_names(nm, lib, types="T")
        bin_symbols = set()
        for b in bins:
            bin_symbols |= nm_names(nm, b)
    except RuntimeError as e:
        print(f"check_reachability: {e}", file=sys.stderr)
        return 2
    missing, stale = check(lib_symbols, bin_symbols, allowed)
    if missing:
        print(f"check_reachability: {len(missing)} functions no binary "
              "reaches (delete them, give them a caller, or allowlist "
              "them with a reason):")
        for name in missing:
            print(f"  {name}")
    if stale:
        print(f"check_reachability: {len(stale)} stale allowlist "
              "entries:")
        for name, why in sorted(stale.items()):
            print(f"  {name} ({why})")
    if missing or stale:
        return 1
    print(f"check_reachability: {len(bins)} binaries reach every "
          f"function of {lib} but the {len(allowed)} allowlisted names")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
