#!/usr/bin/env python3
"""Unit tests for check_reachability on canned nm -C output.

Run directly (python3 scripts/test_check_reachability.py) or via CTest
(test_check_reachability, label unit).
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in scripts/
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from check_reachability import (  # noqa: E402
    check, parse_allowlist, parse_nm, strip_params)

LIB_NM = """
poly.o:
0000000000000000 T ark::RnsPoly::resizeLimbs(unsigned long)
0000000000000040 T ark::RnsPoly::RnsPoly(unsigned long, unsigned long, ark::Rep)
0000000000000000 W ark::RnsPoly::limb(unsigned long)
0000000000000000 t ark::(anonymous namespace)::helper(int)

evaluator.o:
0000000000000000 T ark::CkksEvaluator::negate(ark::Ciphertext const&) const
0000000000000080 T ark::CkksEvaluator::add(ark::Ciphertext const&, ark::Ciphertext const&) const
0000000000000100 T ark::CkksEvaluator::add(ark::Ciphertext const&, ark::Plaintext const&) const
                 U ark::RnsPoly::resizeLimbs(unsigned long)
""".splitlines()

BIN_NM = """
0000000000401000 T main
0000000000401100 T ark::RnsPoly::RnsPoly(unsigned long, unsigned long, ark::Rep)
0000000000401200 T ark::CkksEvaluator::add(ark::Ciphertext const&, ark::Ciphertext const&) const
0000000000402000 W ark::RnsPoly::limb(unsigned long)
0000000000403000 r kTable
""".splitlines()


def lib():
    return parse_nm(LIB_NM, types="T")


def bins():
    return parse_nm(BIN_NM)


class StripParamsTest(unittest.TestCase):
    def test_drops_parameters_and_qualifiers(self):
        self.assertEqual(
            strip_params("ark::Foo::bar(int, std::vector<int> const&) "
                         "const"),
            "ark::Foo::bar")
        self.assertEqual(strip_params("ark::Foo::baz() &&"),
                         "ark::Foo::baz")

    def test_keeps_parentheses_inside_the_name(self):
        self.assertEqual(
            strip_params("ark::(anonymous namespace)::helper(int)"),
            "ark::(anonymous namespace)::helper")
        self.assertEqual(strip_params("ark::Fn::operator()(int) const"),
                         "ark::Fn::operator()")

    def test_keeps_abi_tags(self):
        self.assertEqual(
            strip_params("ark::Report::toString[abi:cxx11]() const"),
            "ark::Report::toString[abi:cxx11]")


class ParseNmTest(unittest.TestCase):
    def test_keeps_only_global_text_of_the_library(self):
        self.assertEqual(lib(), {
            "ark::RnsPoly::resizeLimbs(unsigned long)",
            "ark::RnsPoly::RnsPoly(unsigned long, unsigned long, "
            "ark::Rep)",
            "ark::CkksEvaluator::negate(ark::Ciphertext const&) const",
            "ark::CkksEvaluator::add(ark::Ciphertext const&, "
            "ark::Ciphertext const&) const",
            "ark::CkksEvaluator::add(ark::Ciphertext const&, "
            "ark::Plaintext const&) const",
        })

    def test_keeps_every_defined_symbol_of_a_binary(self):
        self.assertIn("main", bins())
        self.assertIn("kTable", bins())
        self.assertIn("ark::RnsPoly::limb(unsigned long)", bins())


class ParseAllowlistTest(unittest.TestCase):
    def test_grouped_entries_with_reasons(self):
        entries, errors = parse_allowlist([
            "# header", "", "# public API", "ark::A::f", "ark::A::g",
            "", "# test seams", "# (two comment lines)", "ark::B::h"])
        self.assertEqual(errors, [])
        self.assertEqual(entries, {"ark::A::f", "ark::A::g", "ark::B::h"})

    def test_entry_without_reason_is_an_error(self):
        _, errors = parse_allowlist(["# reason", "ark::A::f", "",
                                     "ark::A::g"])
        self.assertEqual(len(errors), 1)
        self.assertIn("ark::A::g", errors[0])

    def test_duplicate_entry_is_an_error(self):
        _, errors = parse_allowlist(["# reason", "ark::A::f",
                                     "ark::A::f"])
        self.assertEqual(len(errors), 1)
        self.assertIn("twice", errors[0])


class CheckTest(unittest.TestCase):
    def test_unreached_functions_are_reported_by_name(self):
        missing, stale = check(lib(), bins(), set())
        self.assertEqual(missing, ["ark::CkksEvaluator::add",
                                   "ark::CkksEvaluator::negate",
                                   "ark::RnsPoly::resizeLimbs"])
        self.assertEqual(stale, {})

    def test_allowlisted_names_pass(self):
        missing, stale = check(lib(), bins(), {
            "ark::CkksEvaluator::add", "ark::CkksEvaluator::negate",
            "ark::RnsPoly::resizeLimbs"})
        self.assertEqual(missing, [])
        self.assertEqual(stale, {})

    def test_stale_entries_fail(self):
        allowed = {"ark::CkksEvaluator::add",
                   "ark::CkksEvaluator::negate",
                   "ark::RnsPoly::resizeLimbs",
                   "ark::RnsPoly::RnsPoly",       # reached
                   "ark::RnsPoly::extendLimbs"}  # deleted
        missing, stale = check(lib(), bins(), allowed)
        self.assertEqual(missing, [])
        self.assertEqual(stale, {
            "ark::RnsPoly::RnsPoly": "now reached",
            "ark::RnsPoly::extendLimbs": "no longer defined"})

    def test_one_unreached_overload_keeps_its_name_unreached(self):
        # A binary reaches add(Ciphertext, Ciphertext) but not
        # add(Ciphertext, Plaintext): the name stays reported above,
        # and an entry for it is not stale.
        _, stale = check(lib(), bins(), {"ark::CkksEvaluator::add"})
        self.assertNotIn("ark::CkksEvaluator::add", stale)

    def test_everything_reached_passes(self):
        missing, stale = check(lib(), lib() | bins(), set())
        self.assertEqual((missing, stale), ([], {}))


if __name__ == "__main__":
    unittest.main()
