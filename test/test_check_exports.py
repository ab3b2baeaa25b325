#!/usr/bin/env python3
"""Unit tests of check_exports.py: on a small temporary tree each kind of
export is judged by who names it.  make lint checks the committed tree.

Run from anywhere:  python3 test/test_check_exports.py
"""

import tempfile
import textwrap
import unittest
from pathlib import Path

import check_exports as ce

# one library module M, exporting one value per case
M_MLI = """
(** A module with one value per case. *)
val called : int -> int
val helper : int -> int
val unused : int
val tested : int
val hook : int -> int
val aliased : int
val opened : int
val local_opened : int
val allowed : int
"""

M_ML = """
let helper x = x + 1
let called x = helper x
let unused = 0
let tested = 1
(* a mention in a comment is not a use: called aliased opened *)
let hook x = x * 2
let uses_hook = hook 3
let aliased = 2
let opened = 3
let local_opened = 4
let allowed = 5
"""

BIN_MAIN = """
module X = Polysynth_m.M
let () = print_int (Polysynth_m.M.called X.aliased)
let _ = "M.unused"
"""

BIN_OPEN = """
open Polysynth_m.M
let () = print_int opened
let () = print_int Polysynth_m.M.(local_opened + 1)
"""

TEST_M = """
module M = Polysynth_m.M
let () = assert (M.tested = 1 && M.hook 1 = 2 && M.allowed = 5)
"""


class CheckExports(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.root = Path(self.tmp.name)
        self.write("lib/m/m.mli", M_MLI)
        self.write("lib/m/m.ml", M_ML)
        self.write("bin/main.ml", BIN_MAIN)
        self.write("bin/other.ml", BIN_OPEN)
        self.write("test/test_m.ml", TEST_M)
        self.write(ce.ALLOWLIST, "M.allowed  read by the tests on purpose\n")

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, rel, text):
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))

    def flagged(self):
        """[M.v: why] for each finding on the temporary tree."""
        return {f.split(": ", 1)[1] for f in ce.check(self.root)}

    def flagged_names(self):
        return {f.split(":")[0] for f in self.flagged()}

    def test_only_the_three_cases_fail(self):
        """An unused, a test-only and an internal-only export fail; uses
        through a qualified name, an alias, an open, a local open, a test
        hook and an allowlist entry pass."""
        self.assertEqual({f"M.unused: {ce.DEAD}", f"M.tested: {ce.TEST_ONLY}",
                          f"M.helper: {ce.DROP}"}, self.flagged())

    def test_use_through_alias_passes(self):
        self.assertNotIn("M.aliased", self.flagged_names())
        self.write("bin/main.ml", "let () = print_int (Polysynth_m.M.called 1)\n")
        self.assertIn(f"M.aliased: {ce.DEAD}", self.flagged())

    def test_use_through_open_passes(self):
        self.assertNotIn("M.opened", self.flagged_names())
        self.write("bin/other.ml", "let () = print_int Polysynth_m.M.local_opened\n")
        self.assertIn(f"M.opened: {ce.DEAD}", self.flagged())

    def test_allowlisted_name_passes(self):
        self.assertNotIn("M.allowed", self.flagged_names())
        self.write(ce.ALLOWLIST, "")
        self.assertIn(f"M.allowed: {ce.TEST_ONLY}", self.flagged())

    def test_stale_allowlist_entry_fails(self):
        self.write(ce.ALLOWLIST, "M.allowed  on purpose\nM.called  not needed\n")
        self.assertTrue(any(f.startswith(f"{ce.ALLOWLIST}:2: M.called:")
                            for f in ce.check(self.root)))

    def test_allowlist_entry_needs_a_reason(self):
        self.write(ce.ALLOWLIST, "M.allowed\n")
        self.assertIn("M.allowed: the entry gives no reason", self.flagged())


if __name__ == "__main__":
    unittest.main()
