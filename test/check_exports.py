#!/usr/bin/env python3
"""Check that the library exports only what the program calls.

Every top-level ``val v`` in ``lib/*/*.mli`` belongs to module ``M``
(the file's name, capitalised).  A file names ``M.v`` when it writes
``M.v`` (with or without its library prefix), writes ``X.v`` after a
``module X = ...M`` alias, or writes a bare ``v`` after ``open ...M``,
``let open ...M in``, ``include ...M`` or ``M.( ... )``.  The possible
callers are the files under ``lib/``, ``bin/``, ``examples/`` and
``perfbench/ocaml/``, leaving out ``M``'s own files.  When no caller
names ``v``, the value is flagged:

- only ``M``'s own ``.ml`` uses it: drop it from the ``.mli``;
- only ``test/`` names it: test-only code in the library;
- nothing names it: dead.

A value that ``M`` uses and a test also names is a test hook, and it
passes.  Nested signatures (``module Infix : sig ... end``) are not
checked.  The matching is by name over source with comments and strings
blanked, so it errs towards passing: a same-named local or record field
can hide a flag, never raise one.

The allowlist (``test/check_exports.allow``) holds the intended
exceptions, one ``M.v  reason`` a line; ``#`` starts a comment.  An
entry without a reason is an error, and so is one that names no flagged
value, so the list cannot go stale.

Usage, from anywhere:

    python3 test/check_exports.py [ROOT]

ROOT defaults to the checkout holding this script.  It prints each
finding as ``FILE:LINE: M.v: why`` and exits 1 if there is any.
"""

import re
import sys
from pathlib import Path

CALLER_DIRS = ("lib", "bin", "examples", "perfbench/ocaml")
TEST_DIR = "test"
ALLOWLIST = "test/check_exports.allow"

DROP = "only its own module uses it: drop it from the .mli"
TEST_ONLY = "only test/ names it: test-only code in the library"
DEAD = "nothing names it: dead"

IDENT = r"[a-z_][A-Za-z0-9_']*"
MODPATH = r"((?:[A-Z][A-Za-z0-9_']*\.)*)([A-Z][A-Za-z0-9_']*)"
QUOTED_STRING = re.compile(r"\{([a-z_]*)\|")
CHAR_LITERAL = re.compile(r"'(?:\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2})|[^\\'\n])'")
QUALIFIED = re.compile(rf"([A-Z][A-Za-z0-9_']*)\.({IDENT})")
BARE = re.compile(rf"(?<![\w'.])({IDENT})")


def blank(src):
    """[src] with comments, strings and character literals turned into
    spaces (newlines kept, so line numbers hold)."""
    out = []
    i, n, depth = 0, len(src), 0

    def keep_lines(text):
        return "".join(c if c == "\n" else " " for c in text)

    while i < n:
        if src.startswith("(*", i):
            depth += 1
            out.append("  ")
            i += 2
        elif depth and src.startswith("*)", i):
            depth -= 1
            out.append("  ")
            i += 2
        elif depth:
            out.append("\n" if src[i] == "\n" else " ")
            i += 1
        elif src[i] == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            out.append(keep_lines(src[i:j + 1]))
            i = j + 1
        elif (m := QUOTED_STRING.match(src, i)):
            end = src.find("|" + m.group(1) + "}", m.end())
            end = n if end < 0 else end + len(m.group(1)) + 2
            out.append(keep_lines(src[i:end]))
            i = end
        elif (m := CHAR_LITERAL.match(src, i)):
            out.append(" " * (m.end() - i))
            i = m.end()
        else:
            out.append(src[i])
            i += 1
    return "".join(out)


def module_name(path):
    return path.stem[:1].upper() + path.stem[1:]


def exported_values(mli):
    """The top-level [val]s of [mli]: (name, line number)."""
    vals = []
    for lineno, line in enumerate(blank(mli.read_text()).splitlines(), 1):
        m = re.match(rf"(?:val|external)\s+({IDENT}|\([^)]*\))", line)
        if m and not m.group(1).startswith("("):
            vals.append((m.group(1), lineno))
    return vals


def bare_names(text):
    return set(BARE.findall(text))


class Source:
    """One .ml or .mli file: the names it writes, and the library modules
    it reaches through aliases and opens."""

    def __init__(self, path, modules):
        self.path = path
        text = blank(path.read_text())
        self.qualified = set(QUALIFIED.findall(text))
        self.bare = bare_names(text)
        # alias name -> module, in file order so that an alias of an
        # alias resolves too
        aliases = {}
        for m in re.finditer(rf"\bmodule\s+([A-Z]\w*)\s*:?=\s*{MODPATH}", text):
            target = m.group(3) if m.group(2) else aliases.get(m.group(3), m.group(3))
            if target in modules:
                aliases[m.group(1)] = target
        self.quals = {}
        for alias, target in aliases.items():
            self.quals.setdefault(target, []).append(alias)
        self.opened = set()
        for m in re.finditer(rf"\b(?:open!?|include)\s+{MODPATH}|{MODPATH}\.\(", text):
            last = m.group(2) or m.group(4)
            prefix = m.group(1) if m.group(2) else m.group(3)
            self.opened.add(last if prefix else aliases.get(last, last))

    def names(self, module, value):
        if any((q, value) in self.qualified
               for q in [module] + self.quals.get(module, [])):
            return True
        return module in self.opened and value in self.bare


def uses_inside(ml_text):
    """The values an .ml uses outside their own definition: top-level
    phrases start at column 0, and the phrase that defines a value does
    not count for it, so a recursive call is not a use."""
    phrases = re.split(r"\n(?=(?:let|and|type|module|open|include|exception)\b)",
                       "\n" + ml_text)
    define = re.compile(rf"(?:let|and)\s+(?:rec\s+)?({IDENT})")
    uses = set()
    for p in phrases:
        m = define.match(p)
        uses |= bare_names(p) - ({m.group(1)} if m else set())
    return uses


def read_allowlist(root):
    path = root / ALLOWLIST
    entries = {}
    if path.exists():
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if line:
                name, _, reason = line.partition(" ")
                entries[name] = (lineno, reason.strip())
    return entries


def sources(root, dirs, suffixes):
    found = []
    for d in dirs:
        found += sorted(p for p in (root / d).rglob("*")
                        if p.suffix in suffixes and "_build" not in p.parts)
    return found


def check(root):
    """Every finding under [root], as messages; empty when it checks."""
    root = Path(root)
    mlis = sorted((root / "lib").glob("*/*.mli"))
    modules = {module_name(p) for p in mlis}
    callers = [Source(p, modules) for p in sources(root, CALLER_DIRS, {".ml", ".mli"})]
    tests = [Source(p, modules) for p in sources(root, (TEST_DIR,), {".ml"})]
    allow = read_allowlist(root)
    used_allow = set()
    findings = []
    for mli in mlis:
        module = module_name(mli)
        ml = mli.with_suffix(".ml")
        inside = uses_inside(blank(ml.read_text()) if ml.exists() else "")
        others = [s for s in callers if s.path.parent != mli.parent
                  or s.path.stem != mli.stem]
        for value, lineno in exported_values(mli):
            if any(s.names(module, value) for s in others):
                continue
            tested = any(s.names(module, value) for s in tests)
            if value in inside and tested:
                continue
            qualified = f"{module}.{value}"
            if qualified in allow:
                used_allow.add(qualified)
                continue
            why = DROP if value in inside else TEST_ONLY if tested else DEAD
            findings.append(f"{mli.relative_to(root)}:{lineno}: {qualified}: {why}")
    for name, (lineno, reason) in sorted(allow.items()):
        if name not in used_allow:
            findings.append(f"{ALLOWLIST}:{lineno}: {name}: allowlisted but not"
                            " flagged: remove the entry")
        elif not reason:
            findings.append(f"{ALLOWLIST}:{lineno}: {name}: the entry gives no reason")
    return findings


def main(argv):
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    findings = check(root)
    for f in findings:
        print(f)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
