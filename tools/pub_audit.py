#!/usr/bin/env python3
"""List every public member under crates/*/src that nothing reads outside
`#[cfg(test)]` code (DESIGN.md §7): `pub fn`s, the methods and associated
consts of `pub trait`s, associated consts of `impl` blocks, and the `pub`
fields of `pub struct`s.

    tools/pub_audit.py            # from the repository root

`UNUSED`   nothing reads it anywhere but its own crate's unit tests;
`ext-only` only tests/, examples/, benches or hostbench/ do (listed).
Exits 1 when it prints an `UNUSED` line.

A field of a struct declared in `stat_struct!` is read by the statistics
walk the macro writes, so it is not listed.

Name-based: two items sharing a name hide each other (check those with
`grep '\\.name('`), and a name that is also a field or a path segment
counts as read. So it can miss a dead member, not invent one.
"""
import collections
import glob
import re
import sys

# A name counts as read where it is followed by `(` or a turbofish, or
# follows `.` / `::` (method values, fields, paths); `fn name` is a
# definition, `name:` a field being declared or set.
CALL = re.compile(r"(?<!fn )\b(\w+)\s*(?:::<|\()|[.:](\w+)\b(?!\s*:)")
# Comments, then string and char literals: they hold no reader, and their
# braces would throw off the block scan below.
NOISE = re.compile(r"//[^\n]*|r#*\"[^\"]*\"#*|\"(?:\\.|[^\"\\])*\"|'(?:\\.|[^'\\])'")


def calls(text):
    text = re.sub(r"//[^\n]*", "", text)  # comments and doc links are not callers
    return [a or b for a, b in CALL.findall(text)]


def without_unit_tests(src):
    """A file's text up to its `#[cfg(test)]` module (they end the file)."""
    m = re.search(r"^#\[cfg\(test\)\]", src, re.M)
    return src if not m else src[: m.start()]


def blocks(text, head):
    """The bodies of the `{ … }` blocks opened by each match of `head`,
    with the text of their nested blocks blanked out."""
    for m in re.finditer(head, text):
        depth, body = 1, []
        for c in text[m.end():]:
            depth += (c == "{") - (c == "}")
            if depth == 0:
                break
            body.append(c if depth == 1 or c == "\n" else " ")
        yield "".join(body)


def members(text):
    """(kind, name) of each audited member declared in `text`."""
    text = NOISE.sub(lambda m: '""' if m.group(0)[0] in "\"r'" else "", text)
    for m in re.finditer(r"^\s*pub fn (\w+)", text, re.M):
        yield "fn", m.group(1)
    for body in blocks(text, r"\bpub trait \w+[^{;]*\{"):
        for m in re.finditer(r"\bfn (\w+)", body):
            yield "trait fn", m.group(1)
        for m in re.finditer(r"\bconst (\w+)\s*:", body):
            yield "const", m.group(1)
    for body in blocks(text, r"\bimpl\b[^{;]*\{"):
        for m in re.finditer(r"\bconst (\w+)\s*:", body):
            yield "const", m.group(1)
    walked = "".join(blocks(text, r"\bstat_struct!\s*\{"))
    for body in blocks(text, r"\bpub struct \w+[^{;(]*\{"):
        if body in walked:
            continue
        for m in re.finditer(r"\bpub (\w+)\s*:", body):
            yield "field", m.group(1)


crates = {p: without_unit_tests(open(p).read())
          for p in glob.glob("crates/*/src/**/*.rs", recursive=True)}
outside = [p for pat in ("tests/**/*.rs", "examples/*.rs", "hostbench/src/**/*.rs",
                         "crates/*/tests/*.rs", "crates/*/benches/*.rs")
           for p in glob.glob(pat, recursive=True)]

defined = collections.defaultdict(set)
for path, text in crates.items():
    for kind, name in members(text):
        defined[(kind, name)].add(path)

called = set()
for text in crates.values():
    called.update(calls(text))
readers = collections.defaultdict(set)
for path in outside:
    for name in set(calls(open(path).read())):
        readers[name].add(path)

unused = False
for (kind, name), paths in sorted(defined.items(), key=lambda kv: sorted(kv[1])):
    if name in called:
        continue
    verdict = "ext-only" if readers[name] else "UNUSED"
    unused |= verdict == "UNUSED"
    print(f"{verdict:9} {kind:8} {name:28} {','.join(sorted(paths))}"
          f"  <- {','.join(sorted(readers[name]))}")
sys.exit(unused)
