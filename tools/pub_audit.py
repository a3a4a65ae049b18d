#!/usr/bin/env python3
"""List every `pub fn` under crates/*/src that nothing calls outside
`#[cfg(test)]` code (DESIGN.md §7).

    tools/pub_audit.py            # from the repository root

`UNUSED`   nothing calls it anywhere but its own crate's unit tests;
`ext-only` only tests/, examples/, benches or hostbench/ do (listed).

Name-based: two types sharing a method name hide each other (check those
with `grep '\\.name('`), and a name that is also a field or a path segment
counts as called. So it can miss a dead function, not invent one.
"""
import collections
import glob
import re

# A name counts as called where it is followed by `(` or a turbofish, or
# follows `.` / `::` (method values, paths); `fn name` is a definition.
CALL = re.compile(r"(?<!fn )\b(\w+)\s*(?:::<|\()|[.:](\w+)\b(?!\s*:)")


def calls(text):
    text = re.sub(r"//[^\n]*", "", text)  # comments and doc links are not callers
    return [a or b for a, b in CALL.findall(text)]


def without_unit_tests(src):
    """A file's text up to its `#[cfg(test)]` module (they end the file)."""
    m = re.search(r"^#\[cfg\(test\)\]", src, re.M)
    return src if not m else src[: m.start()]


crates = {p: without_unit_tests(open(p).read())
          for p in glob.glob("crates/*/src/**/*.rs", recursive=True)}
outside = [p for pat in ("tests/**/*.rs", "examples/*.rs", "hostbench/src/**/*.rs",
                         "crates/*/tests/*.rs", "crates/*/benches/*.rs")
           for p in glob.glob(pat, recursive=True)]

defined = collections.defaultdict(list)
for path, text in crates.items():
    for m in re.finditer(r"^\s*pub fn (\w+)", text, re.M):
        defined[m.group(1)].append(path)

called = set()
for text in crates.values():
    called.update(calls(text))
readers = collections.defaultdict(set)
for path in outside:
    for name in set(calls(open(path).read())):
        readers[name].add(path)

for name, paths in sorted(defined.items(), key=lambda kv: kv[1]):
    if name in called:
        continue
    kind = "ext-only" if readers[name] else "UNUSED"
    print(f"{kind:9} {name:28} {','.join(paths)}  <- {','.join(sorted(readers[name]))}")
