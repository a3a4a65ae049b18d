#!/usr/bin/env python3
"""List every public member under crates/*/src that nothing reads outside
`#[cfg(test)]` code (DESIGN.md §7): `pub fn`s, the methods and associated
consts of `pub trait`s, associated consts of `impl` blocks, and the `pub`
fields of `pub struct`s. Then list every trait defined there that has
exactly one implementation outside `#[cfg(test)]` code.

    tools/pub_audit.py            # from the repository root

`UNUSED`      nothing reads it anywhere but its own crate's unit tests;
`ext-only`    only tests/, examples/ or hostbench/ do (listed);
`SINGLE-IMPL` a trait with one implementation (named after `<-`). A
              blanket impl over an `Fn*` bound is one implementation; a
              blanket impl over another of the workspace's traits is type
              erasure, and such a trait is not listed.
Exits 1 when it prints an `UNUSED` line, or a `SINGLE-IMPL` line for a
trait `SINGLE_IMPL_KEPT` does not give a reason for.

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

from size_audit import without_unit_tests

# Traits kept with one implementation, and why.
SINGLE_IMPL_KEPT = {
    "Topology": "hostbench/ spells Network<AnyTopology>; goes with ROADMAP item 8",
}

# A name counts as read where it is followed by `(` or a turbofish, or
# follows `.` / `::` (method values, fields, paths); `fn name` is a
# definition, `name:` a field being declared or set.
CALL = re.compile(r"(?<!fn )\b(\w+)\s*(?:::<|\()|[.:](\w+)\b(?!\s*:)")
# Comments, then string and char literals: they hold no reader, and their
# braces would throw off the block scan below.
NOISE = re.compile(r"//[^\n]*|r#*\"[^\"]*\"#*|\"(?:\\.|[^\"\\])*\"|'(?:\\.|[^'\\])'")


def quiet(text):
    """`text` without comments, its string and char literals emptied."""
    return NOISE.sub(lambda m: '""' if m.group(0)[0] in "\"r'" else "", text)


def calls(text):
    text = re.sub(r"//[^\n]*", "", text)  # comments and doc links are not callers
    return [a or b for a, b in CALL.findall(text)]


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
    text = quiet(text)
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


CLOSURE = re.compile(r"\bFn(?:Mut|Once)?(?=\s*\()")


def impl_headers(text):
    """`(trait, self type, header)` of each `impl … for …` in `text`; the
    header runs from `impl` to the body's `{`, generics and `where`
    clause included."""
    text = quiet(text)
    for m in re.finditer(r"\bimpl\b", text):
        header = text[m.end():text.find("{", m.end())]
        rest = header.lstrip()
        if rest.startswith("<"):  # skip the impl's generics; `->` is no bracket
            depth = 0
            for i, c in enumerate(rest):
                depth += (c == "<") - (c == ">" and rest[i - 1] != "-")
                if depth == 0:
                    rest = rest[i + 1:]
                    break
        t = re.match(r"\s*([\w:$]+)\s*(?:<[^{]*?>)?\s+for\s+([\w:$]+)", rest)
        if t:
            yield t.group(1).split("::")[-1], t.group(2), header


def single_impls(sources):
    """`(trait, path, implementor)` of each trait defined in `sources`
    that has one implementation there, unless that one is a blanket impl
    over another of their traits (type erasure)."""
    traits = {m.group(1): path for path, text in sources.items()
              for m in re.finditer(r"^\s*(?:pub(?:\([\w:]+\))? )?trait (\w+)", text, re.M)}
    impls = collections.defaultdict(list)
    for text in sources.values():
        for trait, ty, header in impl_headers(text):
            if trait in traits:
                impls[trait].append((ty, header))
    for trait, found in sorted(impls.items()):
        if len(found) != 1:
            continue
        ty, header = found[0]
        blanket = re.search(rf"\b{ty}\s*[:,>]", header)  # `ty` is the impl's own parameter
        closure = CLOSURE.search(header)
        if blanket and closure:
            yield trait, traits[trait], f"{closure.group(0)} closures"
        elif not blanket or not any(re.search(rf"\b{t}\b", header) for t in traits if t != trait):
            yield trait, traits[trait], ty


crates = {p: without_unit_tests(open(p).read())
          for p in glob.glob("crates/*/src/**/*.rs", recursive=True)}
outside = [p for pat in ("tests/**/*.rs", "examples/*.rs", "hostbench/src/**/*.rs",
                         "crates/*/tests/*.rs")
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

failed = False
for (kind, name), paths in sorted(defined.items(), key=lambda kv: sorted(kv[1])):
    if name in called:
        continue
    verdict = "ext-only" if readers[name] else "UNUSED"
    failed |= verdict == "UNUSED"
    print(f"{verdict:9} {kind:8} {name:28} {','.join(sorted(paths))}"
          f"  <- {','.join(sorted(readers[name]))}")

for trait, path, implementor in single_impls(crates):
    kept = SINGLE_IMPL_KEPT.get(trait)
    failed |= kept is None
    print(f"SINGLE-IMPL trait {trait:28} {path}  <- {implementor}"
          + (f"  (kept: {kept})" if kept else ""))
sys.exit(failed)
