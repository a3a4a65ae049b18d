#!/usr/bin/env python3
"""Check that every repository path and command the documents name exists.

    tools/doc_audit.py              # from the repository root
    tools/doc_audit.py --self-test  # seeded staleness must fail the audit

A path is a backticked token in DESIGN.md, README.md or EXPERIMENTS.md,
or in a Rust module doc (`//!` lines) under `examples/` or `crates/*/src`,
that starts with `crates/`, `tests/`, `tools/`, `examples/`, `hostbench/`
or `.github/`. Only its first word counts; a `::symbol` or `:line`
suffix is stripped, `{a,b}` alternatives and glob patterns are expanded,
and `examples/<name>` also resolves to `examples/<name>.rs`. Prints one
`MISSING` line per path that matches nothing.

A command is `--bin X` or `--example X` in those documents and module
docs, in ROADMAP.md or in `.claude/skills/verify/SKILL.md`: X must be a `[[bin]]`
or `[[example]]` some `Cargo.toml` declares. Every experiment named on an
`experiments` command line (`--bin experiments -- [--out DIR] NAME ...`)
must have a checked-in `BENCH_<NAME>.json`. Prints one `STALE` line per
command that fails either. Exits 1 on any `MISSING` or `STALE` line.

A test name is a backticked `suite::name` or `suite::{a, b}` in
DESIGN.md, README.md or EXPERIMENTS.md whose `suite` is the stem of a test
target (`tests/*.rs`, `crates/*/tests/*.rs`): each name (a glob such as
`stencil_*` matches any) must be a `fn` in some file of that stem. A
conclusion is the same form whose `suite` is an experiment with a
`const <EXPERIMENT>: &[Conclusion] = conclusions![...]` under
`crates/bench/src`: each name must be in that list, or be a `fn` or `mod`
of a module of that name under `crates/*/src` (`serve::run_with` names
the app's). Prints one `MISSING` line per name that is neither.

An item reference is "ROADMAP item N" (or "items N, M and K"), a line
break or comment marker allowed between the words, in those documents,
ROADMAP.md, SKILL.md, the CI workflow, `tools/*.py` and every Rust file
under `crates/`, `tests/` and `examples/`: each N must be a numbered item
under ROADMAP.md's "## Open items". Prints one `STALE` line per number
that is not.

`--self-test` runs the audit with one seeded document beside the real
ones: a renamed `suite::test`, a renamed `experiment::conclusion`, a
missing path and a closed item number must each fail it, and a line
naming only what exists must not. Exits 1 when the audit misses a
seeded fault or flags the clean line.

Other symbols are not checked (ROADMAP item 15).
"""
import fnmatch
import glob
import itertools
import os
import re
import sys

DOCS = ["DESIGN.md", "README.md", "EXPERIMENTS.md"]
COMMAND_DOCS = DOCS + ["ROADMAP.md", ".claude/skills/verify/SKILL.md"]
ROOTS = ("crates/", "tests/", "tools/", "examples/", "hostbench/", ".github/")
TOKEN = re.compile(r"`([^`\n]+)`")
TARGET = re.compile(r"--(bin|example)\s+([A-Za-z0-9_-]+)")
# A `[` opens a synopsis placeholder (`[--out DIR] [NAME ...]`), not a name.
EXPERIMENTS = re.compile(r"--bin\s+experiments\s+--\s+([^`#|);<>\[]*)")
DECLARED = re.compile(r'\[\[(bin|example)\]\]\s*\nname\s*=\s*"([^"]+)"')
BRACES = re.compile(r"\{([^{}]*)\}")
TEST_REF = re.compile(r"^([a-z0-9_]+)::(\{[^{}`]*\}|[A-Za-z0-9_*]+)")
FN = re.compile(r"\bfn\s+([A-Za-z0-9_]+)")
ITEM = re.compile(r"\b(?:fn|mod)\s+([A-Za-z0-9_]+)")
CONCLUSIONS = re.compile(r"const ([A-Z0-9_]+): &\[Conclusion\] = conclusions!\[([^\]]*)\]")
GAP = r"(?:\s|//[/!]?|#)+"
ITEM_REF = re.compile(rf"ROADMAP{GAP}items?{GAP}(\d+(?:(?:,|{GAP}and|{GAP}or){GAP}\d+)*)")
OPEN_ITEM = re.compile(r"^(\d+)\. \*\*", re.M)


def alternatives(path):
    """`a/{b,c}.rs` -> [`a/b.rs`, `a/c.rs`]."""
    parts = BRACES.split(path)
    # Odd parts are brace contents.
    choices = [[p] if i % 2 == 0 else p.split(",") for i, p in enumerate(parts)]
    return ["".join(c) for c in itertools.product(*choices)]


def exists(path):
    candidates = [path]
    if path.startswith("examples/") and not path.endswith(".rs"):
        candidates.append(path.rstrip("/") + ".rs")
    return any(glob.glob(c) for c in candidates)


def declared_targets():
    """(kind, name) of every `[[bin]]` and `[[example]]` of every manifest."""
    found = set()
    for manifest in ["Cargo.toml", "hostbench/Cargo.toml"] + glob.glob("crates/*/Cargo.toml"):
        with open(manifest, encoding="utf-8") as f:
            found.update(DECLARED.findall(f.read()))
    return found


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def lines(docs, seeded=()):
    """(doc, line number, text) of every line of `docs` and of the
    `(name, text)` documents `seeded`, then of every module doc line of
    the Rust sources under `examples/` and `crates/*/src`."""
    for doc, text in [(doc, read(doc)) for doc in docs] + list(seeded):
        for lineno, line in enumerate(text.split("\n"), 1):
            yield doc, lineno, line
    sources = glob.glob("examples/*.rs") + glob.glob("crates/*/src/**/*.rs", recursive=True)
    for src in sorted(sources):
        with open(src, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if line.lstrip().startswith("//!"):
                    yield src, lineno, line


def stale_commands(seeded):
    """One line per `--bin`/`--example` that names no declared target and
    per experiment named on a command line without a checked-in file."""
    declared = declared_targets()
    stale = []
    for doc, lineno, line in lines(COMMAND_DOCS, seeded):
        for kind, name in TARGET.findall(line):
            if (kind, name) not in declared:
                stale.append(f"STALE {doc}:{lineno}: --{kind} {name} is not declared")
        for args in EXPERIMENTS.findall(line):
            words = args.split()
            for i, word in enumerate(words):
                if word.startswith("-") or (i > 0 and words[i - 1] == "--out"):
                    continue
                if not os.path.isfile(f"BENCH_{word}.json"):
                    stale.append(f"STALE {doc}:{lineno}: experiment {word} has no BENCH_{word}.json")
    return stale


def test_fns():
    """Stem of every test target -> names of the `fn`s in its files."""
    fns = {}
    for src in glob.glob("tests/*.rs") + glob.glob("crates/*/tests/*.rs"):
        stem = os.path.splitext(os.path.basename(src))[0]
        with open(src, encoding="utf-8") as f:
            fns.setdefault(stem, set()).update(FN.findall(f.read()))
    return fns


def conclusions():
    """Experiment -> names of the `Conclusion`s declared for it."""
    found = {}
    for src in glob.glob("crates/bench/src/**/*.rs", recursive=True):
        for const, names in CONCLUSIONS.findall(read(src)):
            found[const.lower()] = {n.strip() for n in names.split(",") if n.strip()}
    return found


def unresolved_tests(seeded):
    """One line per test name a document gives its suite without a `fn`,
    and per conclusion name its experiment does not declare."""
    fns = test_fns()
    for experiment, names in conclusions().items():
        module = glob.glob(f"crates/*/src/**/{experiment}.rs", recursive=True)
        module += glob.glob(f"crates/*/src/**/{experiment}/*.rs", recursive=True)
        fns[experiment] = names | {n for src in module for n in ITEM.findall(read(src))}
    missing = []
    for doc, lineno, line in lines(DOCS, seeded):
        for token in TOKEN.findall(line):
            ref = TEST_REF.match(token)
            if doc.endswith(".rs") or not ref or ref.group(1) not in fns:
                continue
            suite, names = ref.groups()
            for name in names.strip("{}").split(","):
                name = name.strip()
                if not fnmatch.filter(fns[suite], name):
                    missing.append(f"MISSING {doc}:{lineno}: {suite}::{name}")
    return missing


def open_items():
    """The numbers of ROADMAP.md's open items."""
    section = read("ROADMAP.md").split("\n## Open items", 1)[1].split("\n## ", 1)[0]
    return {int(n) for n in OPEN_ITEM.findall(section)}


def stale_items(seeded):
    """One line per "ROADMAP item N" whose N is not an open item."""
    texts = [".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md", "ROADMAP.md"]
    texts += DOCS + glob.glob("tools/*.py")
    for root in ("crates", "tests", "examples"):
        texts += glob.glob(f"{root}/**/*.rs", recursive=True)
    live = open_items()
    stale = []
    for doc, text in [(t, read(t)) for t in sorted(texts)] + list(seeded):
        for ref in ITEM_REF.finditer(text):
            lineno = text.count("\n", 0, ref.start()) + 1
            for n in map(int, re.findall(r"\d+", ref.group(1))):
                if n not in live:
                    stale.append(f"STALE {doc}:{lineno}: ROADMAP item {n} is not an open item")
    return stale


def missing_paths(seeded):
    """One line per backticked repository path that matches nothing."""
    missing = []
    for doc, lineno, line in lines(DOCS, seeded):
        for token in TOKEN.findall(line):
            word = token.split()[0] if token.split() else ""
            if not word.startswith(ROOTS):
                continue
            path = re.sub(r"(::|:\d).*$", "", word).rstrip(".,;")
            for alt in alternatives(path):
                if not exists(alt):
                    missing.append(f"MISSING {doc}:{lineno}: {alt}")
    return missing


def audit(seeded=()):
    """Every `MISSING` and `STALE` line, with `seeded` documents added."""
    checks = [stale_commands, unresolved_tests, missing_paths, stale_items]
    return [line for check in checks for line in check(seeded)]


def self_test():
    """Seed one document with a fault per kind, each on its own line after
    a clean one; the audit must flag exactly the faulty lines."""
    suite, names = sorted(test_fns().items())[0]
    name = sorted(names)[0]
    experiment, claims = sorted(conclusions().items())[0]
    claim = sorted(claims)[0]
    live = open_items()
    closed = next(n for n in itertools.count(1) if n not in live)
    seeded = "\n".join([
        f"`{suite}::{name}`, `{experiment}::{claim}` in `tools/doc_audit.py`, ROADMAP item {min(live)}",
        f"`{suite}::{name}_renamed`",
        f"`{experiment}::{claim}_renamed`",
        "`tools/no_such_tool.py`",
        f"ROADMAP\nitem {closed}",
    ])
    flagged = [line for line in audit([("SEEDED.md", seeded)]) if "SEEDED.md" in line]
    for line in flagged:
        print(line)
    lines_hit = sorted({int(line.split(":")[1]) for line in flagged})
    if lines_hit != [2, 3, 4, 5] or len(flagged) != 4:
        print(f"SELF-TEST FAILED: expected lines [2, 3, 4, 5] flagged once each, got {flagged}")
        return 1
    print("self-test: a renamed test, a renamed conclusion, a missing path and a closed item each fail")
    return 0


def main():
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    stale = audit()
    for line in stale:
        print(line)
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
