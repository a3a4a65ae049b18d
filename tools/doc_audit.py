#!/usr/bin/env python3
"""Check that every repository path and command the documents name exists.

    tools/doc_audit.py            # from the repository root

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
`recorded_*` matches any) must be a `fn` in some file of that stem.
Prints one `MISSING` line per name that is not.

Other symbols and item numbers are not checked (ROADMAP item 15).
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


def lines(docs):
    """(doc, line number, text) of every line of `docs`, then of every
    module doc line of the Rust sources under `examples/` and
    `crates/*/src`."""
    for doc in docs:
        with open(doc, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                yield doc, lineno, line
    sources = glob.glob("examples/*.rs") + glob.glob("crates/*/src/**/*.rs", recursive=True)
    for src in sorted(sources):
        with open(src, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if line.lstrip().startswith("//!"):
                    yield src, lineno, line


def stale_commands():
    """One line per `--bin`/`--example` that names no declared target and
    per experiment named on a command line without a checked-in file."""
    declared = declared_targets()
    stale = []
    for doc, lineno, line in lines(COMMAND_DOCS):
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


def unresolved_tests():
    """One line per test name a document gives its suite without a `fn`."""
    fns = test_fns()
    missing = []
    for doc, lineno, line in lines(DOCS):
        for token in TOKEN.findall(line):
            ref = TEST_REF.match(token)
            if doc not in DOCS or not ref or ref.group(1) not in fns:
                continue
            suite, names = ref.groups()
            for name in names.strip("{}").split(","):
                name = name.strip()
                if not fnmatch.filter(fns[suite], name):
                    missing.append(f"MISSING {doc}:{lineno}: {suite}::{name}")
    return missing


def main():
    stale = stale_commands() + unresolved_tests()
    for line in stale:
        print(line)
    missing = len(stale)
    for doc, lineno, line in lines(DOCS):
        for token in TOKEN.findall(line):
            word = token.split()[0] if token.split() else ""
            if not word.startswith(ROOTS):
                continue
            path = re.sub(r"(::|:\d).*$", "", word).rstrip(".,;")
            for alt in alternatives(path):
                if not exists(alt):
                    print(f"MISSING {doc}:{lineno}: {alt}")
                    missing += 1
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
