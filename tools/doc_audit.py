#!/usr/bin/env python3
"""Check that every repository path the documents name exists.

    tools/doc_audit.py            # from the repository root

A path is a backticked token in DESIGN.md, README.md or EXPERIMENTS.md
that starts with `crates/`, `tests/`, `tools/`, `examples/`, `hostbench/`
or `.github/`. Only its first word counts; a `::symbol` or `:line`
suffix is stripped, `{a,b}` alternatives and glob patterns are expanded,
and `examples/<name>` also resolves to `examples/<name>.rs`. Prints one
`MISSING` line per path that matches nothing and exits 1 if there is one.

Symbols and item numbers are not checked (ROADMAP item 15).
"""
import glob
import itertools
import re
import sys

DOCS = ["DESIGN.md", "README.md", "EXPERIMENTS.md"]
ROOTS = ("crates/", "tests/", "tools/", "examples/", "hostbench/", ".github/")
TOKEN = re.compile(r"`([^`\n]+)`")
BRACES = re.compile(r"\{([^{}]*)\}")


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


def main():
    missing = 0
    for doc in DOCS:
        with open(doc, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
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
