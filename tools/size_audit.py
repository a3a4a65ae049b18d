#!/usr/bin/env python3
"""Write the size ledger: how much code each crate and each runtime module
is, and how many functions each file makes public.

    tools/size_audit.py                 # from the repository root
    tools/size_audit.py --out PATH      # write somewhere else

Writes `SIZE.json` (or PATH):

`crates`   non-test lines per crate: every `.rs` file under
           `crates/<name>/src`, each counted up to its `#[cfg(test)]
           mod <name> {` (the unit tests end a file; `pub_audit.py`
           shares this cut);
`runtime`  the same count per module under `crates/core/src/runtime`;
`pub_fns`  per file under `crates/*/src`, the `fn`s declared `pub`,
           `pub(crate)`, `pub(super)` or `pub(in …)` outside its unit
           tests (files with none are left out);
`tests`    test lines per crate: its `src` files' unit-test modules plus
           every `.rs` file under `crates/<name>/tests`; and under
           `tests/` the lines of the workspace's own test suites;
`docs`     the lines of DESIGN.md, README.md and EXPERIMENTS.md;
`ports`    per app under `crates/apps/src` with both ports, the lines of
           its AllScale port (`allscale_version.rs`) and of its MPI port
           (`mpi_version.rs`) that are code: up to the unit tests, as for
           `crates`, and neither blank nor a `//` comment (EXPERIMENTS.md
           E9 compares the two).

CI regenerates the file and diffs it against the checked-in copy, so a
change that grows or shrinks the code, its tests or its documents says so
in its diff. Exits 1 when a file under `crates/core/src/runtime` is over
900 lines, tests included (DESIGN.md §3.1: one module per tenant, each
small enough to read).
"""
import glob
import json
import os
import re
import sys

RUNTIME = "crates/core/src/runtime"
DOCS = ["DESIGN.md", "README.md", "EXPERIMENTS.md"]
APPS = "crates/apps/src"
PORTS = {"allscale": "allscale_version.rs", "mpi": "mpi_version.rs"}
BOUND = 900
VIS = r"pub(?:\((?:crate|super|in [^)]*)\))?"
PUB_FN = re.compile(rf"^\s*{VIS} (?:(?:const|unsafe|async) )*fn ", re.M)


# The unit-test module: a column-0 `#[cfg(test)]` on a `mod <name> {`. A
# `#[cfg(test)]` on anything else (a `thread_local!`, an out-of-line
# `mod name;`) is not where the file's code ends.
TEST_MODULE = re.compile(r"^#\[cfg\(test\)\]\s*mod \w+ \{", re.M)


def without_unit_tests(src):
    """A file's text up to its `#[cfg(test)]` module (the unit tests end
    a file). `pub_audit.py` imports this cut, so both tools count the
    same text."""
    m = TEST_MODULE.search(src)
    return src if not m else src[: m.start()]


def code_lines(path):
    """A port's lines of code: before its unit tests, neither blank nor a
    `//` comment (doc comments included)."""
    lines = without_unit_tests(read(path)).splitlines()
    return sum(1 for line in lines if line.strip() and not line.strip().startswith("//"))


def sources(root):
    return sorted(glob.glob(f"{root}/**/*.rs", recursive=True))


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def main():
    out = "SIZE.json"
    if sys.argv[1:2] == ["--out"] and len(sys.argv) == 3:
        out = sys.argv[2]
    elif len(sys.argv) > 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    crates, runtime, pub_fns, tests, over = {}, {}, {}, {}, []
    for crate in sorted(os.listdir("crates")):
        test_files = sources(f"crates/{crate}/tests")
        tests[crate] = sum(read(path).count("\n") for path in test_files)
        for path in sources(f"crates/{crate}/src"):
            src = read(path)
            code = without_unit_tests(src)
            lines = code.count("\n")
            crates[crate] = crates.get(crate, 0) + lines
            tests[crate] += src.count("\n") - lines
            if path.startswith(RUNTIME + "/"):
                runtime[path[len(RUNTIME) + 1:]] = lines
                if src.count("\n") > BOUND:
                    over.append(f"OVER {path}: {src.count(chr(10))} lines (bound {BOUND})")
            fns = len(PUB_FN.findall(code))
            if fns:
                pub_fns[path] = fns
    tests["tests/"] = sum(read(path).count("\n") for path in sources("tests"))
    docs = {doc: read(doc).count("\n") for doc in DOCS}
    ports = {}
    for app in sorted(os.listdir(APPS)):
        paths = {port: f"{APPS}/{app}/{name}" for port, name in PORTS.items()}
        if all(os.path.exists(path) for path in paths.values()):
            ports[app] = {port: code_lines(path) for port, path in paths.items()}
    ledger = {"crates": crates, "runtime": runtime, "pub_fns": pub_fns, "tests": tests,
              "docs": docs, "ports": ports}
    with open(out, "w", encoding="utf-8") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
        f.write("\n")
    for line in over:
        print(line)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
