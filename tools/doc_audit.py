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

A command is `--K X`, K one of `bin`, `example` and `bench`, in those
documents and module docs, in ROADMAP.md or in
`.claude/skills/verify/SKILL.md`: X must be a `[[K]]` some `Cargo.toml`
declares. Every experiment named on an
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

A test citation is a backticked path of a test file under `tests/` or
`crates/*/tests/` followed by `::name` or `::{a, b}`: each name must be a
`fn` in that file. Prints one `MISSING` line per name that is not.

A symbol is a backticked `Type::member` or `Type::{a, b}` in those three
documents whose `Type` the workspace defines (a `struct`, `enum`, `trait`
or `type` under `crates/*/src` or `tests/common`; `Cow::Borrowed` or a
generic `R::empty` is skipped): each member must be a `fn`, field,
variant or `const` in a file that defines or `impl`s `Type`. Prints one
`MISSING` line per member that is not.

A section citation is `DESIGN.md §N` or `DESIGN §N` (`N` as `5`, `5.4`
or `5.4b`) in every file the item check reads: `N` must number a heading
of DESIGN.md, or, as `8.K`, item K of §8's numbered list. Prints one
`STALE` line per citation that is neither.

The knob table is the table of DESIGN.md §7 headed `| knob | reader |`.
Its preamble names the config structs and states three counts: the
settable values, the structs' `pub` fields and the `FaultPlan` builder
arms (each `pub fn` of `impl FaultPlan` that takes `mut self` and
returns `Self`, or takes `&mut self` and returns nothing). Every such
field and arm must be a `Type::member` in the first column of some row,
and every count must equal the audit's. Prints one `MISSING` line per
field or arm without a row and one `STALE` line per count that is off.

`--self-test` runs the audit with one seeded document and one seeded
Rust source beside the real ones: a renamed `suite::test`, a renamed
`experiment::conclusion`, a missing path, a closed item number, a
renamed `fn` behind a test path, a section DESIGN.md does not have, a
renamed method, an undeclared bench target and a config field with no
knob row must each fail it,
and a line naming only what exists must not. Exits 1 when the audit
misses a seeded fault or flags the clean line.
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
KINDS = "bin|example|bench"
TARGET = re.compile(rf"--({KINDS})\s+([A-Za-z0-9_-]+)")
# A `[` opens a synopsis placeholder (`[--out DIR] [NAME ...]`), not a name.
EXPERIMENTS = re.compile(r"--bin\s+experiments\s+--\s+([^`#|);<>\[]*)")
DECLARED = re.compile(rf'\[\[({KINDS})\]\]\s*\nname\s*=\s*"([^"]+)"')
BRACES = re.compile(r"\{([^{}]*)\}")
TEST_REF = re.compile(r"^([a-z0-9_]+)::(\{[^{}`]*\}|[A-Za-z0-9_*]+)")
FN = re.compile(r"\bfn\s+([A-Za-z0-9_]+)")
ITEM = re.compile(r"\b(?:fn|mod)\s+([A-Za-z0-9_]+)")
CONCLUSIONS = re.compile(r"const ([A-Z0-9_]+): &\[Conclusion\] = conclusions!\[([^\]]*)\]")
GAP = r"(?:\s|//[/!]?|#)+"
ITEM_REF = re.compile(rf"ROADMAP{GAP}items?{GAP}(\d+(?:(?:,|{GAP}and|{GAP}or){GAP}\d+)*)")
OPEN_ITEM = re.compile(r"^(\d+)\. \*\*", re.M)
TEST_PATH = re.compile(r"^((?:crates/[^/`\s]+/)?tests/[^`\s:]+\.rs)::(\{[^{}`]*\}|\w+)")
SECTION_REF = re.compile(rf"DESIGN(?:\.md)?{GAP}§(\d+(?:\.\d+)?[a-z]?)")
HEADING = re.compile(r"^#{2,3}\s+(\d+(?:\.\d+)?[a-z]?)\.?\s", re.M)
SYMBOL = re.compile(r"\b([A-Z]\w*)::(\{[^{}]*\}|\w+(?:/\w+)*)")
DEFINES = re.compile(r"\b(?:struct|enum|trait|type)\s+([A-Z]\w*)")
IMPL = re.compile(r"\bimpl\b([^{;]*)\{")
KNOBS = re.compile(
    r"(\d+)\s+of\s+them:\s+the\s+(\d+)\s+`pub`\s+fields\s+of\s+the\s+\w+\s+config\s+structs\s+"
    r"\(([^)]*)\)\s+and\s+the\s+(\d+)\s+`FaultPlan`\s+builder\s+arms"
)
ARM = re.compile(r"pub fn (\w+)\((?:mut self\b[^)]*\)\s*->\s*Self|&mut self\b[^)]*\)\s*\{)")


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
    """(kind, name) of every `[[bin]]`, `[[example]]` and `[[bench]]` of every manifest."""
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
    """One line per `--bin`/`--example`/`--bench` that names no declared target and
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


def cross_referencing():
    """The files whose item and section references are checked."""
    texts = [".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md", "ROADMAP.md"]
    texts += DOCS + glob.glob("tools/*.py")
    for root in ("crates", "tests", "examples"):
        texts += glob.glob(f"{root}/**/*.rs", recursive=True)
    return sorted(texts)


def stale_items(seeded):
    """One line per "ROADMAP item N" whose N is not an open item."""
    live = open_items()
    stale = []
    for doc, text in [(t, read(t)) for t in cross_referencing()] + list(seeded):
        for ref in ITEM_REF.finditer(text):
            lineno = text.count("\n", 0, ref.start()) + 1
            for n in map(int, re.findall(r"\d+", ref.group(1))):
                if n not in live:
                    stale.append(f"STALE {doc}:{lineno}: ROADMAP item {n} is not an open item")
    return stale


def unresolved_test_paths(seeded):
    """One line per `fn` a test file's path is cited with that the file
    does not have."""
    missing = []
    for doc, lineno, line in lines(DOCS, seeded):
        for token in TOKEN.findall(line):
            ref = TEST_PATH.match(token)
            if not ref or not os.path.isfile(ref.group(1)):
                continue  # a missing file is `missing_paths`' line
            fns = set(FN.findall(read(ref.group(1))))
            for name in ref.group(2).strip("{}").split(","):
                if name.strip() not in fns:
                    missing.append(f"MISSING {doc}:{lineno}: {ref.group(1)}::{name.strip()}")
    return missing


def design_sections():
    """Every section number DESIGN.md has a heading for, and `8.K` for
    each item K of §8's numbered list."""
    text = read("DESIGN.md")
    sections = set(HEADING.findall(text))
    notes = text.split("\n## 8.", 1)[1].split("\n## ", 1)[0]
    return sections | {f"8.{n}" for n in OPEN_ITEM.findall(notes)}


def stale_sections(seeded):
    """One line per `DESIGN.md §N` that names no section."""
    sections = design_sections()
    stale = []
    for doc, text in [(t, read(t)) for t in cross_referencing()] + list(seeded):
        for ref in SECTION_REF.finditer(text):
            if ref.group(1) not in sections:
                lineno = text.count("\n", 0, ref.start()) + 1
                stale.append(f"STALE {doc}:{lineno}: DESIGN.md has no §{ref.group(1)}")
    return stale


def rust_sources(seeded=()):
    """(path, text) of every Rust file under `crates/*/src` and
    `tests/common`, then of the seeded `.rs` documents."""
    paths = glob.glob("crates/*/src/**/*.rs", recursive=True) + glob.glob("tests/common/*.rs")
    return [(p, read(p)) for p in sorted(paths)] + [(n, t) for n, t in seeded if n.endswith(".rs")]


def type_files(seeded=()):
    """Type the workspace defines -> texts of the files that define or
    `impl` it."""
    defined, impls = {}, {}
    for path, text in rust_sources(seeded):
        for name in DEFINES.findall(text):
            defined.setdefault(name, []).append(text)
        for head in IMPL.findall(text):
            head = re.sub(r"^\s*<(?:[^<>]|<[^<>]*>)*>", "", head).rsplit(" for ", 1)[-1]
            target = re.match(r"\s*(?:&\s*(?:'\w+\s+)?(?:mut\s+)?)?(?:dyn\s+)?(?:\w+::)*([A-Z]\w*)", head)
            if target:
                impls.setdefault(target.group(1), []).append(text)
    return {name: texts + impls.get(name, []) for name, texts in defined.items()}


def has_member(texts, member):
    """Whether `member` is a `fn`, field, variant or `const` in `texts`."""
    m = re.escape(member)
    forms = [rf"\b(?:fn|const)\s+{m}\b", rf"^\s*(?:pub(?:\([^)]*\))?\s+)?{m}\s*:[^:]"]
    if member[0].isupper():
        forms.append(rf"^\s*{m}\b\s*(?:[,({{]|as\b)")
    pattern = re.compile("|".join(forms), re.M)
    return any(pattern.search(text) for text in texts)


def unresolved_symbols(seeded):
    """One line per backticked `Type::member` whose type the workspace
    defines without such a member."""
    files = type_files(seeded)
    missing = []
    for doc, lineno, line in lines(DOCS, seeded):
        if doc.endswith(".rs"):
            continue
        for token in TOKEN.findall(line):
            for name, members in SYMBOL.findall(token):
                if name not in files:
                    continue
                for member in re.split(r"[,/]", members.strip("{}")):
                    member = member.strip()
                    if member and not has_member(files[name], member):
                        missing.append(f"MISSING {doc}:{lineno}: {name}::{member}")
    return missing


def struct_fields(text, name):
    """The `pub` fields of `pub struct name` in `text`."""
    head = re.search(rf"pub struct {name}\b[^{{;]*\{{", text)
    if not head:
        return []
    depth, end = 1, head.end()
    while depth:
        depth += {"{": 1, "}": -1}.get(text[end], 0)
        end += 1
    return re.findall(r"^\s*pub\s+(\w+)\s*:", text[head.end():end], re.M)


def unlisted_knobs(seeded):
    """One line per config field or `FaultPlan` arm without a row in
    DESIGN.md §7's knob table, and per preamble count that is off."""
    text = read("DESIGN.md")
    section = text.split("\n## 7.", 1)[1].split("\n## ", 1)[0]
    preamble = KNOBS.search(section)
    at = text.index(section) + (preamble.start() if preamble else 0)
    where = f"DESIGN.md:{text.count(chr(10), 0, at) + 1}"
    if not preamble:
        return [f"STALE {where}: §7 does not state its knob counts"]
    table = section.split("| knob | reader |", 1)[1].split("\n\n", 1)[0]
    named = set()
    for row in table.split("\n"):
        cell = row.split("|")[1] if row.count("|") > 2 else ""
        for name, members in SYMBOL.findall(cell):
            named |= {(name, m.strip()) for m in members.strip("{}").split(",")}
    sources = rust_sources(seeded)
    knobs = []
    for name in re.findall(r"`(\w+)`", preamble.group(3)):
        # a seeded source's fields come on top of the real struct's
        for path, src in sources:
            knobs += [(path, src, name, f) for f in struct_fields(src, name)]
    fields = len(knobs)
    for path, src in sources:
        impl = re.search(r"\nimpl FaultPlan \{(.*?)\n\}", src, re.S)
        knobs += [(path, src, "FaultPlan", a) for a in ARM.findall(impl.group(1))] if impl else []
    stale = []
    for path, src, name, member in knobs:
        if (name, member) not in named:
            at = re.search(rf"pub\s+{member}\s*:|fn\s+{member}\b", src)
            lineno = src.count("\n", 0, at.start() if at else 0) + 1
            stale.append(f"MISSING {path}:{lineno}: {name}::{member} has no row in DESIGN.md §7's knob table")
    counts = [(preamble.group(1), len(knobs), "settable values"), (preamble.group(2), fields, "config fields"),
              (preamble.group(4), len(knobs) - fields, "FaultPlan arms")]
    for stated, found, what in counts:
        if int(stated) != found:
            stale.append(f"STALE {where}: §7 counts {stated} {what}, the audit {found}")
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
    checks = [stale_commands, unresolved_tests, missing_paths, stale_items, unresolved_test_paths,
              stale_sections, unresolved_symbols, unlisted_knobs]
    return [line for check in checks for line in check(seeded)]


def self_test():
    """Seed one document with a fault per kind, each on its own line after
    a clean one, and one Rust source with a config field; the audit must
    flag exactly the faulty lines, the field and the knob counts it
    throws off."""
    suite, names = sorted(test_fns().items())[0]
    name = sorted(names)[0]
    experiment, claims = sorted(conclusions().items())[0]
    claim = sorted(claims)[0]
    live = open_items()
    closed = next(n for n in itertools.count(1) if n not in live)
    test_file = sorted(glob.glob("tests/*.rs"))[0]
    test_fn = sorted(FN.findall(read(test_file)))[0]
    sections = design_sections()
    missing_section = next(f"5.{n}" for n in itertools.count(99) if f"5.{n}" not in sections)
    type_name, texts = sorted(type_files().items())[0]
    member = sorted(n for text in texts for n in FN.findall(text))[0]
    seeded = "\n".join([
        f"`{suite}::{name}`, `{experiment}::{claim}` in `tools/doc_audit.py`, ROADMAP item {min(live)}, "
        f"`{test_file}::{test_fn}`, DESIGN.md §7, `{type_name}::{member}`",
        f"`{suite}::{name}_renamed`",
        f"`{experiment}::{claim}_renamed`",
        "`tools/no_such_tool.py`",
        f"ROADMAP\nitem {closed}",
        f"`{test_file}::{test_fn}_renamed`",
        f"DESIGN.md §{missing_section}",
        f"`{type_name}::{member}_renamed`",
        f"`--{KINDS.split('|')[-1]} no_such_target`",
    ])
    source = "pub struct RtConfig {\n    pub seeded_knob: bool,\n}\n"
    flagged = audit([("SEEDED.md", seeded), ("SEEDED.rs", source)])
    flagged = [line for line in flagged if "SEEDED" in line or "§7 counts" in line]
    for line in flagged:
        print(line)
    lines_hit = sorted(int(line.split(":")[1]) for line in flagged if "SEEDED.md" in line)
    knob = [line for line in flagged if line.startswith("MISSING SEEDED.rs:2: RtConfig::seeded_knob")]
    counts = [line for line in flagged if "§7 counts" in line]
    if lines_hit != [2, 3, 4, 5, 7, 8, 9, 10] or len(knob) != 1 or len(counts) != 2:
        print(f"SELF-TEST FAILED: expected lines 2-5 and 7-10 once each, the field and two counts, got {flagged}")
        return 1
    print("self-test: a renamed test, conclusion, test fn and method, a missing path, a closed item,")
    print("a missing section, an undeclared bench target and a config field without a knob row each fail")
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
