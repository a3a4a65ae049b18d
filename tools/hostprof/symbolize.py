#!/usr/bin/env python3
"""Turn sample.so (or live.so) output into self / inclusive tables.

    symbolize.py <binary> <samples file>... [--top N] [--under SUBSTRING]
                 [--skip SUBSTRING]...

A line of sample.so output is one sample. A line of live.so output starts
with `W<bytes>`: one live block, weighted by its bytes, so the tables give
shares of the live heap instead of shares of the time. A line of mallocs.so
output starts with `W1`: one allocation, so the tables give shares of the
allocation count.

Every distinct address goes through one `addr2line -a -f -C -i` call. With
`-i` an address expands to its chain of inlined functions, innermost first;
a sample's *self* time goes to the innermost function of its innermost
frame, and its *inclusive* time once to every distinct function anywhere on
its stack — inlined ones included, which is what makes `TreeFragment::get`
visible although it never exists as a call. The inclusive table leaves out
the entry frames (C `main`, `lang_start`, the program's own `main` and the
wrappers between them): every function on every stack that reaches a
`<crate>::main`, or on every stack when none does. A row short of every
stack reads at most 99.9 %.

`--under SUBSTRING` keeps only the samples with a function whose name
contains SUBSTRING somewhere on the stack, and gives percentages of those:
"what is under `commit_pending_ckpt`".

`--skip SUBSTRING` (repeatable) drops every sample with a function whose
name contains SUBSTRING anywhere on the stack before either table is built:
`--skip warm_up` leaves out each hostbench child's untimed warm-up run.
"""
import collections
import os
import subprocess
import sys


def main():
    args = sys.argv[1:]
    top, under, skip = 30, None, []
    if "--top" in args:
        at = args.index("--top")
        top = int(args[at + 1])
        del args[at:at + 2]
    if "--under" in args:
        at = args.index("--under")
        under = args[at + 1]
        del args[at:at + 2]
    while "--skip" in args:
        at = args.index("--skip")
        skip.append(args[at + 1])
        del args[at:at + 2]
    if len(args) < 2:
        sys.exit(__doc__)
    binary, files = args[0], args[1:]

    samples = []  # (weight, addresses)
    unit = "samples"
    for name in files:
        with open(name) as f:
            for fields in (line.split() for line in f):
                if fields and fields[0].startswith("W"):
                    samples.append((int(fields[0][1:]), fields[1:]))
                    unit = "allocations" if fields[0] == "W1" else "bytes"
                elif fields:
                    samples.append((1, fields))
    addrs = sorted({a for _, s in samples for a in s if a != "-"})
    if not addrs:
        sys.exit("no samples inside the executable")

    out = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", binary] + addrs,
        check=True, capture_output=True, text=True).stdout.splitlines()
    # `-a` starts each address's group with the address itself; function
    # name and file:line alternate after it, innermost inlined frame first.
    chains, current = {}, None
    i = 0
    while i < len(out):
        if out[i].startswith("0x") and " " not in out[i]:
            current = chains.setdefault(hex(int(out[i], 16)), [])
            i += 1
        else:
            current.append(out[i])
            i += 2

    self_time = collections.Counter()
    inclusive = collections.Counter()
    under_main = collections.Counter()
    n, skipped, at_main = 0, 0, 0
    for weight, sample in samples:
        stack = [chains[hex(int(a, 16))] if a != "-" else ["[shared object]"]
                 for a in sample] or [["[no frame]"]]
        on_stack = {fn for chain in stack for fn in chain}
        if any(s in fn for s in skip for fn in on_stack):
            skipped += weight
            continue
        if under is not None and not any(under in fn for fn in on_stack):
            continue
        n += weight
        self_time[stack[0][0]] += weight
        for fn in on_stack:
            inclusive[fn] += weight
        if any(fn.endswith("::main") for fn in on_stack):
            at_main += weight
            for fn in on_stack:
                under_main[fn] += weight
    if n == 0:
        sys.exit(f"no sample left (under '{under}', skipping {skip})")

    # A function on every stack (`main`, the runtime's entry frames) says
    # nothing about where the time went. The few allocations std makes
    # before the program's `main` (its runtime set-up) miss most of those
    # frames, so the rule holds over the stacks that reach `main`.
    entry, every = (under_main, at_main) if at_main else (inclusive, n)
    for fn in [fn for fn, count in entry.items() if count == every]:
        del inclusive[fn]
    total = sum(weight for weight, _ in samples)
    scope = f"{n} {unit}" if under is None else \
        f"{n} of {total - skipped} {unit}, under '{under}'"
    if skip:
        scope += f"; {skipped} skipped ({', '.join(skip)})"
    for title, table in (("self", self_time), ("inclusive", inclusive)):
        print(f"--- {title}: {scope} ---")
        # Ties rank by name: `on_stack` is a set, so the order a table
        # meets its keys in follows the per-process hash seed.
        ranked = sorted(table.items(), key=lambda row: (-row[1], row[0]))
        for fn, count in ranked[:top]:
            share = 100.0 if count == n else min(100 * count / n, 99.9)
            print(f"{share:6.1f}%  {count:9d}  {fn}")


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early (`| head -1`): nobody wants the rest.
        # Point stdout at /dev/null so the interpreter's last flush at
        # exit cannot raise again, and leave quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
