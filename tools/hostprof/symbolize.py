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
visible although it never exists as a call.

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
    n, skipped = 0, 0
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
    if n == 0:
        sys.exit(f"no sample left (under '{under}', skipping {skip})")

    # A function on every stack (`main`, the runtime's entry frames) says
    # nothing about where the time went.
    for fn in [fn for fn, count in inclusive.items() if count == n]:
        del inclusive[fn]
    total = sum(weight for weight, _ in samples)
    scope = f"{n} {unit}" if under is None else \
        f"{n} of {total - skipped} {unit}, under '{under}'"
    if skip:
        scope += f"; {skipped} skipped ({', '.join(skip)})"
    for title, table in (("self", self_time), ("inclusive", inclusive)):
        print(f"--- {title}: {scope} ---")
        for fn, count in table.most_common(top):
            print(f"{100 * count / n:6.1f}%  {count:9d}  {fn}")


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early (`| head -1`): nobody wants the rest.
        # Point stdout at /dev/null so the interpreter's last flush at
        # exit cannot raise again, and leave quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
