#!/usr/bin/env python3
"""Turn sample.so output into self / inclusive tables.

    symbolize.py <binary> <samples file>... [--top N] [--under SUBSTRING]

Every distinct address goes through one `addr2line -a -f -C -i` call. With
`-i` an address expands to its chain of inlined functions, innermost first;
a sample's *self* time goes to the innermost function of its innermost
frame, and its *inclusive* time once to every distinct function anywhere on
its stack — inlined ones included, which is what makes `TreeFragment::get`
visible although it never exists as a call.

`--under SUBSTRING` keeps only the samples with a function whose name
contains SUBSTRING somewhere on the stack, and gives percentages of those:
"what is under `commit_pending_ckpt`".
"""
import collections
import subprocess
import sys


def main():
    args = sys.argv[1:]
    top, under = 30, None
    if "--top" in args:
        at = args.index("--top")
        top = int(args[at + 1])
        del args[at:at + 2]
    if "--under" in args:
        at = args.index("--under")
        under = args[at + 1]
        del args[at:at + 2]
    if len(args) < 2:
        sys.exit(__doc__)
    binary, files = args[0], args[1:]

    samples = []
    for name in files:
        with open(name) as f:
            samples += [line.split() for line in f if line.strip()]
    addrs = sorted({a for s in samples for a in s if a != "-"})
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
    n = 0
    for sample in samples:
        stack = [chains[hex(int(a, 16))] if a != "-" else ["[shared object]"]
                 for a in sample]
        on_stack = {fn for chain in stack for fn in chain}
        if under is not None and not any(under in fn for fn in on_stack):
            continue
        n += 1
        self_time[stack[0][0]] += 1
        for fn in on_stack:
            inclusive[fn] += 1
    if n == 0:
        sys.exit(f"no sample has '{under}' on its stack")

    # A function on every stack (`main`, the runtime's entry frames) says
    # nothing about where the time went.
    for fn in [fn for fn, count in inclusive.items() if count == n]:
        del inclusive[fn]
    scope = f"{n} samples" if under is None else \
        f"{n} of {len(samples)} samples, under '{under}'"
    for title, table in (("self", self_time), ("inclusive", inclusive)):
        print(f"--- {title}: {scope} ---")
        for fn, count in table.most_common(top):
            print(f"{100 * count / n:6.1f}%  {count:6d}  {fn}")


if __name__ == "__main__":
    main()
