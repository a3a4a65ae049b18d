#!/usr/bin/env python3
"""Turn sample.so output into self / inclusive tables.

    symbolize.py <binary> <samples file>... [--top N]

Every distinct address goes through one `addr2line -a -f -C -i` call. With
`-i` an address expands to its chain of inlined functions, innermost first;
a sample's *self* time goes to the innermost function of its innermost
frame, and its *inclusive* time once to every distinct function anywhere on
its stack — inlined ones included, which is what makes `TreeFragment::get`
visible although it never exists as a call.
"""
import collections
import subprocess
import sys


def main():
    args = sys.argv[1:]
    top = 30
    if "--top" in args:
        at = args.index("--top")
        top = int(args[at + 1])
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
    for sample in samples:
        stack = [chains[hex(int(a, 16))] if a != "-" else ["[shared object]"]
                 for a in sample]
        self_time[stack[0][0]] += 1
        for fn in {fn for chain in stack for fn in chain}:
            inclusive[fn] += 1

    n = len(samples)
    # A function on every stack (`main`, the runtime's entry frames) says
    # nothing about where the time went.
    for fn in [fn for fn, count in inclusive.items() if count == n]:
        del inclusive[fn]
    for title, table in (("self", self_time), ("inclusive", inclusive)):
        print(f"--- {title}: {n} samples ---")
        for fn, count in table.most_common(top):
            print(f"{100 * count / n:6.1f}%  {count:6d}  {fn}")


if __name__ == "__main__":
    main()
