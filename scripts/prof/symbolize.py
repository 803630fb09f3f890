#!/usr/bin/env python3
"""Symbolize sampler.c dumps: self / inclusive tables, callers of a function.

  symbolize.py [--within FRAME] [--exclude FRAME] [--callers FRAME]
               [--top N] prof.<pid>...

--within keeps only the samples whose stack has a frame containing FRAME
(e.g. EpochTimer::run: the timed phase), --exclude drops those that have one
(e.g. stock_throughput: the unreplicated baseline pass). Inlined frames are
expanded (addr2line -i), so `hash_one` or `copy_nonoverlapping` show up.
"""
import argparse, collections, os, subprocess

def load(path):
    """[(stack of absolute addresses)], [(start, end, file offset, object)]"""
    maps, stacks, in_maps = [], [], True
    for line in open(path):
        if line.startswith("--"):
            in_maps = False
        elif in_maps:
            f = line.split()
            if len(f) >= 6:
                lo, hi = (int(x, 16) for x in f[0].split("-"))
                maps.append((lo, hi, int(f[2], 16), f[5]))
        elif line.strip():
            stacks.append([int(a, 16) for a in line.split()])
    return stacks, maps

def symbolize(stacks, maps):
    """Stacks of function names, innermost first, signal frames dropped."""
    # A position-independent object's link-time addresses count from where
    # its first (file offset 0) segment was mapped.
    base = {}
    for lo, _, off, obj in maps:
        if off == 0:
            base.setdefault(obj, lo)
    def locate(addr):
        for lo, hi, _, obj in maps:
            if lo <= addr < hi:
                return obj, addr - base.get(obj, 0)
        return "?", addr
    trimmed, wanted = [], collections.defaultdict(set)
    for st in stacks:
        where = [locate(a) for a in st]
        # on_prof and the signal trampoline sit above the interrupted frame.
        cut = max((i for i, (o, _) in enumerate(where) if "sampler" in o), default=-1) + 2
        # A return address points after its call: step back into it.
        frames = [(o, a if i == 0 else a - 1) for i, (o, a) in enumerate(where[cut:])]
        trimmed.append(frames)
        for o, a in frames:
            wanted[o].add(a)
    names = {}
    for obj, addrs in wanted.items():
        addrs = sorted(addrs)
        for a in addrs:
            names[obj, a] = [f"{os.path.basename(obj)}+{a:#x}"]
        if not os.path.exists(obj):
            continue
        out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", obj] + [hex(a) for a in addrs],
                             capture_output=True, text=True).stdout.splitlines()
        cur = None
        for i, line in enumerate(out):
            if line.startswith("0x"):
                cur = (obj, int(line, 16))
                found = []
                j = i + 1
                while j < len(out) and not out[j].startswith("0x"):
                    found.append(out[j])  # function, then file:line
                    j += 2
                if any(f != "??" for f in found):
                    names[cur] = found
    return [[n for f in st for n in names[f]] for st in trimmed]

def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("dumps", nargs="+")
    for flag in ("--within", "--exclude", "--callers"):
        ap.add_argument(flag, metavar="FRAME")
    ap.add_argument("--top", type=int, default=30)
    args = ap.parse_args()
    stacks = [s for d in args.dumps for s in symbolize(*load(d))]
    has = lambda st, frame: any(frame in n for n in st)
    stacks = [s for s in stacks if s and (not args.within or has(s, args.within))
              and not (args.exclude and has(s, args.exclude))]
    total = len(stacks) or 1
    def table(title, counts):
        print(f"\n{title} ({total} samples)")
        for name, n in counts.most_common(args.top):
            print(f"{100 * n / total:6.1f} %  {n:6d}  {name}")
    table("self", collections.Counter(s[0] for s in stacks))
    table("inclusive", collections.Counter(n for s in stacks for n in set(s)))
    if args.callers:
        table(f"callers of {args.callers}", collections.Counter(
            s[i + 1] for s in stacks for i, n in enumerate(s[:-1])
            if args.callers in n and args.callers not in s[i + 1]))

if __name__ == "__main__":
    main()
