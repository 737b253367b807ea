#!/usr/bin/env python3
"""Report where hostprof's samples fall: shares per function and per module.

    python3 tools/hostprof/hostprof.py hostprof.out [--top N] [--min-samples K]

Reads the file hostprof.exe writes (the executable's path, its
/proc/self/maps lines and one sampled program counter per line),
symbolises each PC against `nm -n` of the executable, and prints two
tables of sample shares:

- by function: OCaml functions with their numeric suffix dropped
  (`Paradice.Channel.rpc`), runtime C functions (`caml_hash`,
  `compare_val`), and `[name]` for PCs in another mapping (libc, vdso);
- by module: the OCaml module path (`Sim.Engine`, `Stdlib.Hashtbl`),
  `(closure apply)` for the compiler's caml_apply/caml_curry/
  caml_tuplify helpers, and each runtime C function on its own.

With --min-samples K it exits 1 unless there are at least K samples and
the top function is a symbol of the executable (OCaml code or the
runtime linked into it).
"""

import argparse
import bisect
import collections
import re
import struct
import subprocess
import sys

OCAML_SYM = re.compile(r"^caml([A-Z].*)$")
APPLY_SYM = re.compile(r"^caml_(apply|curry|tuplify)\d")
SUFFIX = re.compile(r"_\d+(_\d+)*$")


def parse(path):
    exe, maps, pcs, meta = None, [], [], {}
    with open(path) as f:
        for line in f:
            key, _, rest = line.rstrip("\n").partition(" ")
            if key == "pc":
                pcs.append(int(rest, 16))
            elif key == "map":
                maps.append(rest)
            elif key == "exe":
                exe = rest
            else:
                meta[key] = rest
    return exe, maps, pcs, meta


def mappings(lines):
    out = []
    for line in lines:
        fields = line.split()
        if len(fields) < 5:
            continue
        lo, hi = (int(x, 16) for x in fields[0].split("-"))
        offset = int(fields[2], 16)
        name = fields[5] if len(fields) > 5 else ""
        out.append((lo, hi, offset, name))
    return out


def elf_layout(exe):
    """(is position independent, [(p_offset, p_vaddr, p_filesz)] of PT_LOAD)."""
    with open(exe, "rb") as f:
        head = f.read(64)
        if head[:4] != b"\x7fELF" or head[4] != 2:
            sys.exit("hostprof.py: %s is not a 64-bit ELF file" % exe)
        e_type = struct.unpack_from("<H", head, 16)[0]
        phoff = struct.unpack_from("<Q", head, 32)[0]
        phentsize, phnum = struct.unpack_from("<HH", head, 54)
        loads = []
        for i in range(phnum):
            f.seek(phoff + i * phentsize)
            ph = f.read(56)
            p_type = struct.unpack_from("<I", ph, 0)[0]
            if p_type == 1:
                p_offset, p_vaddr = struct.unpack_from("<QQ", ph, 8)
                p_filesz = struct.unpack_from("<Q", ph, 32)[0]
                loads.append((p_offset, p_vaddr, p_filesz))
    return e_type == 3, loads


def symbols(exe):
    out = subprocess.run(["nm", "-n", exe], capture_output=True, text=True, check=True).stdout
    addrs, names = [], []
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1] in "TtWw":
            addrs.append(int(fields[0], 16))
            names.append(fields[2])
    return addrs, names


def module_of(sym):
    """The OCaml module path of a symbol, or None for a C symbol."""
    m = OCAML_SYM.match(sym)
    if not m:
        return None
    rest = m.group(1)
    # OCaml >= 5.1 writes camlLib__Mod.fn_N; earlier, camlLib__Mod__fn_N
    path = rest.split(".", 1)[0] if "." in rest else rest.rsplit("__", 1)[0]
    return path.replace("Dune__exe__", "", 1).replace("__", ".")


def function_of(sym):
    mod = module_of(sym)
    if mod is None:
        return sym
    m = OCAML_SYM.match(sym)
    rest = m.group(1)
    fn = rest.split(".", 1)[1] if "." in rest else rest.rsplit("__", 1)[-1]
    return mod + "." + SUFFIX.sub("", fn)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("samples", help="the file hostprof.exe wrote")
    ap.add_argument("--top", type=int, default=30, help="rows per table (default 30)")
    ap.add_argument("--min-samples", type=int, default=0,
                    help="exit 1 below this many samples or when the top function "
                         "is not a symbol of the executable")
    args = ap.parse_args()

    exe, map_lines, pcs, meta = parse(args.samples)
    if exe is None:
        sys.exit("hostprof.py: no executable named in %s" % args.samples)
    pie, loads = elf_layout(exe)
    addrs, names = symbols(exe)
    maps = mappings(map_lines)

    funcs, mods = collections.Counter(), collections.Counter()
    in_exe = {}
    for pc in pcs:
        where = next((m for m in maps if m[0] <= pc < m[1]), None)
        sym = None
        if where is not None and where[3] == exe:
            vaddr = pc
            if pie:
                file_off = pc - where[0] + where[2]
                seg = next((s for s in loads if s[0] <= file_off < s[0] + s[2]), None)
                vaddr = None if seg is None else file_off - seg[0] + seg[1]
            if vaddr is not None:
                i = bisect.bisect_right(addrs, vaddr) - 1
                if i >= 0:
                    sym = names[i]
        if sym is None:
            label = "[%s]" % (where[3].rsplit("/", 1)[-1] if where and where[3] else "unknown")
            funcs[label] += 1
            mods[label] += 1
            in_exe[label] = False
            continue
        fn = function_of(sym)
        funcs[fn] += 1
        in_exe[fn] = True
        if APPLY_SYM.match(sym):
            mods["(closure apply)"] += 1
        else:
            mods[module_of(sym) or sym] += 1

    n = len(pcs)
    print("hostprof: %d samples (%s dropped), workload %s, %s ops, %s Hz"
          % (n, meta.get("dropped", "?"), meta.get("workload", "?"),
             meta.get("ops", "?"), meta.get("hz", "?")))
    for title, table in (("by module", mods), ("by function", funcs)):
        print("\n-- %s (top %d) --" % (title, args.top))
        for name, k in table.most_common(args.top):
            print("%6.2f%%  %7d  %s" % (100.0 * k / max(n, 1), k, name))

    if args.min_samples:
        if n < args.min_samples:
            sys.exit("hostprof.py: %d samples, fewer than %d" % (n, args.min_samples))
        top = funcs.most_common(1)[0][0] if funcs else None
        if not in_exe.get(top, False):
            sys.exit("hostprof.py: the top function %s is not a symbol of %s" % (top, exe))


if __name__ == "__main__":
    main()
