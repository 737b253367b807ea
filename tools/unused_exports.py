#!/usr/bin/env python3
"""Report values exported from lib/**/*.mli that no other module names.

A `val` declared in lib/<dir>/<m>.mli counts as called when some .ml
file other than lib/<dir>/<m>.ml, under lib/ bench/ bin/ test/
perfbench/ or examples/, names it:

  - qualified, with or without a library prefix: `M.v`, `Lib.M.v`,
    and `M.Sub.v` for a value of a submodule `module Sub : sig ... end`;
  - through a module alias: `module A = Lib.M` (or `let module ... in`)
    and then `A.v`;
  - bare, in a file that opens the module anywhere: `open M`,
    `let open M in`, `M.( ... )` or `include M`.

Comments and string literals are ignored.  The scan over-approximates
callers (an open makes every bare occurrence of the name count), so a
reported value has no caller outside its module; whether it is dead or
only module-private is then the compiler's call (warning 32).

Usage: python3 tools/unused_exports.py   (run from the repository root)
Prints one line per reported value and exits 1 if any is not in ALLOW.
"""

import os
import re
import sys

TREES = ["lib", "bench", "bin", "test", "perfbench", "examples"]

# Exports kept without an outside caller, as "Module.value" (or
# "Module.Sub.value").  Each entry needs a reason in CHANGES.md.
ALLOW = set()

IDENT = r"[a-z_][A-Za-z0-9_']*"
MODPATH = r"[A-Z][A-Za-z0-9_']*(?:\s*\.\s*[A-Z][A-Za-z0-9_']*)*"


def strip(text):
    """Blank out comments (nested), string literals and char literals."""
    out = []
    i, n, depth = 0, len(text), 0
    while i < n:
        c = text[i]
        if text.startswith("(*", i):
            depth += 1
            i += 2
            continue
        if depth and text.startswith("*)", i):
            depth -= 1
            i += 2
            continue
        if c == '"':
            i += 1
            while i < n and text[i] != '"':
                i += 2 if text[i] == "\\" else 1
            i += 1
            if not depth:
                out.append('""')
            continue
        m = re.match(r"\{([a-z_]*)\|", text[i:i + 16])
        if m:
            close = "|" + m.group(1) + "}"
            j = text.find(close, i + len(m.group(0)))
            i = n if j < 0 else j + len(close)
            if not depth:
                out.append('""')
            continue
        if c == "'":
            m = re.match(r"'(?:\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2})|[^\\'])'",
                         text[i:i + 6])
            if m and not (i > 0 and re.match(r"[A-Za-z0-9_']", text[i - 1])):
                i += len(m.group(0))
                if not depth:
                    out.append("' '")
                continue
        if not depth:
            out.append(c)
        elif c == "\n":
            out.append(c)
        i += 1
    return "".join(out)


def exports(mli_text):
    """(submodule path, name) for every val of a .mli.

    Blocks other than `module M : sig` (module types, objects) push
    None, and vals inside them are not exports."""
    vals = []
    stack = []
    token = re.compile(
        r"\bmodule\s+type\s+[A-Z]\w*\s*=\s*sig\b"
        r"|\bmodule\s+([A-Z]\w*)\s*:\s*sig\b"
        r"|\b(?:sig|struct|object|begin)\b"
        r"|\bend\b"
        r"|\bval\s+(" + IDENT + ")")
    for m in token.finditer(mli_text):
        if m.group(2):
            if None not in stack:
                vals.append((tuple(stack), m.group(2)))
        elif m.group(0) == "end":
            stack.pop()
        else:
            stack.append(m.group(1))
    return vals


def path_parts(p):
    return [x.strip() for x in p.split(".")]


def ends_with(parts, suffix):
    return len(parts) >= len(suffix) and parts[-len(suffix):] == suffix


class Source:
    def __init__(self, path, text):
        self.path = path
        self.text = strip(text)
        self.aliases = [
            (m.group(1), path_parts(m.group(2)))
            for m in re.finditer(r"\bmodule\s+([A-Z]\w*)\s*=\s*(" + MODPATH + ")",
                                 self.text)
        ]
        opens = []
        for pat in (r"\bopen!?\s+(" + MODPATH + ")",
                    r"\binclude\s+(" + MODPATH + ")",
                    r"(?<![\w'.])(" + MODPATH + r")\s*\.\s*\("):
            opens += [path_parts(m.group(1)) for m in re.finditer(pat, self.text)]
        self.opens = opens
        self.words = set(re.findall(r"[A-Za-z_][A-Za-z0-9_']*", self.text))

    def names(self, modpath, name):
        """Whether this file names [modpath.name]; modpath = [M; Sub...]."""
        if name not in self.words:
            return False
        designators = set()
        for k in range(len(modpath)):
            head, rest = modpath[:k + 1], modpath[k + 1:]
            qualified = [".".join(head)] + [
                a for a, target in self.aliases if ends_with(target, head)]
            for q in qualified:
                designators.add(".".join([q] + rest))
            if any(ends_with(o, head) for o in self.opens):
                designators.add(".".join(rest) if rest else "")
        for d in designators:
            if d:
                pat = (r"(?<![\w'])" + r"\s*\.\s*".join(map(re.escape, d.split(".")))
                       + r"\s*\.\s*" + re.escape(name) + r"(?![\w'])")
            else:
                pat = r"(?<![\w'.])" + re.escape(name) + r"(?![\w'])"
            if re.search(pat, self.text):
                return True
        return False


def scan(root):
    sources = []
    for tree in TREES:
        for dirpath, dirnames, files in os.walk(os.path.join(root, tree)):
            dirnames[:] = [d for d in dirnames if not d.startswith(("_", "."))]
            for f in sorted(files):
                if f.endswith(".ml"):
                    p = os.path.join(dirpath, f)
                    with open(p) as fh:
                        sources.append(Source(os.path.relpath(p, root), fh.read()))
    hits = []
    libdir = os.path.join(root, "lib")
    for d in sorted(os.listdir(libdir)):
        if not os.path.isdir(os.path.join(libdir, d)):
            continue  # lib/dune
        for f in sorted(os.listdir(os.path.join(libdir, d))):
            if not f.endswith(".mli"):
                continue
            mli = os.path.join("lib", d, f)
            own = mli[:-1]
            modname = f[:-4].capitalize()
            with open(os.path.join(root, mli)) as fh:
                vals = exports(strip(fh.read()))
            for sub, name in vals:
                modpath = [modname] + list(sub)
                if not any(s.names(modpath, name) for s in sources if s.path != own):
                    hits.append((mli, ".".join(modpath + [name])))
    return hits


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    hits = scan(root)
    unexpected = 0
    for mli, qual in hits:
        allowed = qual in ALLOW
        unexpected += not allowed
        print(f"{mli}: {qual}{'  (allowed)' if allowed else ''}")
    print(f"{len(hits)} exports without an outside caller, "
          f"{unexpected} not on the allow-list", file=sys.stderr)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
