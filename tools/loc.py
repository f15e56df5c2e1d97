#!/usr/bin/env python3
"""Two size counts of the tree: non-test Rust lines and CLI flags.

    python3 tools/loc.py [ROOT]

Lines: every line (blank and comment lines included) of the ``.rs``
files under ``crates/``, ``src/`` and ``examples/``, leaving out files
under a ``tests/`` directory and each file's trailing
``#[cfg(test)] mod ...`` (from that attribute to the end of the file).

Flags: for each binary in ``src/bin/``, the distinct ``--flag`` names
its argument parser matches (the ``"--name" =>`` arms; ``-h`` and
``--help`` count as one, ``--help``).

Report only: it prints the counts and gates nothing, so two trees (say,
a change and a ``git clone`` of its parent) compare by running it on
both.
"""

import os
import re
import sys

DIRS = ("crates", "src", "examples")
TEST_MODULE = re.compile(r"^#\[cfg\(test\)\]\s*\n(?:#\[[^\n]*\]\s*\n)*mod \w+", re.M)
FLAG_ARM = re.compile(r'^\s*(?:"-\w"\s*\|\s*)?"(--[a-z0-9-]+)"(?:\s*\|\s*"--[a-z0-9-]+")*\s*=>', re.M)


def non_test_lines(path):
    with open(path, encoding="utf-8") as f:
        text = f.read()
    tests = list(TEST_MODULE.finditer(text))
    if tests:
        text = text[: tests[-1].start()]
    return text.count("\n")


def rust_lines(root):
    total = 0
    for top in DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("tests", "target"))
            total += sum(non_test_lines(os.path.join(dirpath, n)) for n in filenames if n.endswith(".rs"))
    return total


def flags(root):
    bins = os.path.join(root, "src", "bin")
    out = {}
    for name in sorted(os.listdir(bins)):
        if name.endswith(".rs"):
            with open(os.path.join(bins, name), encoding="utf-8") as f:
                out[name[:-3]] = sorted(set(FLAG_ARM.findall(f.read())))
    return out


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    print(f"non-test Rust lines (crates/, src/, examples/): {rust_lines(root)}")
    per_bin = flags(root)
    for name, names in per_bin.items():
        print(f"flags {name}: {len(names)}")
    print(f"flags total: {sum(len(n) for n in per_bin.values())}")


if __name__ == "__main__":
    main()
