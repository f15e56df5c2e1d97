#!/usr/bin/env python3
"""Prints each microbenchmark row's median against a baseline's:

    python3 tools/micro_ratio.py BASE.json NEW.json

Both files are what ``tools/bench_micro.sh`` writes. A ratio above 1
means the new run is slower. It reports and gates nothing: the exit
status is 0 whatever the ratios (1 only on a malformed command line),
since rows measured on different hosts are not comparable and a shared
runner's quartile spread is not yet known.
"""
import json
import sys


def rows(path):
    with open(path) as f:
        doc = json.load(f)
    return doc["provenance"], {r["bench"]: r for r in doc["rows"]}


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip())
        return 1
    (pb, base), (pn, new) = rows(argv[0]), rows(argv[1])
    print(f"base {pb['commit']} (nproc {pb['nproc']}, {pb['kernel']}) -> "
          f"new {pn['commit']} (nproc {pn['nproc']}, {pn['kernel']})")
    for name, r in new.items():
        b = base.get(name)
        if b is None:
            print(f"{name:34} {'':>10}    {r['median_ns']:>10.1f} ns  (new row)")
            continue
        print(f"{name:34} {b['median_ns']:>10.1f} -> {r['median_ns']:>10.1f} ns  "
              f"x{r['median_ns'] / b['median_ns']:.2f}  "
              f"(base [{b['q1_ns']}, {b['q3_ns']}], new [{r['q1_ns']}, {r['q3_ns']}])")
    for name in sorted(base.keys() - new.keys()):
        print(f"{name:34} {base[name]['median_ns']:>10.1f} -> gone")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
