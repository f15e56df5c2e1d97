#!/usr/bin/env python3
"""Alternated A/B pairs of two ``minos-server`` binaries, in the form
ROADMAP's perf claims use: per metric, each side's median and quartiles
and how many pairs B won.

Closed loop (the benchmark's harness, one run per side and pair):

    python3 tools/ab_pairs.py A_SERVER B_SERVER --seeds 101-110 \\
        --workloads etc_read,large_heavy [--seconds 20] [--out DIR]

runs ``target/release/minos-benchmark --server BIN --root . --out DIR
--workload W --seed S --seconds 20 --trace 0`` for every seed x
workload, A and B alternately (which side goes first alternates with the
pair), and reads the end-to-end metrics the harness prints on its last
line. Which direction is better comes from ``BENCHMARK.json``.

Open loop (``--open-loop RATE``): each side is ``minos-server --cores 2
--port P --json`` driven by ``minos-loadgen --target 127.0.0.1:P
--queues 2 --rate RATE --duration D --seed S --json``; the metrics are
the small class p50/p99 and the large class p50/p90/p99 (µs), the loss
rate, and the loadgen's ``behind_max_us``: the worst lag of a client
behind its schedule, so a run where the client itself stalled shows.
A 5 s run at 20 k/s holds ~125 large requests, so its large p99 is a
run's second-worst; read the p90 there.

Feature on/off pairs: ``--a-args`` and ``--b-args`` add ``minos-server``
flags to one side (closed loop: through ``MINOS_BENCH_SERVER_ARGS``), so
A and B may be one binary; ``--loadgen-args`` adds ``minos-loadgen``
flags to both sides of an open-loop pair. Work stealing at 100 k/s:

    python3 tools/ab_pairs.py target/release/minos-server \\
        target/release/minos-server --open-loop 100000 --seeds 11-20 \\
        --loadgen-args "--p-large 0.02" --b-args "--steal"

Per-layer rows from the same runs: ``--snapshot NAME`` (repeatable)
reads one leaf of each run's final server snapshot (closed loop:
``server-W.exit.json`` in the run's out dir; open loop: the server's
``--json`` report) and tabulates it like the end-to-end rows, lower
counted as better. ``NAME`` is a metric (its ``value``) or a metric and
a field, e.g. ``core.0.handovers`` or
``core.1.large.queue_wait_ns.p90``, or the snapshot's ``elapsed_ms``.

Every run's raw result goes to ``DIR/pairs.jsonl``, one JSON object per
line; ``--report DIR/pairs.jsonl`` prints the tables again from it
(then A and B may be left out). Build both servers first (``cargo build
--release``, and the harness with ``CARGO_TARGET_DIR=target cargo build
--release --manifest-path benchmark/Cargo.toml``); for the parent,
``git clone`` it elsewhere and build it there. Run nothing else on the
host meanwhile.
"""

import argparse
import json
import os
import shlex
import signal
import statistics
import subprocess
import sys
import time

OPEN_LOOP_METRICS = [
    ("small_p50_us", "lower"),
    ("small_p99_us", "lower"),
    ("large_p50_us", "lower"),
    ("large_p90_us", "lower"),
    ("large_p99_us", "lower"),
    ("loss_rate", "lower"),
    ("behind_max_us", "lower"),
]


def seeds(spec):
    """``101-110`` or ``3,5,8``."""
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def quartiles(xs):
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def side_args(args, side):
    """The extra ``minos-server`` flags of ``side``."""
    return shlex.split(args.a_args if side == "A" else args.b_args)


def snapshot_leaves(args, text):
    """The ``--snapshot`` leaves of one server snapshot line (``None``
    where the snapshot lacks one)."""
    doc = json.loads(text) if text.strip() else {}
    metrics = doc.get("metrics", {})
    out = {}
    for name in args.snapshot:
        if name == "elapsed_ms":
            out[name] = doc.get(name)
        elif name in metrics:
            out[name] = metrics[name].get("value")
        else:
            metric, _, field = name.rpartition(".")
            out[name] = (metrics.get(metric) or {}).get(field)
    return out


def closed_loop(args, server, workload, seed, side):
    out = os.path.join(args.out, f"{side}-{workload}-{seed}")
    cmd = [args.bench, "--server", server, "--root", args.root, "--out", out,
           "--workload", workload, "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
    env = dict(os.environ, MINOS_BENCH_SERVER_ARGS=" ".join(side_args(args, side)))
    run = subprocess.run(cmd, capture_output=True, text=True, env=env)
    lines = [line for line in run.stdout.splitlines() if line.startswith("{")]
    if not lines:
        sys.stderr.write(run.stderr[-2000:])
        raise SystemExit(f"{side} {workload} seed {seed}: no result (exit {run.returncode})")
    doc = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in doc["metrics"].items()}
    if args.snapshot:
        with open(os.path.join(out, f"server-{workload}.exit.json")) as f:
            metrics.update(snapshot_leaves(args, f.read()))
    return {"failed": doc["failed"], "attempted": doc["attempted"], "metrics": metrics}


def open_loop(args, server, workload, seed, side):
    port = args.base_port + 10 * (seed % 500)
    srv = subprocess.Popen([server, "--cores", "2", "--port", str(port), "--json"] + side_args(args, side),
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        time.sleep(1.0)
        cmd = [args.loadgen, "--target", f"127.0.0.1:{port}", "--queues", "2", "--rate", str(args.open_loop),
               "--duration", str(args.duration), "--keys", str(args.keys), "--seed", str(seed), "--json"]
        cmd += shlex.split(args.loadgen_args)
        run = subprocess.run(cmd, capture_output=True, text=True)
    finally:
        srv.send_signal(signal.SIGINT)
        exit_report, _ = srv.communicate(timeout=60)
    try:
        doc = json.loads(run.stdout)
    except json.JSONDecodeError:
        sys.stderr.write(run.stderr[-2000:])
        raise SystemExit(f"{side} open loop seed {seed}: no report (exit {run.returncode})")
    pick = lambda cls, q: (doc.get(f"latency_{cls}_us") or {}).get(f"{q}_us", 0.0)
    quantiles = [("small", "p50"), ("small", "p99"), ("large", "p50"), ("large", "p90"), ("large", "p99")]
    metrics = {f"{cls}_{q}_us": pick(cls, q) for cls, q in quantiles}
    metrics["loss_rate"] = doc["loss_rate"]
    metrics["behind_max_us"] = doc["behind_max_us"]
    if args.snapshot:
        metrics.update(snapshot_leaves(args, exit_report))
    return {"failed": 0 if doc["zero_loss"] else 1, "attempted": doc["sent"], "metrics": metrics}


def report(args, results, better, label):
    """One table per workload: each metric's per-side median and
    quartiles, B's median change and B's wins."""
    for workload in sorted({r["workload"] for r in results}):
        pairs = {}
        for r in results:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r
        pairs = [p for p in pairs.values() if len(p) == 2]
        print(f"\n{label} {workload}: {len(pairs)} pairs; "
              f"failed A {sum(p['A']['failed'] for p in pairs)}, B {sum(p['B']['failed'] for p in pairs)}")
        print(f"{'metric':<32} {'A median [q1, q3]':>32} {'B median [q1, q3]':>32} {'B vs A':>8} {'B wins':>7}"
              "  |B-A| > A's IQR")
        for name, direction in better:
            a = [p["A"]["metrics"].get(name) for p in pairs]
            b = [p["B"]["metrics"].get(name) for p in pairs]
            if pairs and name in args.snapshot and None not in b and set(a) == {None}:
                (b1, b2, b3) = quartiles(b)  # a counter A does not have
                print(f"{name:<32} {'n/a':>12}".ljust(65) + f" {b2:>12.4g} [{b1:.4g}, {b3:.4g}]")
                continue
            if not pairs or None in a or None in b:
                if pairs and name in args.snapshot:
                    print(f"{name:<32} missing from some snapshots")
                continue
            wins = sum((y < x) if direction == "lower" else (y > x) for x, y in zip(a, b))
            (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
            change = f"{100 * (b2 - a2) / a2:+.1f}%" if a2 else "n/a"
            beyond = "yes" if abs(b2 - a2) > a3 - a1 else "no"
            print(f"{name:<32} {a2:>12.4g} [{a1:.4g}, {a3:.4g}]".ljust(65)
                  + f" {b2:>12.4g} [{b1:.4g}, {b3:.4g}]".ljust(33)
                  + f" {change:>8} {wins:>3}/{len(pairs)}  {beyond}")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("a", nargs="?", help="the A (parent) minos-server binary")
    p.add_argument("b", nargs="?", help="the B (change) minos-server binary")
    p.add_argument("--seeds", default="101-110", help="seeds, e.g. 101-110 or 3,5,8")
    p.add_argument("--workloads", default="etc_read", help="closed loop: comma-separated workloads")
    p.add_argument("--seconds", type=int, default=20, help="closed loop: measured seconds per run")
    p.add_argument("--open-loop", type=float, metavar="RATE", help="open loop at RATE requests/s")
    p.add_argument("--duration", type=int, default=5, help="open loop: measured seconds per run")
    p.add_argument("--keys", type=int, default=100000, help="open loop: dataset size in keys")
    p.add_argument("--base-port", type=int, default=9600, help="open loop: first server port")
    p.add_argument("--a-args", default="", help="extra minos-server flags of side A")
    p.add_argument("--b-args", default="", help="extra minos-server flags of side B")
    p.add_argument("--loadgen-args", default="", help="open loop: extra minos-loadgen flags of both sides")
    p.add_argument("--root", default=".", help="the repo root the harness reads")
    p.add_argument("--bench", default="target/release/minos-benchmark")
    p.add_argument("--loadgen", default="target/release/minos-loadgen")
    p.add_argument("--out", default="ab-pairs")
    p.add_argument("--snapshot", action="append", default=[], metavar="NAME",
                   help="also tabulate this leaf of each run's final server snapshot (repeatable)")
    p.add_argument("--report", metavar="PAIRS_JSONL", help="only print the tables of an earlier run")
    args = p.parse_args()

    with open(os.path.join(args.root, "BENCHMARK.json")) as f:
        closed_better = [(m["name"], m["better"]) for m in json.load(f)["end_to_end"]]
    if args.report:
        with open(args.report) as f:
            results = [json.loads(line) for line in f if line.strip()]
        for label, better, is_open in (("closed loop", closed_better, False), ("open loop", OPEN_LOOP_METRICS, True)):
            better = better + [(name, "lower") for name in args.snapshot]
            report(args, [r for r in results if r["workload"].startswith("open_loop") == is_open], better, label)
        return

    if args.loadgen_args and not args.open_loop:
        p.error("--loadgen-args needs --open-loop")
    os.makedirs(args.out, exist_ok=True)
    if args.open_loop:
        runner, workloads, label = open_loop, [f"open_loop@{args.open_loop:g}"], "open loop"
        better = OPEN_LOOP_METRICS
    else:
        runner, workloads, label = closed_loop, args.workloads.split(","), "closed loop"
        better = closed_better

    results = []
    with open(os.path.join(args.out, "pairs.jsonl"), "a") as log:
        for i, (seed, workload) in enumerate((s, w) for s in seeds(args.seeds) for w in workloads):
            order = [("A", args.a), ("B", args.b)]
            for side, server in order if i % 2 == 0 else order[::-1]:
                r = runner(args, server, workload, seed, side)
                r.update(side=side, seed=seed, workload=workload, server=server, server_args=side_args(args, side))
                results.append(r)
                log.write(json.dumps(r) + "\n")
                log.flush()
                print(f"{workload} seed {seed} {side}: " + ", ".join(
                    f"{n} {r['metrics'].get(n, float('nan')):.4g}" for n, _ in better[:6]), flush=True)
    report(args, results, better + [(name, "lower") for name in args.snapshot], label)


if __name__ == "__main__":
    main()
