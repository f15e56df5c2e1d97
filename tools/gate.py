#!/usr/bin/env python3
"""The one CI gate runner: ``python3 tools/gate.py <gate> <files...>``.

Each gate is a list of named checks over canonical names (the table
``GATES`` below): a run-summary field of ``minos-loadgen --json`` and of
every ``minos-figures`` sweep point (``zero_loss``, ``sent``,
``latency_large_us``, ...) or a registry metric (``transport.tx_packets``,
``core.N.ops``, ...), all documented in ``docs/METRICS.md``. Both
binaries' ``--json`` reports are read the same way: a name is a
top-level field, else an entry under ``metrics``. A check reads only the
names it declares, so ``python3 tools/gate.py docs docs/METRICS.md``
fails on any name the table reads that the documentation lacks.

Gates and their files:

  coalescing  LOADGEN                   the coalesced loadgen pass
  ingest      LOADGEN SERVER            fragmented-PUT pass: one-copy ingest
  offload     LOADGEN SERVER            fragmented-PUT pass: trains, bursts, bundles
  timeline    TIMELINE LOADGEN SERVER   fragmented-PUT pass: the snapshot stream
  sweep       POINTS                    the figures mini-sweep
  shootout    POINTS                    the size-aware vs cfcfs mini-shoot-out
  chaos       LOADGEN [SERVER]          fault injection + hedging
  churn       LOADGEN SERVER            the dataset outgrows the mempool

Every check prints one line (ok / skip / FAIL, with the values it read).
Exit codes: 0 every check held or was skipped; 1 a check failed or a
report is malformed; 2 (shootout) the only failure is a lossy run, which
the paper's methodology discards, so the caller re-measures.
"""

import json
import re
import sys


class Report:
    """One ``--json`` report, read by canonical name."""

    declared = frozenset()  # the names the running check may read

    def __init__(self, doc):
        self.doc = doc

    def _read(self, name):
        if name not in Report.declared:
            raise KeyError(f"{name} is read but not declared by the check")

    def __getitem__(self, name):
        self._read(name)
        if name in self.doc or "." not in name:
            return self.doc[name]  # a summary field must be present
        metric = self.doc["metrics"].get(name)
        if metric is None:
            return 0  # a metric nothing recorded reads as 0
        return metric.get("value", metric)

    def core_sum(self, leaf):
        """Sum of ``core.N.<leaf>`` over every core N."""
        self._read(f"core.N.{leaf}")
        pattern = re.compile(r"core\.\d+\." + re.escape(leaf))
        return sum(m["value"] for n, m in self.doc["metrics"].items() if pattern.fullmatch(n))


def per(n, d):
    return n / max(d, 1)


def hygiene(side, hit_rate=True):
    """A report's hot-path invariants: zero value bytes copied on the
    send path, no leaked RX buffer and (unless ``hit_rate`` is off) a
    pool hit rate of at least 0.95. Skipped when the report is absent."""
    who = {"lg": "loadgen", "srv": "server"}[side]
    copied = "tx_copied_bytes" if side == "lg" else "transport.tx_copied_bytes"

    def on(check):
        return lambda r: (None, "no report") if r[side] is None else check(r[side])

    checks = [
        (f"{who}-zero-copy", copied, on(lambda x: (x[copied] == 0, f"{x[copied]} tx bytes copied"))),
        (f"{who}-pool-leak", "pool.outstanding",
         on(lambda x: (x["pool.outstanding"] == 0, f"{x['pool.outstanding']:.0f} buffers outstanding"))),
    ]
    if hit_rate:
        checks.append((f"{who}-pool-hit-rate", "pool.hit_rate",
                       on(lambda x: (x["pool.hit_rate"] >= 0.95, f"hit rate {x['pool.hit_rate']:.4f} (>= 0.95)"))))
    return checks


def zero_loss(r):
    lg = r["lg"]
    return lg["zero_loss"], f"{lg['outstanding']} outstanding, {lg['timed_out']} timed out"


ZERO_LOSS = ("zero-loss", "zero_loss outstanding timed_out", zero_loss)


def reply_trains(r):
    """More reply trains than fragmented replies explain. The datagrams
    of fragmented replies are the packets the cores sent less one per
    unfragmented reply that opened a datagram (``ops - joined``, where
    ``joined = frames_tx - packets_tx`` replies shared one) plus one per
    fragmented reply, and there are at most as many fragmented replies
    as large requests the loadgen completed. Their trains are all full
    (44 datagrams) but each reply's last."""
    lg, srv = r["lg"], r["srv"]
    ops = srv.core_sum("ops")
    if not (srv["transport.offload"] and per(ops, srv.core_sum("tx_flushes")) >= 1.5):
        return None, "no offload, or no poll rounds of several requests"
    large = (lg["latency_large_us"] or {"count": 0})["count"]
    joined = srv.core_sum("frames_tx") - srv.core_sum("packets_tx")
    bound = (srv.core_sum("packets_tx") - (ops - joined) + large) / 44 + large
    trains = srv["transport.tx_trains"]
    return trains > bound, f"{trains} trains > {bound:.0f} from fragmentation"


def bundles(r):
    srv = r["srv"]
    ops = srv.core_sum("ops")
    if per(ops, srv.core_sum("tx_flushes")) < 1.5:
        return None, "no poll rounds of several requests"
    joined = srv.core_sum("frames_tx") - srv.core_sum("packets_tx")
    per_datagram = per(ops, ops - joined)
    return per_datagram >= 1.3, f"{joined} of {ops} replies joined a datagram, {per_datagram:.2f} per datagram (>= 1.3)"


def every(pts, ok, detail):
    """``ok`` holds for every point."""
    bad = [f"{p['discipline']}@{p['offered_rate']:.0f}" for p in pts if not ok(p)]
    return not bad, f"{detail}; failing: {', '.join(bad)}" if bad else detail


def ladders(pts):
    by = {}
    for p in pts:
        by.setdefault(p["discipline"], []).append(p)
    return by


def every_ladder(pts, ok, detail):
    """``ok`` holds for every discipline's ladder of points."""
    bad = [d for d, ladder in sorted(ladders(pts).items()) if not ok(ladder)]
    return not bad, f"{detail}; failing: {', '.join(bad)}" if bad else detail


def climbs(ladder):
    ach = [p["achieved_rate"] for p in ladder]
    return all(hi >= lo * 0.95 for lo, hi in zip(ach, ach[1:]))


def monotone(snaps):
    for a, b in zip(snaps, snaps[1:]):
        if b["seq"] <= a["seq"] or b["elapsed_ms"] < a["elapsed_ms"]:
            return False, f"seq or clock went backwards at seq {b['seq']}"
        for name, m in a["metrics"].items():
            after = b["metrics"].get(name)
            if m["type"] == "counter" and after is not None and after["value"] < m["value"]:
                return False, f"counter {name} decreased at seq {b['seq']}"
    return True, f"{len(snaps)} snapshots"


def queue_wait(snaps, cls):
    hists = [m for n, m in snaps[-1]["metrics"].items() if re.fullmatch(rf"core\.\d+\.{cls}\.queue_wait_ns", n)]
    samples = sum(m.get("count", 0) for m in hists)
    return samples > 0 and all(m["type"] == "hist" for m in hists), f"{samples} {cls}-class samples"


def merged(r):
    stats, last = r["lg"]["server_stats"], r["tl"][-1]["seq"]
    if stats is None:
        return False, "the loadgen did not merge server stats"
    # The loadgen reads the timeline while the server still runs; the
    # final post-drain line lands afterwards.
    return 0 < stats["seq"] <= last, f"merged seq {stats['seq']} of {last}"


def pair(pts):
    return {p["discipline"]: p for p in pts}


def headline(pts):
    if not all(p["zero_loss"] for p in pts):
        return None, "lossy pair"
    sa, cf = (pair(pts)[d]["latency_small_us"]["p99_us"] for d in ("size-aware", "cfcfs"))
    return sa <= cf, f"size-aware small-class p99 {sa:.1f}us <= cfcfs {cf:.1f}us"


FAULTS = ["fault.rx_blackholed"] + [f"fault.{d}_{e}" for d in ("rx", "tx") for e in ("dropped", "duplicated", "reordered", "delayed")]


def injected(lg):
    return sum(lg[name] for name in FAULTS)


# gate -> (the roles of its files, [(check, names read, check(r) -> (ok, detail))]),
# ok being True, False, or None for skipped. A role ending in "?" is optional.
GATES = {
    "coalescing": (("lg",), [
        ZERO_LOSS,
        ("coalescing", "transport.tx_packets transport.tx_syscalls",
         lambda r: (per(r["lg"]["transport.tx_packets"], r["lg"]["transport.tx_syscalls"]) > 1.0,
                    f"{per(r['lg']['transport.tx_packets'], r['lg']['transport.tx_syscalls']):.2f} packets per tx syscall (> 1)")),
    ] + hygiene("lg")),
    "ingest": (("lg", "srv"), [
        ZERO_LOSS,
        ("one-copy", "ingest.put_copied_bytes client.put_value_bytes",
         lambda r: (r["srv"]["ingest.put_copied_bytes"] == r["lg"]["client.put_value_bytes"],
                    f"server copied {r['srv']['ingest.put_copied_bytes']} B for {r['lg']['client.put_value_bytes']} B of PUT values")),
        ("put-count", "store.puts client.puts_sent",
         lambda r: (r["srv"]["store.puts"] == r["lg"]["client.puts_sent"],
                    f"server stored {r['srv']['store.puts']} of {r['lg']['client.puts_sent']} PUTs")),
        ("reassembly", "ingest.reassembly_evictions",
         lambda r: (r["srv"]["ingest.reassembly_evictions"] == 0,
                    f"{r['srv']['ingest.reassembly_evictions']} partial reassemblies evicted")),
    ] + hygiene("srv")),
    "offload": (("lg", "srv"), [
        ("loadgen-trains", "transport.offload transport.tx_train_packets transport.tx_trains",
         lambda r: (None, "no offload") if not r["lg"]["transport.offload"] else
         (per(r["lg"]["transport.tx_train_packets"], r["lg"]["transport.tx_trains"]) >= 8,
          f"{r['lg']['transport.tx_train_packets']} packets in {r['lg']['transport.tx_trains']} trains (>= 8 per train)")),
        ("server-rx-trains", "transport.offload transport.rx_trains transport.rx_train_packets",
         lambda r: (None, "no offload") if not r["srv"]["transport.offload"] else
         (r["srv"]["transport.rx_trains"] > 0,
          f"{r['srv']['transport.rx_trains']} trains received ({r['srv']['transport.rx_train_packets']} packets)")),
        ("burst", "transport.batched transport.tx_packets transport.tx_syscalls",
         lambda r: (None, "per-datagram syscalls") if not r["srv"]["transport.batched"] else
         (per(r["srv"]["transport.tx_packets"], r["srv"]["transport.tx_syscalls"]) >= 1.5,
          f"{per(r['srv']['transport.tx_packets'], r['srv']['transport.tx_syscalls']):.2f} packets per tx syscall (>= 1.5)")),
        ("core-accounting", "core.N.packets_tx transport.tx_packets",
         lambda r: (r["srv"].core_sum("packets_tx") == r["srv"]["transport.tx_packets"],
                    f"cores counted {r['srv'].core_sum('packets_tx')} packets sent, the transport {r['srv']['transport.tx_packets']}")),
        ("reply-trains", "transport.offload transport.tx_trains core.N.ops core.N.tx_flushes "
         "core.N.frames_tx core.N.packets_tx latency_large_us", reply_trains),
        ("bundles", "core.N.ops core.N.tx_flushes core.N.frames_tx core.N.packets_tx", bundles),
    ] + hygiene("lg") + hygiene("srv")),
    "timeline": (("tl", "lg", "srv"), [
        ("snapshots", "seq", lambda r: (len(r["tl"]) >= 10, f"{len(r['tl'])} snapshots (>= 10)")),
        ("monotone", "seq elapsed_ms", lambda r: monotone(r["tl"])),
        ("small-queue-wait", "core.N.small.queue_wait_ns", lambda r: queue_wait(r["tl"], "small")),
        ("large-queue-wait", "core.N.large.queue_wait_ns", lambda r: queue_wait(r["tl"], "large")),
        ("merged", "server_stats seq", merged),
        ("final-puts", "store.puts client.puts_sent",
         lambda r: (r["srv"]["store.puts"] == r["lg"]["client.puts_sent"],
                    f"final snapshot {r['srv']['store.puts']} PUTs, loadgen {r['lg']['client.puts_sent']}")),
    ]),
    "sweep": (("pts",), [
        ("points", "", lambda r: (len(r["pts"]) == 9, f"{len(r['pts'])} points (== 9)")),
        ("policy", "policy", lambda r: every(r["pts"], lambda p: p["policy"] == "minos", "every point from the one engine")),
        ("disciplines", "discipline",
         lambda r: (sorted(ladders(r["pts"])) == ["hkh", "sho", "size-aware"], f"disciplines {sorted(ladders(r['pts']))}")),
        ("ascending", "offered_rate", lambda r: every_ladder(
            r["pts"], lambda l: [p["offered_rate"] for p in l] == sorted(p["offered_rate"] for p in l), "ladders ascend")),
        ("knee", "achieved_rate", lambda r: every_ladder(r["pts"], climbs, ", ".join(
            f"{d} up to {max(p['achieved_rate'] for p in l):.0f} ops/s" for d, l in sorted(ladders(r["pts"]).items())))),
        ("tracks-offer", "achieved_rate offered_rate", lambda r: every(
            r["pts"], lambda p: p["achieved_rate"] >= 0.85 * p["offered_rate"], "achieved >= 0.85 x offered")),
        ("latency", "latency_us", lambda r: every(
            r["pts"], lambda p: p["latency_us"]["count"] > 0
            and all(p["latency_us"][q] > 0 for q in ("p50_us", "p99_us", "p999_us", "p9999_us")),
            "schedule-based quantiles filled")),
        ("service", "service_latency_us latency_us", lambda r: every(
            r["pts"], lambda p: p["service_latency_us"]["count"] == p["latency_us"]["count"], "one sample per clock")),
        ("small-class", "latency_small_us", lambda r: every(
            r["pts"], lambda p: p["latency_small_us"]["count"] > 0, "small-class latency present")),
        ("zero-copy", "tx_copied_bytes", lambda r: every(r["pts"], lambda p: p["tx_copied_bytes"] == 0, "0 tx bytes copied")),
    ]),
    "shootout": (("pts",), [
        ("points", "", lambda r: (len(r["pts"]) == 2, f"{len(r['pts'])} points (== 2)")),
        ("disciplines", "discipline",
         lambda r: (sorted(pair(r["pts"])) == ["cfcfs", "size-aware"], f"disciplines {sorted(pair(r['pts']))}")),
        ("policy", "policy", lambda r: every(r["pts"], lambda p: p["policy"] == "minos", "every point from the one engine")),
        ("small-class", "latency_small_us", lambda r: every(
            r["pts"], lambda p: p["latency_small_us"]["count"] > 0, "small-class latency present")),
        ("loss-free", "zero_loss", lambda r: every(r["pts"], lambda p: p["zero_loss"], "both runs loss-free")),
        ("headline", "latency_small_us zero_loss", lambda r: headline(r["pts"])),
    ]),
    "chaos": (("lg", "srv?"), [
        ZERO_LOSS,
        ("fault-profile", "fault_profile",
         lambda r: (r["lg"]["fault_profile"] != "none", f"fault profile {r['lg']['fault_profile']}")),
        ("injected", " ".join(FAULTS), lambda r: (injected(r["lg"]) > 0, f"{injected(r['lg'])} faults injected")),
        ("hedging", "hedging", lambda r: (r["lg"]["hedging"], "hedged requests armed")),
        ("hedges-fired", "hedges_sent client.retransmits",
         lambda r: (r["lg"]["hedges_sent"] > 0, f"{r['lg']['hedges_sent']} hedges, {r['lg']['client.retransmits']} retransmits")),
        ("hedge-wins", "hedge_wins client.wasted_replies",
         lambda r: (r["lg"]["hedge_wins"] > 0, f"{r['lg']['hedge_wins']} wins, {r['lg']['client.wasted_replies']} wasted replies")),
        ("accounting", "accounting_warnings",
         lambda r: (r["lg"]["accounting_warnings"] == 0, f"{r['lg']['accounting_warnings']} accounting warnings")),
    ] + hygiene("lg", hit_rate=False) + hygiene("srv", hit_rate=False)),
    "churn": (("lg", "srv"), [
        ZERO_LOSS,
        ("churn-mode", "churn", lambda r: (r["lg"]["churn"] is not None, "churn workload")),
        ("pressure", "churn mempool.high_watermark_bytes",
         lambda r: (0 < r["srv"]["mempool.high_watermark_bytes"]
                    and r["lg"]["churn"]["working_set_bytes"] >= 2 * r["srv"]["mempool.high_watermark_bytes"],
                    f"working set {r['lg']['churn']['working_set_bytes']} B vs high watermark "
                    f"{r['srv']['mempool.high_watermark_bytes']:.0f} B (>= 2x)")),
        ("oom", "store.put_failures",
         lambda r: (r["srv"]["store.put_failures"] == 0, f"{r['srv']['store.put_failures']} PUTs failed at the reservation")),
        ("evictions", "store.evictions store.evicted_bytes",
         lambda r: (r["srv"]["store.evictions"] > 0, f"{r['srv']['store.evictions']} evictions ({r['srv']['store.evicted_bytes']} B)")),
        ("work-bound", "store.evict_scan_words store.evictions",
         lambda r: (r["srv"]["store.evict_scan_words"] <= 64 * r["srv"]["store.evictions"],
                    f"{per(r['srv']['store.evict_scan_words'], r['srv']['store.evictions']):.2f} words scanned per victim (<= 64)")),
        ("accounting", "store.accounting_warnings store.expired_keys",
         lambda r: (r["srv"]["store.accounting_warnings"] == 0,
                    f"{r['srv']['store.accounting_warnings']} warnings, {r['srv']['store.expired_keys']} expiries")),
        ("occupancy", "mempool.occupancy",
         lambda r: (0.0 <= r["srv"]["mempool.occupancy"] <= 1.0, f"occupancy {r['srv']['mempool.occupancy']:.3f} in [0, 1]")),
    ] + hygiene("srv")),
}

# The check whose failure, alone, means "re-measure" (exit 2).
RETRY = {"shootout": "loss-free"}


def load(role, path):
    with open(path) as f:
        if role == "tl":
            return [json.loads(line) for line in f if line.strip()]
        doc = json.load(f)
    return doc if role == "pts" else Report(doc)


def run(gate, paths):
    roles, checks = GATES[gate]
    if not len([x for x in roles if not x.endswith("?")]) <= len(paths) <= len(roles):
        print(f"usage: gate.py {gate} {' '.join(x.rstrip('?').upper() for x in roles)}")
        return 1
    r = {role.rstrip("?"): None for role in roles}
    for role, path in zip(roles, paths):
        r[role.rstrip("?")] = load(role.rstrip("?"), path)
    failed = []
    for name, reads, check in checks:
        Report.declared = frozenset(reads.split())
        try:
            ok, detail = check(r)
        except (KeyError, TypeError, IndexError, ValueError, ZeroDivisionError) as e:
            ok, detail = False, f"malformed report: {e!r}"
        print(f"{gate}: {'skip' if ok is None else 'ok' if ok else 'FAIL'} {name}: {detail}")
        if ok is False:
            failed.append(name)
    if failed:
        print(f"gate {gate} FAILED: {', '.join(failed)}")
        return 2 if failed == [RETRY.get(gate)] else 1
    print(f"gate {gate} passed")
    return 0


def documented(text):
    """Every name ``docs/METRICS.md`` spells in backticks; the page spells
    each name in full, so ``tests/metrics_reference.rs`` reads it the
    same way."""
    return set(text.split("`")[1::2])


def docs(path):
    with open(path) as f:
        known = documented(f.read())
    read = {name for _, checks in GATES.values() for _, reads, _ in checks for name in reads.split()}
    for name in sorted(read - known):
        print(f"docs: {name} is read by a gate but not documented in {path}")
    print(f"docs: {len(read)} names read, {len(read - known)} undocumented")
    return 1 if read - known else 0


def main(argv):
    if len(argv) == 2 and argv[0] == "docs":
        return docs(argv[1])
    if not argv or argv[0] not in GATES:
        print(__doc__)
        return 1
    return run(argv[0], argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
