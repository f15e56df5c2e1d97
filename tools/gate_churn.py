#!/usr/bin/env python3
"""CI gate for the churn pass: graceful behavior when the dataset
outgrows the mempool.

Reads the ``minos-loadgen --churn --json`` report and the
``minos-server --json`` exit report named on the command line and
asserts the capacity-tiering contract:

* the churn run itself was loss-free and actually overcommitted the
  store (working set >= 2x the high watermark);
* **zero OutOfMemory PUTs across the whole run** — eviction happens at
  reservation time, so not even the fill phase may bounce a write
  (``ingest.put_failures == 0``);
* the eviction machinery demonstrably ran (``capacity.evictions > 0``);
* the CLOCK hand's work followed its victims, not the table
  (``capacity.evict_scan_words / capacity.evictions <= 64`` bitmap
  words per victim — a count, so it holds on any host);
* the accounting cross-check never fired
  (``capacity.accounting_warnings == 0``) and occupancy ended at or
  under the pool's capacity;
* the hot path survived the churn: server RX pool hit rate >= 0.95
  with zero leaked buffers, and zero TX value bytes copied.

Exit codes: 0 — all gates hold; 1 — a gate failed or a report is
malformed.
"""

import json
import sys


def main() -> int:
    lg_path = sys.argv[1] if len(sys.argv) > 1 else "loadgen-churn.json"
    srv_path = sys.argv[2] if len(sys.argv) > 2 else "server-churn.json"
    lg = json.load(open(lg_path))
    srv = json.load(open(srv_path))

    failures = []

    def gate(ok, msg):
        if not ok:
            failures.append(msg)

    gate(lg["zero_loss"], "churn run lost requests")
    churn = lg.get("churn")
    gate(churn is not None, "loadgen did not run in --churn mode")

    cap = srv["capacity"]
    high = cap["high_watermark_bytes"]
    if churn is not None:
        ws = churn["working_set_bytes"]
        gate(
            high > 0 and ws >= 2 * high,
            f"no real pressure: working set {ws} B vs high watermark {high} B",
        )

    oom = srv["ingest"]["put_failures"]
    gate(oom == 0, f"OOM gate: {oom} PUTs failed at the reservation")
    gate(cap["evictions"] > 0, "eviction gate: the store never evicted")
    words = cap["evict_scan_words"]
    gate(
        words <= 64 * cap["evictions"],
        f"work-bound gate: {words} bitmap words scanned for "
        f"{cap['evictions']} victims (> 64 per victim)",
    )
    warnings = cap["accounting_warnings"]
    gate(warnings == 0, f"accounting gate: {warnings} cross-check warnings")
    gate(
        0.0 <= cap["occupancy"] <= 1.0,
        f"occupancy gate: {cap['occupancy']} outside [0, 1]",
    )

    hr = srv["pool"]["hit_rate"]
    gate(hr >= 0.95, f"server RX pool gate: hit rate {hr} < 0.95")
    out = srv["pool"]["outstanding"]
    gate(out == 0, f"server RX pool gate: {out} buffers leaked")
    copied = srv["transport"]["tx_copied_bytes"]
    gate(copied == 0, f"zero-copy TX gate: {copied} bytes copied")

    if failures:
        for f in failures:
            print(f"churn gate FAILED: {f}")
        return 1
    print(
        f"churn gates passed: 0 OOM PUTs, {cap['evictions']} evictions "
        f"({cap['evicted_bytes']} B, {words / max(cap['evictions'], 1):.2f} "
        f"words scanned per victim), {cap['expired_keys']} expiries, "
        f"0 accounting warnings, occupancy {cap['occupancy']:.3f}, "
        f"{hr:.4f} pool hit rate, 0 tx bytes copied"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
