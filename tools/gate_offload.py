#!/usr/bin/env python3
"""CI gate for segmentation offload on the fragmented-PUT pass.

Reads the ``minos-loadgen --json`` report and the ``minos-server
--json`` exit report named on the command line (the two the
"Fragmented-PUT loadgen pass" writes) and asserts:

* where a side reports ``transport.offload == true`` (the kernel took
  its ``UDP_SEGMENT`` trains; the latch is probed at run time, so a
  kernel without it reports ``false`` and these two are skipped):
  - the loadgen's large PUTs really left as trains:
    ``tx_train_packets / tx_trains >= 8`` (a 500 KB PUT is 7 trains of
    44 fragments and one of 36; small requests travel alone and are in
    neither count);
  - the server really received trains: ``rx_trains > 0``;
* everywhere, offload or not, the hot-path invariants still hold on
  both sides: ``transport.tx_copied_bytes == 0`` (a train is still a
  pure iovec gather), ``pool.hit_rate >= 0.95`` and
  ``pool.outstanding == 0`` (train spill buffers are pooled and come
  home);
* the server's replies leave in bursts, not one syscall each (all
  counts from the server's own report, so no clock is involved):
  - ``tx_packets / tx_syscalls >= 1.5`` wherever the batched syscalls
    are in use;
  - the per-core accounting matches the transport's: ``sum
    core.N.packets_tx == transport.tx_packets`` (a core counts only
    what ``tx_frames`` accepted, whatever the burst held);
  - where ``transport.offload`` and the load did make poll rounds of
    several requests (``sum core.N.ops / sum core.N.tx_flushes >=
    1.5``; two clients against two busy-polling cores do on a small
    host, and a host with a core to spare per thread may not — then
    this one is reported as skipped): reply bursts left as trains,
    ``tx_trains`` above what the fragmented replies alone can explain.
    A fragmented reply's trains are all full (44 datagrams) but its
    last, so those number at most ``tx_train_packets / 44`` plus one
    per large request the loadgen completed;
  - under the same poll-round condition (offload or not — bundles are
    plain datagrams), small replies shared datagrams: at least 1.3
    replies per datagram that carries replies. A fragment has its
    datagram to itself, so ``joined = sum core.N.frames_tx - sum
    core.N.packets_tx`` counts exactly the replies that joined a
    datagram another reply opened, and ``ops / (ops - joined)`` is
    frames per datagram with the fragments of this pass's large GET
    replies (a datagram each, 344 per reply) left out of both sides —
    with them in, a handful of large replies decides the ratio. The
    loadgen accepts bundles, so replies staged back to back for one of
    its clients share; below 1.3 the packing is not happening. Skipped,
    and reported so, where poll rounds of several requests do not form.

Exit codes: 0 — all gates hold; 1 — a gate failed or a report is
malformed.
"""

import json
import sys


def main() -> int:
    lg_path = sys.argv[1] if len(sys.argv) > 1 else "loadgen-large.json"
    srv_path = sys.argv[2] if len(sys.argv) > 2 else "server-report.json"
    lg = json.load(open(lg_path))
    srv = json.load(open(srv_path))

    failures = []

    def gate(ok, msg):
        if not ok:
            failures.append(msg)

    lt, st = lg["transport"], srv["transport"]
    per_train = 0.0
    if lt["offload"]:
        per_train = lt["tx_train_packets"] / max(lt["tx_trains"], 1)
        gate(
            per_train >= 8,
            f"train gate: loadgen sent {lt['tx_train_packets']} packets in "
            f"{lt['tx_trains']} trains ({per_train:.1f} per train < 8)",
        )
    if st["offload"]:
        gate(st["rx_trains"] > 0, "train gate: the server received no trains")

    def core_sum(leaf):
        return sum(
            m["value"]
            for name, m in srv["metrics"].items()
            if name.startswith("core.") and name.endswith("." + leaf)
        )

    per_syscall = st["tx_packets"] / max(st["tx_syscalls"], 1)
    if st["batched"]:
        gate(
            per_syscall >= 1.5,
            f"burst gate: server sent {st['tx_packets']} packets in "
            f"{st['tx_syscalls']} syscalls ({per_syscall:.2f} per syscall < 1.5)",
        )
    counted = core_sum("packets_tx")
    gate(
        counted == st["tx_packets"],
        f"accounting gate: cores counted {counted} packets sent, "
        f"the transport {st['tx_packets']}",
    )
    per_flush = core_sum("ops") / max(core_sum("tx_flushes"), 1)
    burst_trains = "skipped"
    if st["offload"] and per_flush >= 1.5:
        fragmented = st["tx_train_packets"] / 44 + lg["latency_large_us"]["count"]
        gate(
            st["tx_trains"] > fragmented,
            f"burst gate: server sent {st['tx_trains']} trains, no more than its "
            f"fragmented replies explain (<= {fragmented:.0f})",
        )
        burst_trains = f"{st['tx_trains']} trains > {fragmented:.0f} from fragmentation"
    bundles = "skipped"
    if per_flush >= 1.5:
        ops = core_sum("ops")
        joined = core_sum("frames_tx") - core_sum("packets_tx")
        per_datagram = ops / max(ops - joined, 1)
        gate(
            per_datagram >= 1.3,
            f"bundle gate: {joined} of the server's {ops} replies joined a "
            f"datagram ({per_datagram:.2f} replies per datagram < 1.3)",
        )
        bundles = f"{per_datagram:.2f} replies per datagram"

    for side, report in (("loadgen", lg), ("server", srv)):
        copied = report["transport"]["tx_copied_bytes"]
        gate(copied == 0, f"zero-copy gate: {side} copied {copied} tx bytes")
        hr = report["pool"]["hit_rate"]
        gate(hr >= 0.95, f"pool gate: {side} hit rate {hr} < 0.95")
        out = report["pool"]["outstanding"]
        gate(out == 0, f"pool gate: {side} leaked {out} buffers")

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print(
        f"burst gates passed: server {per_syscall:.2f} packets per tx syscall, "
        f"{per_flush:.2f} replies per flush, reply trains: {burst_trains}, "
        f"bundles: {bundles}"
    )
    if lt["offload"] or st["offload"]:
        print(
            f"offload gates passed: loadgen {per_train:.1f} packets per train "
            f"({lt['tx_trains']} trains), server received {st['rx_trains']} "
            f"trains ({st['rx_train_packets']} packets), 0 tx bytes copied, "
            f"0 leaked buffers"
        )
    else:
        print(
            "offload gates passed: offload unavailable on this kernel "
            "(train gates skipped), 0 tx bytes copied, 0 leaked buffers"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
