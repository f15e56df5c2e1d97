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
  home).

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
