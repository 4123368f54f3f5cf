"""Regenerate digests.json: the per-line SHA-256 of each workload's CSV at
the pinned seed.

    python3 perfbench/pin_digests.py

Run it only on code whose CSVs are the accepted reference; a change that
must keep the CSVs byte-identical leaves digests.json alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import check
import run
import workloads


def main() -> int:
    os.makedirs(run.OUT, exist_ok=True)
    digests = {}
    for name in sorted(workloads.WORKLOADS):
        cfg = workloads.config(name, workloads.PINNED_SEED)
        cfg_path = os.path.join(run.OUT, f"pin-{name}.config.json")
        csv_path = os.path.join(run.OUT, f"pin-{name}.csv")
        with open(cfg_path, "wb") as fh:
            fh.write(workloads.config_bytes(cfg))
        if run.run_rep(cfg_path, csv_path) is None:
            print(f"{name}: sweep failed", file=sys.stderr)
            return 1
        with open(csv_path, "rb") as fh:
            data = fh.read()
        bad = check.bad_rows(data, cfg, None)
        if bad:
            print(f"{name}: {bad} rows fail the invariants", file=sys.stderr)
            return 1
        digests[name] = {
            "config_sha256": workloads.config_sha256(cfg),
            "lines": check.line_digests(data),
        }
        print(f"{name}: {hashlib.sha256(data).hexdigest()}")
    with open(check.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
