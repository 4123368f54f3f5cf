"""Output check behind `ok_rows_frac`: which CSV rows of a sweep are bad.

A row is bad when any of these fails:

- it matches the reference: at the pinned seed the SHA-256 of each line
  stored in digests.json (generated from the code before any optimisation,
  the byte-identical CSV contract), at any other seed the same line of the
  run's first CSV (a rerun of one config gives the same bytes);
- its key columns are the expected grid point and mode, in sweep order;
- `u_mean` and `u_stderr` are finite, `mismatch_mean` is in [0, 1];
- at `n_slots = 10^4`, a `non_eh` row's mean lies within `Z_MAX` of its
  standard errors, plus `REL_SLACK` of the value, of the `closed_form` row
  of its grid point.  Both estimate the same unconstrained expectation, so
  a larger gap is a modelling bug.  The slack is there because a standard
  error estimated from a handful of trials is often far too small.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

import workloads

HEADER = ("experiment_id,p_in_db,n_slots,b_max_ratio,m,mode,"
          "u_mean,u_stderr,mismatch_mean")
MODES = ("eh", "non_eh", "closed_form")
Z_MAX = 6.0
REL_SLACK = 0.03
Z_CHECK_SLOTS = 10000

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "digests.json")


def line_digests(data: bytes) -> list[str]:
    return [hashlib.sha256(line).hexdigest() for line in data.splitlines()]


def pinned_lines(workload: str, cfg: dict) -> list[str]:
    """The per-line digests pinned for `workload`, made from config `cfg`."""
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        entry = json.load(fh)[workload]
    if entry["config_sha256"] != workloads.config_sha256(cfg):
        raise RuntimeError(f"digests.json was made from another {workload} "
                           "config; rerun pin_digests.py on reference code")
    return entry["lines"]


def expected_rows(cfg: dict) -> int:
    return len(MODES) * len(workloads.grid(cfg))


def bad_rows(data: bytes, cfg: dict, reference: list[str] | None) -> int:
    """Number of bad data rows in `data`, the CSV of config `cfg`.

    `reference` is the list of per-line SHA-256 digests (header first) the
    CSV must reproduce, or None to skip that comparison.  Missing rows
    count as bad; a wrong header or surplus rows make every row bad.
    """
    total = expected_rows(cfg)
    lines = data.decode("utf-8", errors="replace").splitlines()
    if not lines or lines[0] != HEADER or len(lines) - 1 > total:
        return total
    digests = line_digests(data)
    records = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    keys = [(p, n, ratio, m, mode)
            for p, n, ratio, m in workloads.grid(cfg) for mode in MODES]
    bad = [True] * total
    values = {}
    for i, (key, record) in enumerate(zip(keys, records)):
        parsed = _parse(record, cfg["experiment"])
        if parsed is None or parsed[0] != key:
            continue
        u_mean, u_stderr, mismatch = parsed[1]
        ok = (math.isfinite(u_mean) and math.isfinite(u_stderr)
              and 0.0 <= mismatch <= 1.0)
        if reference is not None:
            ok = ok and i + 1 < len(reference) and digests[i + 1] == reference[i + 1]
        bad[i] = not ok
        values[key] = (i, u_mean, u_stderr)
    for (p, n, ratio, m, mode), (i, u_mean, u_stderr) in values.items():
        if mode != "non_eh" or n != Z_CHECK_SLOTS:
            continue
        cf = values.get((p, n, ratio, m, "closed_form"))
        if cf is None or (abs(u_mean - cf[1])
                          > Z_MAX * u_stderr + REL_SLACK * abs(cf[1])):
            bad[i] = True
    return sum(bad)


def _parse(record, experiment):
    if len(record) != 9 or record[0] != experiment:
        return None
    try:
        key = (float(record[1]), int(record[2]), float(record[3]),
               int(record[4]), record[5])
        stats = tuple(float(v) for v in record[6:])
    except ValueError:
        return None
    return key, stats
