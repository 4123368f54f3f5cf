"""ehnet benchmark: time one workload's sweep end to end, or trace its layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`.  Each repetition runs in a fresh interpreter
(worker.py), one at a time, with BLAS/OpenMP pinned to one thread, so
imports and the threshold caches are paid as a user of `ehnet run` pays
them.  Repetitions continue while the next one is predicted to end within
`--seconds`, with at least `MIN_ROUNDS` of them.

`--trace 0` reports the end-to-end metrics (`END_TO_END`); `--trace 1`
alternates untraced and traced repetitions and reports the per-layer
metrics (`tracing.METRICS`), including the tracing overhead.  Every CSV
goes through check.py.  The last stdout line is the JSON result; the full
record, with provenance and every sample, goes to
`perfbench/out/<workload>-seed<N>-trace<T>.result.json`.

`setup_s` and `sweep_s` are scaled to a reference host speed.  Each
worker times the workload's reference kernel (`workloads.REFERENCE`, one
of worker.REFERENCE_KERNELS, which use no ehnet code) right after set-up
and right after the sweep.  Set-up time is multiplied by
`REFERENCE_HOST_S` / the first reference time, sweep time by
`REFERENCE_HOST_S` / the mean of both.  On a shared host the speed of the
whole machine changes by a third or more within minutes; the scaled times
stay within a few percent across such changes, while wall times do not.
A change to ehnet moves the sweep and not the kernel, so it moves the
scaled time by the same share.  The wall times are kept in the record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import check
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "peak_rss_mb": "MB",
    "ok_rows_frac": "fraction",
}

# A reference kernel's time on the host that `setup_s` and `sweep_s` are
# scaled to.  On the 2-vCPU VM of the first numbers each kernel took from
# about 0.12 s to 0.24 s as other tenants' load came and went.
REFERENCE_HOST_S = 0.2

# Rounds (one repetition, or an untraced+traced pair) per run, at least.
MIN_ROUNDS = {0: 3, 1: 1}
# No round starts that would end past this; the run must exit within 180 s.
HARD_LIMIT_S = 150.0

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _worker_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({var: "1" for var in _THREAD_VARS})
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    return env


def run_rep(cfg_path: str, csv_path: str, spans_path: str | None = None,
            timeout: float = 170.0, reference: str = "loop") -> dict | None:
    """One repetition in a fresh interpreter.

    Returns the worker's measurements plus `setup_s` (spawn to validated
    config) and `sweep_s`, both scaled to the reference host speed, or
    None when the worker fails; its stderr is passed on.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--config", cfg_path, "--out", csv_path, "--reference", reference]
    if spans_path:
        cmd += ["--spans", spans_path]
    spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = os.path.realpath(os.path.join(SRC, "ehnet", "__init__.py"))
    if os.path.realpath(result["ehnet_file"]) != expected:
        raise RuntimeError(f"worker imported {result['ehnet_file']}, "
                           f"not {expected}")
    result["setup_wall_s"] = result.pop("ready") - spawn
    result["sweep_wall_s"] = result.pop("sweep_s")
    before = result["reference_before_s"]
    result["reference_s"] = (before + result["reference_after_s"]) / 2
    result["setup_s"] = result["setup_wall_s"] * REFERENCE_HOST_S / before
    result["sweep_s"] = (result["sweep_wall_s"] * REFERENCE_HOST_S
                         / result["reference_s"])
    return result


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    """Digest of the package sources, for checkouts without .git."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "ehnet")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _quartiles(values: list[float]) -> dict:
    ordered = sorted(values)
    q = (statistics.quantiles(ordered, n=4) if len(ordered) > 1
         else [ordered[0]] * 3)
    return {"n": len(ordered), "min": ordered[0], "q1": q[0],
            "median": q[1], "q3": q[2], "max": ordered[-1]}


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run the repetitions of one benchmark run and check their CSVs."""
    cfg = workloads.config(workload, seed)
    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    cfg_path = os.path.join(OUT, tag + ".config.json")
    with open(cfg_path, "wb") as fh:
        fh.write(workloads.config_bytes(cfg))
    reference = None
    if seed == workloads.PINNED_SEED:
        reference = check.pinned_lines(workload, cfg)

    reps = []
    start = time.monotonic()
    rounds = 0
    while True:
        for traced in (False, True)[: 1 + trace]:
            i = len(reps)
            csv_path = os.path.join(OUT, f"{tag}.{i}.csv")
            # Spans of the last traced repetition only: they run to megabytes.
            spans = os.path.join(OUT, f"{tag}.spans.json") if traced else None
            if os.path.exists(csv_path):
                os.remove(csv_path)
            result = run_rep(cfg_path, csv_path, spans,
                             reference=workloads.REFERENCE[workload])
            bad = check.expected_rows(cfg)
            if result is not None:
                with open(csv_path, "rb") as fh:
                    data = fh.read()
                bad = check.bad_rows(data, cfg, reference)
                if reference is None:
                    reference = check.line_digests(data)
            reps.append({"traced": traced, "bad_rows": bad, "result": result})
        rounds += 1
        elapsed = time.monotonic() - start
        per_round = elapsed / rounds
        if rounds >= MIN_ROUNDS[trace] and (
            elapsed + per_round > seconds
            or elapsed + per_round > HARD_LIMIT_S
        ):
            break
    return {"tag": tag, "cfg": cfg, "reps": reps, "elapsed_s": elapsed}


def summarize(workload: str, seed: int, trace: int, run: dict) -> dict:
    reps = run["reps"]
    rows = check.expected_rows(run["cfg"]) * len(reps)
    bad = sum(r["bad_rows"] for r in reps)
    plain = [r["result"] for r in reps if not r["traced"] and r["result"]]
    traced = [r["result"] for r in reps if r["traced"] and r["result"]]
    if not plain or (trace and not traced):
        raise RuntimeError("no repetition completed")
    samples = {
        name: [r[name] for r in plain]
        for name in ("setup_s", "sweep_s", "peak_rss_mb", "setup_wall_s",
                     "sweep_wall_s", "reference_s")
    }
    if trace:
        samples["traced_sweep_s"] = [r["sweep_s"] for r in traced]
        # median_low keeps counts whole: it returns one of the samples.
        layers = {
            name: statistics.median_low(r["layers"][name] for r in traced)
            for name in tracing.METRICS if name != "trace.overhead_s"
        }
        layers["trace.overhead_s"] = (statistics.median(samples["traced_sweep_s"])
                                      - statistics.median(samples["sweep_s"]))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in tracing.METRICS.items()}
    else:
        values = {name: statistics.median(v) for name, v in samples.items()}
        values["ok_rows_frac"] = 1.0 - bad / rows
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    cfg = run["cfg"]
    return {
        "correct": bad == 0,
        "attempted": len(reps),
        "failed": sum(1 for r in reps if r["bad_rows"] or not r["result"]),
        "metrics": metrics,
        "detail": {
            "bad_rows": bad,
            "rows": rows,
            "elapsed_s": run["elapsed_s"],
            "samples": {k: _quartiles(v) for k, v in samples.items()},
            "provenance": {
                "workload": workload,
                "seed": seed,
                "config_sha256": workloads.config_sha256(cfg),
                "input_size": workloads.input_size(cfg),
                "reference_kernel": workloads.REFERENCE[workload],
                "reference_host_s": REFERENCE_HOST_S,
                "git_commit": _git_commit(),
                "src_sha256": _src_sha256(),
                "python": platform.python_version(),
                "numpy": plain[0]["numpy"],
                "scipy": plain[0]["scipy"],
                "nproc": len(os.sched_getaffinity(0)),
                "machine": platform.machine(),
            },
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "ehnet", "__init__.py")):
        print(f"perfbench: no ehnet package under {SRC}", file=sys.stderr)
        return 2

    try:
        run = measure(args.workload, args.seed, args.seconds, args.trace)
        report = summarize(args.workload, args.seed, args.trace, run)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    detail = report.pop("detail")
    path = os.path.join(OUT, run["tag"] + ".result.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**report, **detail}, fh, indent=1)
    for name, q in detail["samples"].items():
        print(f"{name}: median {q['median']:.4f} (q1 {q['q1']:.4f}, "
              f"q3 {q['q3']:.4f}) over {q['n']} samples")
    print(f"bad rows {detail['bad_rows']} of {detail['rows']}; "
          f"input {json.dumps(detail['provenance']['input_size'])}; "
          f"record {os.path.relpath(path, ROOT)}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
