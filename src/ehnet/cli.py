"""Command-line front end for the bundled sweep experiments.

Exit codes: 0 on success (and for `-h`), 1 for configuration problems
(an argument list the parser rejects, unreadable or invalid config,
unknown experiment, `--jobs` below 1, an output path that cannot be
written), 2 for numerical failures (quadrature that cannot certify its
tolerance, an unreachable power budget, non-finite statistics).  Each
failure is reported in one line on stderr.

`validate` does what `run` does before its first trial: it checks the
config and computes every point's `closed_form` baseline, so it ends as
`run` would wherever `run` fails before a trial.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import replace

from .experiments import (
    EXPERIMENTS,
    _baselines,
    _experiment,
    default_spec,
    grid_points,
    load_spec,
    run_experiment,
    write_csv,
)
from .policies import InfeasibleTargetError, ThresholdSolverError
from .simulator import ConfigError, NumericsError
from .stochastic import QuadratureError

_NUMERICAL_FAILURES = (
    InfeasibleTargetError,
    ThresholdSolverError,
    NumericsError,
    QuadratureError,
)


class _UsageError(Exception):
    """An argument list that the parser rejects."""


class _Parser(argparse.ArgumentParser):
    """Raises `_UsageError` where argparse would print its usage block and
    exit 2, the exit code of numerical failures."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ehnet",
        description="Sweep experiments for battery-powered links fed by "
                    "harvested energy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a sweep config and write a CSV")
    run.add_argument("--config", required=True, help="JSON sweep config")
    run.add_argument("--out", required=True, help="output CSV path")
    run.add_argument("--seed", type=int, help="override the master seed")
    run.add_argument("--trials", type=int, help="override trials per point")
    run.add_argument("--jobs", type=int, default=1,
                     help="worker processes (default 1)")

    sub.add_parser("list-experiments", help="show the bundled experiments")

    val = sub.add_parser(
        "validate", help="check a config and compute its baselines, running "
                         "no trial")
    val.add_argument("--config", required=True, help="JSON sweep config")
    return parser


def _check_writable(path) -> None:
    """Fail before the sweep, not after it, if `path` cannot be written."""
    if os.path.isdir(path):
        raise ConfigError(f"output path {path} is a directory")
    directory = os.path.dirname(os.path.abspath(path))
    try:
        # Create a probe file: os.access() can report a directory writable
        # where the write then fails (e.g. on network file systems).
        with tempfile.TemporaryFile(dir=directory):
            pass
    except OSError as exc:
        raise ConfigError(
            f"cannot write to output directory {directory}: {exc.strerror}"
        ) from exc


def _cmd_run(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    spec = load_spec(args.config)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    if args.trials is not None:
        spec = replace(spec, trials=args.trials)
    _check_writable(args.out)
    rows = run_experiment(spec, jobs=args.jobs)
    try:
        write_csv(rows, args.out)
    except (OSError, ValueError) as exc:
        # What the probe cannot see: an empty file name, a NUL byte in
        # the path, a name too long for the file system
        raise ConfigError(f"cannot write {args.out}: {exc}") from exc
    print(f"{spec.experiment}: {len(rows)} rows -> {args.out}")
    return 0


def _cmd_list() -> int:
    for name in sorted(EXPERIMENTS):
        experiment, spec = _experiment(name), default_spec(name)
        print(f"{name}  {experiment.title}")
        print(
            f"      grid: {len(spec.p_in_db)} power points x "
            f"n={list(spec.n_slots)} x ratio={list(spec.b_max_ratio)} x "
            f"group={list(spec.group_size)} ({experiment.group_axis}), "
            f"{spec.trials} trials"
        )
    return 0


def _cmd_validate(args) -> int:
    spec = load_spec(args.config)
    points = grid_points(spec)
    _baselines(spec, points)
    print(
        f"{spec.experiment}: ok, {len(points)} grid points, "
        f"{3 * len(points)} csv rows, {spec.trials} trials per point"
    )
    return 0


def _report(kind: str, exc: Exception) -> None:
    """`kind: exc` as one line on stderr, even where the message echoes an
    argument or a path that holds a line break."""
    print(f"{kind}: " + "\\n".join(str(exc).splitlines()), file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        _report("usage error", exc)
        return 1
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "list-experiments":
            return _cmd_list()
        if args.command == "validate":
            return _cmd_validate(args)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        _report("config error", exc)
        return 1
    except _NUMERICAL_FAILURES as exc:
        _report("numerical failure", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
