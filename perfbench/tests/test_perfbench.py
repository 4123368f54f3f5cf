"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, run.SRC)

# Layers each workload must exercise (nonzero calls), and layers it must
# leave idle: fig5 solves no threshold and needs no quadrature.
WORKING = ("battery.trajectory_calls", "simulator.runs",
           "stochastic.stream_calls", "stochastic.sample_calls",
           "policies.desired_calls", "utilities.evaluate_calls",
           "experiments.baseline_calls")
THRESHOLDS = ("stochastic.quadrature_calls", "policies.solve_lambda_calls")
USES_THRESHOLDS = {"p2p_waterfill": True, "broadcast_wide": True,
                   "mac_short": False}

# Names through which a sweep reaches each traced function or method.
LOOKUP_SITES = (
    "ehnet.experiments.run_eh",
    "ehnet.experiments.run_non_eh",
    "ehnet.experiments.solve_lambda",
    "ehnet.experiments.expectation_quadrature",
    "ehnet.experiments.closed_form_baseline",
    "ehnet.experiments.build_config",
    "ehnet.experiments.trial_seed",
    "ehnet.policies.expectation_quadrature",
    "ehnet.battery.trajectory",
    "ehnet.cli.load_spec",
    "ehnet.stochastic.Stream.__init__",
    "ehnet.stochastic.ExponentialProcess.sample",
    "ehnet.policies.WaterfillPolicy.desired_powers",
    "ehnet.utilities.MacBpskBerUtility.evaluate",
)


def _is_traced(site: str) -> bool:
    parts = site.split(".")
    cut = max(i for i in range(1, len(parts))
              if ".".join(parts[:i]) in sys.modules)
    target = sys.modules[".".join(parts[:cut])]
    for attr in parts[cut:]:
        target = getattr(target, attr, None)
    return getattr(target, "__wrapped_by_perfbench__", False)


def test_benchmark_json_names_what_the_harness_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert set(USES_THRESHOLDS) == set(workloads.WORKLOADS)
    assert set(workloads.REFERENCE) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.METRICS


def test_install_patches_every_lookup_site_and_restores():
    import ehnet.experiments

    original = ehnet.experiments.run_eh
    restore = tracing.install(tracing.Tracer())
    try:
        missed = [site for site in LOOKUP_SITES if not _is_traced(site)]
        assert not missed
        assert ehnet.simulator.run_eh is ehnet.experiments.run_eh
    finally:
        restore()
    assert ehnet.experiments.run_eh is original
    assert not any(_is_traced(site) for site in LOOKUP_SITES)


def _small_csv(tmp_path, name: str, seed: int = 5, trials: int = 2):
    cfg = dict(workloads.config(name, seed), trials=trials)
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_bytes(workloads.config_bytes(cfg))
    return cfg, str(cfg_path)


def test_check_counts_changed_missing_and_implausible_rows(tmp_path):
    cfg, cfg_path = _small_csv(tmp_path, "p2p_waterfill")
    out = str(tmp_path / "out.csv")
    assert run.run_rep(cfg_path, out) is not None
    data = (tmp_path / "out.csv").read_bytes()
    reference = check.line_digests(data)
    assert check.bad_rows(data, cfg, None) == 0
    assert check.bad_rows(data, cfg, reference) == 0

    lines = data.decode().splitlines(keepends=True)
    fields = lines[1].split(",")
    fields[6] = repr(float(fields[6]) * (1 + 1e-15) + 1e-300)
    changed = "".join([lines[0], ",".join(fields)] + lines[2:]).encode()
    assert changed != data
    assert check.bad_rows(changed, cfg, reference) == 1
    assert check.bad_rows(changed, cfg, None) == 0

    # Without its closed_form row the last non_eh row cannot be checked.
    missing = "".join(lines[:-1]).encode()
    assert check.bad_rows(missing, cfg, None) == 2

    # A non_eh mean far from its closed form is bad even with no reference.
    fields = lines[2].split(",")
    assert fields[5] == "non_eh"
    fields[6] = repr(float(fields[6]) * 1.1)
    off = "".join(lines[:2] + [",".join(fields)] + lines[3:]).encode()
    assert check.bad_rows(off, cfg, None) == 1

    assert check.bad_rows(b"not,a,csv\n", cfg, None) == check.expected_rows(cfg)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_csv_is_identical_and_layers_do_work(tmp_path, name):
    cfg, cfg_path = _small_csv(tmp_path, name)
    plain = run.run_rep(cfg_path, str(tmp_path / "plain.csv"))
    traced = run.run_rep(cfg_path, str(tmp_path / "traced.csv"),
                         str(tmp_path / "spans.json"))
    assert plain is not None and traced is not None
    assert ((tmp_path / "plain.csv").read_bytes()
            == (tmp_path / "traced.csv").read_bytes())
    assert check.bad_rows((tmp_path / "traced.csv").read_bytes(), cfg, None) == 0

    layers = traced["layers"]
    assert set(layers) == set(tracing.METRICS) - {"trace.overhead_s"}
    idle = [m for m in WORKING if layers[m] == 0]
    assert not idle, f"{name}: no calls in {idle}"
    for metric in THRESHOLDS:
        assert (layers[metric] > 0) == USES_THRESHOLDS[name], metric
    with open(tmp_path / "spans.json", encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    assert tracing.layer_metrics([tuple(s) for s in spans]) == layers
