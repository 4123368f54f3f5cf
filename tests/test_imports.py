"""Which scipy modules `ehnet` loads, and when.

`import ehnet` loads no scipy module.  Validating a config loads the
compiled modules its experiment's registry entry names
(`Experiment.modules`) with `stochastic.load_compiled`, which imports
neither `scipy.integrate` nor `scipy.special`, and the sweep that follows
loads no further one, so their load time falls in set-up, never in the
sweep.  Only QUADPACK brings scipy's package `__init__` with it, through
the `scipy._lib._ccallback` its C code imports at its first call; an
experiment without QUADPACK (fig1, fig5, fig6) loads its compiled
modules alone.  Each check runs in a fresh interpreter: this one has
loaded scipy already.
"""

import functools
import json
import math
import os
import subprocess
import sys

import pytest

from ehnet.experiments import EXPERIMENTS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Appended to each script: print the loaded scipy modules as JSON.
_PRINT_SCIPY = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _fresh(script: str):
    """Run `script` in a new interpreter; return its last stdout line, as
    JSON."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _config(name: str) -> str:
    return os.path.join(ROOT, "configs", f"{name}.json")


@functools.lru_cache(maxsize=None)
def _loaded_by(modules: tuple[str, ...]) -> tuple[str, ...]:
    """The scipy modules that importing `ehnet` and then loading `modules`
    with its loader loads."""
    loads = "".join(f"load_compiled({m!r})\n" for m in modules)
    return tuple(_fresh("import ehnet.cli\n"
                        "from ehnet.stochastic import load_compiled\n"
                        + loads + _PRINT_SCIPY))


def test_importing_ehnet_loads_no_scipy_and_no_process_pool():
    loaded = _fresh(
        "import json, sys, ehnet, ehnet.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "    if m.split('.')[0] == 'scipy'\n"
        "    or m == 'concurrent.futures.process')))\n"
    )
    assert loaded == []


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_validation_loads_exactly_the_declared_modules(name):
    loaded = _fresh(
        "from ehnet.experiments import load_spec\n"
        f"load_spec({_config(name)!r})\n" + _PRINT_SCIPY
    )
    modules = EXPERIMENTS[name].modules
    assert set(modules) <= set(loaded)
    assert tuple(loaded) == _loaded_by(modules)
    # The compiled modules alone, not the packages that hold them.
    assert not {"scipy.integrate", "scipy.special"} & set(loaded)
    if "scipy.integrate._quadpack" not in modules:
        # Not even scipy's own `__init__`: only QUADPACK needs it.
        assert loaded == sorted(modules)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_sweep_loads_no_scipy_module_beyond_validation(name):
    # A module the sweep uses but the registry entry leaves out would
    # show up here, and its import time would fall inside the sweep.
    added = _fresh(
        "import json, sys\n"
        "from ehnet.experiments import run_experiment, spec_from_dict\n"
        f"with open({_config(name)!r}) as fh:\n"
        "    cfg = json.load(fh)\n"
        "cfg.update(n_slots=[50], trials=2)\n"
        "spec = spec_from_dict(cfg)\n"
        "before = set(sys.modules)\n"
        "run_experiment(spec)\n"
        "print(json.dumps(sorted(m for m in set(sys.modules) - before\n"
        "                        if m.split('.')[0] == 'scipy')))\n"
    )
    assert added == []


def test_public_scipy_imports_reuse_the_loaded_modules():
    # Validation registers each module under its real name, so importing
    # its package afterwards finds the same module and still works:
    # after scipy's `__init__` has run (fig2 validated first) ...
    same_erfc, same_quadpack, half = _fresh(
        "import json, sys\n"
        "from ehnet.experiments import load_spec\n"
        f"load_spec({_config('fig2')!r})\n"
        f"load_spec({_config('fig5')!r})\n"
        "ufuncs = sys.modules['scipy.special._special_ufuncs']\n"
        "quadpack = sys.modules['scipy.integrate._quadpack']\n"
        "import scipy.special, scipy.integrate\n"
        "print(json.dumps([\n"
        "    scipy.special.erfc is ufuncs.erfc,\n"
        "    scipy.integrate._quadpack_py._quadpack is quadpack,\n"
        "    scipy.integrate.quad(lambda x: x, 0.0, 1.0)[0]]))\n"
    )
    assert same_erfc and same_quadpack
    assert half == 0.5
    # ... and before it, with the ufuncs loaded while no scipy package
    # was imported.
    alone, same_erfc, value = _fresh(
        "import json, sys\n"
        "from ehnet.experiments import load_spec\n"
        f"load_spec({_config('fig5')!r})\n"
        "alone = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "ufuncs = sys.modules['scipy.special._special_ufuncs']\n"
        "import scipy.special\n"
        "print(json.dumps([alone, scipy.special.erfc is ufuncs.erfc,\n"
        "    float(scipy.special.erfc(1.0))]))\n"
    )
    assert alone == ["scipy.special._special_ufuncs"]
    assert same_erfc
    assert value == pytest.approx(math.erfc(1.0), rel=1e-15)


def test_library_functions_import_scipy_themselves():
    # Called from library code, with no config validated first.
    q, mean, budget = _fresh(
        "import json\n"
        "from ehnet.policies import AmplifierModel, WaterfillPolicy\n"
        "from ehnet.stochastic import expectation_quadrature, exponential_pdf\n"
        "from ehnet.utilities import qfunc\n"
        "print(json.dumps([float(qfunc(1.0)), expectation_quadrature(\n"
        "    lambda g: g, exponential_pdf(2.0)),\n"
        "    WaterfillPolicy(AmplifierModel(), 1.0)"
        ".expected_request_rayleigh()]))\n"
    )
    assert q == pytest.approx(0.5 * math.erfc(1.0 / math.sqrt(2.0)),
                              rel=1e-15)
    assert mean == pytest.approx(2.0, rel=1e-10)
    # e^-1 - E1(1), with E1(1) = 0.21938393439552...
    assert budget == pytest.approx(math.exp(-1.0) - 0.21938393439552029,
                                   rel=1e-14)
