"""The demos print the same text, byte for byte."""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# SHA-256 of each demo's stdout, pinned before the experiments moved into
# one registry and the buffer-regime helpers were deleted.
DEMO_STDOUT_SHA256 = {
    "battery_dynamics":
        "194d91e9366e2e82ef77ac2fe1dabc849364c7506745d7e96bc786b8cb10c106",
    "multi_node":
        "7397e2ae1a971a53b10679a9b96a054970f1691a8e9b12325244a0f7849957ca",
    "point_to_point":
        "3735095fdb983b96371ca78bf1f52d8cd24055b0931255884efba5700bf1c268",
    "relay_chain":
        "3e62547046b945d339e4f0ee4261eea5b79d756b8ea890083858d0a689c2a917",
}


@pytest.mark.parametrize("demo", sorted(
    name[:-3] for name in os.listdir(os.path.join(ROOT, "demos"))
    if name.endswith(".py")))
def test_demo_prints_the_pinned_text(demo):
    src = os.path.join(ROOT, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", f"{demo}.py")],
        env={**os.environ, "PYTHONPATH": path}, cwd=ROOT,
        capture_output=True, check=True, timeout=300,
    )
    assert hashlib.sha256(result.stdout).hexdigest() == (
        DEMO_STDOUT_SHA256[demo])
