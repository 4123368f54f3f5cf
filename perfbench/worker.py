"""One timed repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --config CFG.json --out OUT.csv \
        --reference loop|calls [--spans SPANS.json]

Imports ehnet, loads and validates the config the way `ehnet validate`
does, then runs the sweep serially (`jobs=1`) and writes the CSV.  With
`--spans` the ehnet layers are traced (see tracing.py) and the spans are
written to that file at the end.  The last stdout line is a JSON object
with the timestamps and measurements; run.py reads it.

`ready` is read from CLOCK_MONOTONIC, which all processes share, so the
parent can subtract its own spawn time from it.

Right after `ready` and again after the CSV is written the worker times
the reference kernel named by `--reference`, a fixed piece of work that
does not touch ehnet.  run.py divides each measured interval by the
reference time next to it, which takes out the speed of the host at that
moment (see run.py).  The kernels are part of the benchmark's definition:
changing one rescales every `setup_s` and `sweep_s` measured with it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time


def loop_kernel() -> float:
    """Seconds for a clipped-level loop in pure Python over 100-element
    lists, with a little numpy arithmetic, `.tolist()` and `math.fsum`:
    the shape of a sweep over long runs."""
    import numpy as np

    base = np.linspace(0.0, 2.0, 100)
    start = time.perf_counter()
    level = 0.0
    for i in range(15000):
        want = (base * 1.5 + (i & 7)).tolist()
        for d in want:
            a = d if d <= level else level
            level = level - a + 0.9
            if level > 50.0:
                level = 50.0
        math.fsum(want)
    return time.perf_counter() - start


def calls_kernel() -> float:
    """Seconds for many small numpy calls: seeding a PCG64 generator,
    drawing 100 samples, clipping and reducing them.  The shape of a sweep
    over many short runs, which a busy host slows more than the loop."""
    import numpy as np

    start = time.perf_counter()
    acc = 0.0
    for i in range(6000):
        seq = np.random.SeedSequence([i, 7])
        gen = np.random.Generator(np.random.PCG64(seq))
        x = gen.exponential(1.0, 100)
        acc += float(np.minimum(x * 1.5, 0.5).sum()) + float(np.mean(x))
    return time.perf_counter() - start


REFERENCE_KERNELS = {"loop": loop_kernel, "calls": calls_kernel}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--reference", required=True,
                        choices=sorted(REFERENCE_KERNELS))
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    from ehnet import cli, experiments

    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    spec = cli.load_spec(args.config)
    experiments.grid_points(spec)
    ready = time.monotonic()
    reference_kernel = REFERENCE_KERNELS[args.reference]
    reference_before_s = reference_kernel()

    start = time.perf_counter()
    rows = experiments.run_experiment(spec, jobs=1)
    experiments.write_csv(rows, args.out)
    sweep_s = time.perf_counter() - start
    reference_after_s = reference_kernel()

    import numpy
    import scipy

    result = {
        "ready": ready,
        "sweep_s": sweep_s,
        "reference_before_s": reference_before_s,
        "reference_after_s": reference_after_s,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ehnet_file": os.path.abspath(sys.modules["ehnet"].__file__),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
