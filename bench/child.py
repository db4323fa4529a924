"""One benchmark sample: a fresh process that sets up, times and checks one campaign.

    python3 bench/child.py WORKLOAD SEED SIZE MODE SPAWNED_AT

``MODE`` is ``plain`` (no wrappers), ``trace`` (span wrappers
installed after set-up) or ``memory`` (tracemalloc around ``smb_probe``
only).  ``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it
started this process, so ``setup_s`` covers interpreter start, imports and
input generation.  Prints one JSON object on its last stdout line.
"""

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv):
    workload, seed, size, mode, spawned_at = argv[1], int(argv[2]), argv[3], argv[4], float(argv[5])
    sys.path.insert(0, str(SRC))
    import numpy
    import qit

    if not Path(qit.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported qit from {qit.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    setup, run, check = workloads.WORKLOADS[workload]
    inputs = setup(seed, size)
    setup_s = time.monotonic() - spawned_at

    tracer = None
    if mode != "plain":
        tracer = tracing.Tracer()
        tracing.install(tracer, memory=(mode == "memory"))
    start = time.perf_counter()
    out = run(inputs)
    wall_s = time.perf_counter() - start

    outcome = check(inputs, out)
    print(json.dumps({
        "mode": mode,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": outcome.attempted,
        "raised": outcome.raised,
        "wrong": outcome.wrong,
        "units": outcome.units,
        "digest": hashlib.sha256(outcome.text.encode()).hexdigest(),
        "effective_seed": outcome.effective_seed,
        "numpy": numpy.__version__,
        "layers": None if tracer is None else tracing.layer_metrics(tracer),
        "unwrapped": None if tracer is None else tracer.missing,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
