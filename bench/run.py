"""Benchmark of qit: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload fuzz --seed 1 --seconds 25 --trace 0

Workloads (inputs made from ``--seed``; see ``workloads.py``):

* ``fuzz``: ``qit fuzz --law all`` through ``qit.cli.run``; thousands of
  tiny instances, so per-instance Python overhead in laws, prob, measures
  and qcore sets the time.
* ``second-law``: random doubly stochastic chains, m in 2..6, random and
  uniform starts, q in {0.2, 0.5, 0.8}, 50 steps; markov on small arrays.
* ``smb-long``: ``qit smb`` on the sticky chain at n_max = 1e5 with 200
  trajectories; the only workload with large arrays (about 1.1 GB RSS).
* ``maxent-sweep``: ``maxent.solve`` and ``verify_optimality`` over m in
  {3, 8, 16}, interior and edge targets, q on both sides of 1.

Each sample is a fresh single-threaded Python process (``child.py``) with
BLAS threads pinned to 1 and ``QIT_SEED`` removed from its environment.
The run starts samples one after another until ``--seconds`` is spent (at
least ``MIN_GROUPS``).  With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced samples,
adds one tracemalloc sample when the campaign calls ``smb_probe``, and
prints the per-layer metrics of ``tracing.PER_LAYER`` with
``trace.overhead_s``, the traced minus the untraced wall time.

Co-tenants of a shared host slow a CPU by up to half, for a second to
minutes at a time.  So every time is scaled to a quiet CPU: ``CpuPicker``
times a fixed probe loop just before and after each sample on the CPU the
sample ran on, and the sample's times are multiplied by
``REF_PROBE_S / probe time``.  Each reported figure is the median over the
samples of the run.  The unscaled times are on the info line.

The line before the result holds the output digest, the effective seed,
the unscaled per-sample times, the probe times and machine facts.  The run exits 1 without a
result if a sample process fails, and 2 if ``src/qit`` is missing.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402

WORKLOADS = ("fuzz", "second-law", "smb-long", "maxent-sweep")
#: Fewest sample groups (one untraced, or an untraced and a traced sample).
MIN_GROUPS = {0: 3, 1: 2}
#: The whole run must end within 180 s; no sample may run past this.
RUN_LIMIT_S = 170.0
#: Probe-loop time on a quiet CPU of the reference machine (Intel Xeon,
#: Python 3.11); scaled times are seconds at that speed.
REF_PROBE_S = 0.018
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class SampleError(RuntimeError):
    """A sample process failed; the run prints no result."""


def _child_env():
    env = {k: v for k, v in os.environ.items() if k != "QIT_SEED"}
    env.update(THREAD_ENV)
    return env


def _probe_loop():
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    return time.perf_counter() - start


class CpuPicker:
    """Pins this process, and so the next sample it starts, to a quiet CPU.

    Before each sample it times the probe loop on every CPU and takes the
    fastest, waiting up to ``MAX_WAIT_S`` for one within ``QUIET`` of the
    best probe time seen in the run: co-tenants slow each CPU in phases,
    independently per CPU.
    """

    QUIET = 1.15
    MAX_WAIT_S = 3.0

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.best = math.inf

    def pin(self):
        give_up = time.monotonic() + self.MAX_WAIT_S
        while True:
            timings = []
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                timings.append((_probe_loop(), cpu))
            probe, cpu = min(timings)
            self.best = min(self.best, probe)
            if probe <= self.best * self.QUIET or time.monotonic() > give_up:
                break
            time.sleep(0.1)
        os.sched_setaffinity(0, {cpu})
        return cpu, probe


def _spawn(args, mode, env, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise SampleError("time limit reached before all samples ran")
    cmd = [sys.executable, str(HERE / "child.py"), args.workload, str(args.seed), args.size, mode]
    try:
        proc = subprocess.run(
            cmd + [repr(time.monotonic())], env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise SampleError(f"{mode} sample did not finish within the time limit") from None
    if proc.returncode != 0:
        raise SampleError(f"{mode} sample exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _machine(numpy_version):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": THREAD_ENV,
        "fuzz_workers": 1,
    }


def _collect(args):
    env = _child_env()
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    group = ("plain",) if args.trace == 0 else ("plain", "trace")
    picker = CpuPicker()
    samples = []
    groups = 0
    while True:
        t0 = time.monotonic()
        for mode in group:
            cpu, before = picker.pin()
            sample = _spawn(args, mode, env, deadline)
            probe = (before + _probe_loop()) / 2
            samples.append(sample | {"cpu": cpu, "probe_s": probe, "scale": REF_PROBE_S / probe})
        groups += 1
        took = time.monotonic() - t0
        elapsed = time.monotonic() - start
        if groups >= MIN_GROUPS[args.trace] and elapsed + took > args.seconds:
            break
        if elapsed + 2 * took > RUN_LIMIT_S:
            break
    if any(s["layers"]["smb.smb_probe.self_s"] > 0 for s in samples if s["mode"] == "trace"):
        picker.pin()
        samples.append(_spawn(args, "memory", env, deadline))
    return samples


def _report(args, samples):
    plain = [s for s in samples if s["mode"] == "plain"]
    traced = [s for s in samples if s["mode"] == "trace"]
    memory = [s for s in samples if s["mode"] == "memory"]
    digests = sorted({s["digest"] for s in samples})
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["raised"] + s["wrong"] for s in samples)
    wall = statistics.median(s["wall_s"] * s["scale"] for s in plain)

    if args.trace == 0:
        metrics = {
            "wall_s": (wall, "s"),
            "units_per_s": (plain[0]["units"] / wall, "1/s"),
            "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in plain), "MB"),
            "setup_s": (statistics.median(s["setup_s"] * s["scale"] for s in plain), "s"),
            "ok_ratio": (1.0 - failed / attempted, "ratio"),
        }
    else:
        layers = {}
        for name, unit, _ in PER_LAYER:
            if name == "trace.overhead_s":
                value = statistics.median(s["wall_s"] * s["scale"] for s in traced) - wall
            elif name == "smb.smb_probe.peak_traced_mb":
                value = max((s["layers"][name] for s in memory), default=0.0)
            else:
                scaled = unit in ("s", "us")
                value = statistics.median(s["layers"][name] * (s["scale"] if scaled else 1.0) for s in traced)
            layers[name] = (value, unit)
        metrics = layers

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "effective_seed": plain[0]["effective_seed"],
        "qit_seed_removed": "QIT_SEED" in os.environ,
        "digest": digests[0] if len(digests) == 1 else digests,
        "size": args.size,
        "units": plain[0]["units"],
        "samples": {mode: sum(s["mode"] == mode for s in samples) for mode in ("plain", "trace", "memory")},
        "unscaled_wall_s": [s["wall_s"] for s in plain],
        "unscaled_setup_s": [s["setup_s"] for s in plain],
        "probe_s": [s["probe_s"] for s in plain],
        "cpus": [s["cpu"] for s in plain],
        "wrong": sum(s["wrong"] for s in samples),
        "unwrapped": sorted({m for s in traced for m in s["unwrapped"]}),
        "machine": _machine(plain[0]["numpy"]),
    }
    result = {
        "correct": len(digests) == 1 and info["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return info, result


def _parse(argv):
    parser = argparse.ArgumentParser(description="qit benchmark: one workload, one seed")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time to spend on samples")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full", help="toy: smoke-test size")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "qit" / "__init__.py").is_file():
        print(f"error: no qit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        samples = _collect(args)
    except SampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    info, result = _report(args, samples)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
