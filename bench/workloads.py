"""Seeded inputs, timed campaigns and output checks of the four workloads.

A workload is three functions:

* ``setup(seed, size)`` makes the inputs from the seed; it is part of
  set-up time;
* ``run(inputs)`` is the timed campaign.  It reaches ``qit`` only through
  public names looked up at call time (``cli.run``, ``markov.*``,
  ``maxent.*``), so a traced run sees the wrappers of ``tracing``;
* ``check(inputs, out)`` applies the acceptance-gate checks and returns an
  ``Outcome``.

Every operation ends ``ok``, ``raised`` (it threw) or ``wrong`` (its output
failed a check); failed operations are ``raised + wrong``.  ``text`` is the
deterministic output of the campaign, whose sha256 is the run's digest.
"""

import contextlib
import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from qit import cli, markov, maxent
from qit.laws import all_laws
from qit.prob import make_rng

#: Work per campaign; ``toy`` is for the smoke test only.
SIZES = {
    "full": {
        "fuzz_trials": 1000,
        "chains": 60,
        "smb": (100_000, 200),
        "maxent_ms": (3, 8, 16),
        "maxent_fractions": (0.02, 0.1, 0.25, 0.4, 0.6, 0.75, 0.9, 0.98),
        "verify_trials": 100,
    },
    "toy": {
        "fuzz_trials": 20,
        "chains": 5,
        "smb": (256, 4),
        "maxent_ms": (3, 8),
        "maxent_fractions": (0.02, 0.5),
        "verify_trials": 10,
    },
}

SECOND_LAW_QS = (0.2, 0.5, 0.8)
SECOND_LAW_STEPS = 50
SMB_TRANSITION = "[[0.9,0.1],[0.1,0.9]]"
SMB_Q = 0.75
MAXENT_QS = (0.3, 0.6, 0.9, 1.0, 1.4)


@dataclass
class Outcome:
    attempted: int
    raised: int
    wrong: int
    units: int
    text: str
    effective_seed: int | None


def _count(statuses, units, text, effective_seed):
    return Outcome(
        attempted=len(statuses),
        raised=statuses.count("raised"),
        wrong=statuses.count("wrong"),
        units=units,
        text=text,
        effective_seed=effective_seed,
    )


def _run_cli(argv):
    """(exit status, stdout) of ``qit.cli.run``; (None, error) if it threw."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            status = cli.run(argv)
    except Exception as exc:  # an escaped error is a failed operation
        return None, repr(exc)
    return status, buf.getvalue()


# ---------------------------------------------------------------------------
# fuzz: every law through the CLI, default q ranges


def fuzz_setup(seed, size):
    trials = SIZES[size]["fuzz_trials"]
    argv = ["fuzz", "--law", "all", "--trials", str(trials), "--seed", str(seed),
            "--workers", "1", "--format", "csv", "--deterministic"]
    return {"argv": argv, "trials": trials, "seed": seed, "laws": [law.value for law in all_laws()]}


def fuzz_run(inputs):
    return _run_cli(inputs["argv"])


def fuzz_check(inputs, out):
    status, text = out
    rows = {}
    if status in (0, 3):
        rows = {row["law"]: row for row in csv.DictReader(io.StringIO(text))}
    seeds = {int(row["seed"]) for row in rows.values()}
    statuses = []
    for law in inputs["laws"]:
        row = rows.get(law)
        if row is None:
            statuses.append("raised")
        elif int(row["violations"]) or int(row["trials"]) != inputs["trials"] or int(row["seed"]) != inputs["seed"]:
            statuses.append("wrong")
        else:
            statuses.append("ok")
    units = inputs["trials"] * len(inputs["laws"])
    return _count(statuses, units, f"{status}\n{text}", seeds.pop() if len(seeds) == 1 else None)


# ---------------------------------------------------------------------------
# second-law: doubly stochastic chains, random and uniform starts


def second_law_setup(seed, size):
    ms = [2 + i % 5 for i in range(SIZES[size]["chains"])]
    start_rng = make_rng(seed, stream=1)
    starts = [start_rng.dirichlet(np.ones(m)).tolist() for m in ms]
    return {"ms": ms, "starts": starts, "rng": make_rng(seed), "seed": seed}


def second_law_run(inputs):
    rng = inputs["rng"]
    results = []
    for m, start in zip(inputs["ms"], inputs["starts"]):
        try:
            r = markov.random_doubly_stochastic(m, rng)
        except Exception as exc:  # counted as failed reports
            results.extend((q, kind, exc) for q in SECOND_LAW_QS for kind in ("random", "uniform"))
            continue
        for q in SECOND_LAW_QS:
            for kind, initial in (("random", start), ("uniform", None)):
                try:
                    rows = markov.second_law_report(markov.MarkovChain(r, initial), SECOND_LAW_STEPS, q)
                except Exception as exc:
                    rows = exc
                results.append((q, kind, rows))
    return results


def second_law_check(inputs, results):
    statuses = []
    lines = []
    for q, kind, rows in results:
        if isinstance(rows, Exception):
            statuses.append("raised")
            lines.append(f"{q} {kind} {type(rows).__name__}")
            continue
        if kind == "random":
            ok = min(row.slack for row in rows) >= -1e-9
        else:
            ok = max(max(abs(row.slack), abs(row.t_q), abs(row.delta_h), abs(row.lhs)) for row in rows) <= 1e-12
        statuses.append("ok" if ok else "wrong")
        lines.extend(
            f"{q} {kind} {row.step} {row.h_q!r} {row.delta_h!r} {row.t_q!r} {row.slack!r}" for row in rows
        )
    return _count(statuses, len(results) * SECOND_LAW_STEPS, "\n".join(lines), inputs["seed"])


# ---------------------------------------------------------------------------
# smb-long: the surprisal probe through the CLI on the sticky chain


def smb_setup(seed, size):
    n_max, trajectories = SIZES[size]["smb"]
    argv = ["smb", "--transition", SMB_TRANSITION, "--q", str(SMB_Q), "--n-max", str(n_max),
            "--trajectories", str(trajectories), "--seed", str(seed), "--format", "csv", "--deterministic"]
    return {"argv": argv, "n_max": n_max, "trajectories": trajectories, "seed": seed}


def smb_run(inputs):
    return _run_cli(inputs["argv"])


def smb_check(inputs, out):
    status, text = out
    if status != 0:
        state = "raised"
    else:
        rows = list(csv.reader(io.StringIO(text)))[1:]
        finite = all(math.isfinite(float(v)) for row in rows for v in row)
        state = "ok" if rows and finite and int(rows[-1][0]) == inputs["n_max"] else "wrong"
    units = inputs["n_max"] * inputs["trajectories"]
    return _count([state], units, f"{status}\n{text}", inputs["seed"])


# ---------------------------------------------------------------------------
# maxent-sweep: solve and verify interior and edge targets


def maxent_setup(seed, size):
    spec = SIZES[size]
    rng = make_rng(seed)
    points = []
    for m in spec["maxent_ms"]:
        # jitter below half the spacing keeps the levels sorted and distinct
        levels = np.arange(m) + rng.uniform(-0.25, 0.25, m)
        span = levels[-1] - levels[0]
        for fraction in spec["maxent_fractions"]:
            for q in MAXENT_QS:
                points.append((levels, levels[0] + span * fraction, q, int(rng.integers(2**31))))
    return {"points": points, "trials": spec["verify_trials"], "seed": seed}


def maxent_run(inputs):
    results = []
    for levels, target, q, verify_seed in inputs["points"]:
        try:
            sol = maxent.solve(maxent.MaxEntProblem(levels, target, q))
        except Exception as exc:  # counted as a failed solve
            results.append((exc, None))
            continue
        try:
            check = maxent.verify_optimality(sol, trials=inputs["trials"], seed=verify_seed)
        except Exception as exc:  # SamplingError included: a failed operation
            check = exc
        results.append((sol, check))
    return results


def maxent_check(inputs, results):
    statuses = []
    lines = []
    for sol, check in results:
        if isinstance(sol, Exception):
            statuses.append("raised")
            lines.append(type(sol).__name__)
            continue
        line = f"{sol.lam!r} {sol.mu!r} {sol.support} {sol.iterations}"
        if isinstance(check, Exception):
            line += f" {type(check).__name__}"
            gap_ok = True
        else:
            line += f" {check.min_gap!r} {check.mean_gap!r}"
            gap_ok = check.min_gap >= -1e-9
        if max(sol.residuals) > 1e-10 or not gap_ok:
            statuses.append("wrong")
        else:
            statuses.append("raised" if isinstance(check, Exception) else "ok")
        lines.append(line)
    return _count(statuses, len(results), "\n".join(lines), inputs["seed"])


WORKLOADS = {
    "fuzz": (fuzz_setup, fuzz_run, fuzz_check),
    "second-law": (second_law_setup, second_law_run, second_law_check),
    "smb-long": (smb_setup, smb_run, smb_check),
    "maxent-sweep": (maxent_setup, maxent_run, maxent_check),
}
