"""Command-line interface.

Subcommands mirror the library: ``entropy`` and ``measures`` evaluate
single quantities, ``fuzz`` runs law campaigns, ``markov`` emits the
stepwise second-law report, ``maxent`` solves the mean-constrained
problem (optionally sweeping targets), and ``smb`` runs the trajectory
probe.

Conventions shared by every subcommand:

* distributions and tables are passed as JSON — either a literal
  argument or ``@path`` to read a file; malformed JSON is reported with
  its line and column and exits with status 2.
* status 0 on success, 2 on any argument, parse, domain, or convergence
  problem, 3 when a fuzz campaign counted violations.
* ``--out`` writes the report to a file (default stdout); ``--format``
  picks ``csv`` or ``json`` where both exist.  CSV floats use the
  ``%.10g`` format.
* ``--seed`` seeds campaigns;  the ``QIT_SEED`` environment variable,
  when set, takes precedence over the flag so wrapper scripts can pin
  seeds without editing command lines.
* ``--deterministic`` drops the timestamp from JSON metadata so reruns
  are byte-identical.
"""

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from .errors import ConvergenceError
from .laws import LawId, SlackReport, all_laws, fuzz
from .markov import MarkovChain, SecondLawRow, second_law_report
from .maxent import MaxEntProblem, _levels_array, solve, verify_optimality
from .measures import (
    conditional_mutual_q_information,
    mutual_q_information,
    q_entropy,
    q_entropy_chain_terms,
    q_entropy_joint,
    relative_q_entropy,
    tsallis_entropy,
)
from .prob import JointTable, ProbVec, _count, _csv_row
from .smb import smb_probe


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_json(text: str, what: str):
    if text.startswith("@"):
        path = text[1:]
        try:
            raw = Path(path).read_text()
        except OSError as exc:
            raise _CliError(2, f"{what}: cannot read {path}: {exc}") from None
    else:
        raw = text
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise _CliError(
            2, f"{what}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None


def _container_arg(cls, text: str, what: str):
    """A ``ProbVec`` or ``JointTable`` from a JSON array or its JSON object form."""
    return cls.from_json_dict(_load_json(text, what))


def _resolve_seed(args) -> int:
    env = os.environ.get("QIT_SEED")
    if env is None:
        return args.seed
    try:
        return int(env)
    except ValueError:
        raise _CliError(2, f"QIT_SEED must be an integer, got {env!r}") from None


def _meta(args, seed=None) -> dict:
    meta = {"deterministic": bool(args.deterministic)}
    if seed is not None:
        meta["seed"] = seed
    if not args.deterministic:
        meta["generated_at"] = datetime.now(timezone.utc).isoformat()
    return meta


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_entropy(args) -> int:
    p = _container_arg(ProbVec, args.dist, "--dist")
    value = tsallis_entropy(p, args.q) if args.family == "tsallis" else q_entropy(p, args.q)
    _emit(args, _csv_row([value]) + "\n")
    return 0


def _cmd_measures(args) -> int:
    if args.joint is not None:
        if args.p is not None or args.r is not None:
            raise _CliError(2, "pass either --joint or the --p/--r pair, not both")
        table = _container_arg(JointTable, args.joint, "--joint")
        out = {
            "q": args.q,
            "shape": list(table.shape),
            "joint_entropy": q_entropy_joint(table, args.q),
            "chain_terms": q_entropy_chain_terms(table, args.q),
            "marginal_entropies": [
                q_entropy(table.marginal(a), args.q) for a in range(table.rank)
            ],
        }
        if table.rank == 2:
            out["mutual_information"] = mutual_q_information(table, args.q)
        if table.rank == 3:
            out["conditional_mutual_information"] = conditional_mutual_q_information(
                table, args.q, given_axis=2
            )
    elif args.p is not None and args.r is not None:
        out = {
            "q": args.q,
            "relative_entropy": relative_q_entropy(
                _container_arg(ProbVec, args.p, "--p"), _container_arg(ProbVec, args.r, "--r"), args.q
            ),
        }
    else:
        raise _CliError(2, "measures needs --joint, or both --p and --r")
    out["meta"] = _meta(args)
    _emit(args, json.dumps(out, indent=2) + "\n")
    return 0


def _cmd_fuzz(args) -> int:
    seed = _resolve_seed(args)
    chosen = all_laws() if args.law == "all" else [LawId(args.law)]
    q_range = tuple(args.q_range) if args.q_range else None
    reports = [
        fuzz(
            law,
            trials=args.trials,
            q_range=q_range,
            seed=seed,
            tol=args.tol,
        )
        for law in chosen
    ]
    if args.format == "csv":
        lines = [SlackReport.CSV_HEADER] + [r.to_csv_row() for r in reports]
        _emit(args, "\n".join(lines) + "\n")
    else:
        payload = {
            "meta": _meta(args, seed=seed),
            "reports": [r.to_json_dict() for r in reports],
        }
        _emit(args, json.dumps(payload, indent=2) + "\n")
    return 3 if sum(r.violations for r in reports) else 0


def _make_chain(args) -> MarkovChain:
    data = _load_json(args.transition, "--transition")
    initial = _container_arg(ProbVec, args.initial, "--initial") if args.initial else None
    return MarkovChain(data, initial)


def _cmd_markov(args) -> int:
    chain = _make_chain(args)
    rows = second_law_report(chain, args.steps, args.q)
    if args.format == "csv":
        lines = [SecondLawRow.CSV_HEADER] + [row.to_csv_row() for row in rows]
        _emit(args, "\n".join(lines) + "\n")
    else:
        payload = {
            "meta": _meta(args),
            "q": args.q,
            "applicable": rows[0].applicable,
            "rows": [row.to_json_dict() for row in rows],
        }
        _emit(args, json.dumps(payload, indent=2) + "\n")
    return 0


_SWEEP_HEADER = "target,lambda,mu,entropy,support_size"


def _cmd_maxent(args) -> int:
    levels = _load_json(args.levels, "--levels")
    if args.verify is not None:
        _count(args.verify, "--verify")
    if args.sweep is not None:
        if args.target_mean is not None or args.verify is not None:
            raise _CliError(2, "pass either --sweep or --target-mean (with --verify), not both")
        _count(args.sweep, "--sweep")
        arr = _levels_array(levels)
        lo, hi = float(arr.min()), float(arr.max())
        lines = [_SWEEP_HEADER]
        for i in range(args.sweep):
            target = lo + (hi - lo) * (i + 1) / (args.sweep + 1)
            sol = solve(MaxEntProblem(levels, target, args.q))
            lines.append(_csv_row((target, sol.lam, sol.mu, sol.entropy(), len(sol.support))))
        _emit(args, "\n".join(lines) + "\n")
        return 0
    if args.target_mean is None:
        raise _CliError(2, "maxent needs --target-mean (or --sweep)")
    sol = solve(MaxEntProblem(levels, args.target_mean, args.q))
    payload = {"meta": _meta(args), "solution": sol.to_json_dict()}
    if args.verify is not None:
        check = verify_optimality(sol, trials=args.verify, seed=_resolve_seed(args))
        payload["optimality"] = check.to_json_dict()
    _emit(args, json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_smb(args) -> int:
    chain = _make_chain(args)
    curve = smb_probe(
        chain,
        args.q,
        n_max=args.n_max,
        trajectories=args.trajectories,
        seed=_resolve_seed(args),
        k=args.k,
    )
    if args.format == "csv":
        _emit(args, curve.to_csv())
    else:
        payload = {"meta": _meta(args, seed=curve.seed), **curve.to_json_dict()}
        _emit(args, json.dumps(payload, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_common(sub, *, fmt=None) -> None:
    sub.add_argument("--out", help="write the report to this file instead of stdout")
    sub.add_argument("--deterministic", action="store_true", help="omit timestamps so reruns are byte-identical")
    if fmt is not None:
        sub.add_argument("--format", choices=["csv", "json"], default=fmt, help=f"output format (default {fmt})")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qit", description="Deformed-entropy toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("entropy", help="entropy of one distribution")
    p.add_argument("--dist", required=True, help='JSON distribution, e.g. "[0.5,0.5]" or @file')
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--family", choices=["plain", "tsallis"], default="plain")
    _add_common(p)
    p.set_defaults(func=_cmd_entropy)

    p = subs.add_parser("measures", help="information measures of a joint table or a pair")
    p.add_argument("--joint", help="JSON joint table (rank 2..4) or @file")
    p.add_argument("--p", help="JSON distribution (with --r: divergence of p from r)")
    p.add_argument("--r", help="JSON reference distribution")
    p.add_argument("--q", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_measures)

    p = subs.add_parser("fuzz", help="seeded law-verification campaign")
    p.add_argument("--law", choices=[l.value for l in LawId] + ["all"], required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--q-range", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--seed", type=int, default=0)
    # accepted only as 1, a no-op, because the benchmark's fuzz argv (bench/workloads.py) passes it
    p.add_argument("--workers", type=int, choices=[1], default=1, help=argparse.SUPPRESS)
    p.add_argument("--tol", type=float, default=None, help="violation threshold (defaults per law kind)")
    _add_common(p, fmt="csv")
    p.set_defaults(func=_cmd_fuzz)

    p = subs.add_parser("markov", help="stepwise second-law report of a chain")
    p.add_argument("--transition", required=True, help="JSON row-stochastic matrix or @file")
    p.add_argument("--initial", help="JSON start distribution (default uniform)")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--q", type=float, required=True)
    _add_common(p, fmt="csv")
    p.set_defaults(func=_cmd_markov)

    p = subs.add_parser("maxent", help="mean-constrained entropy maximization")
    p.add_argument("--levels", required=True, help="JSON array of scalar levels or @file")
    p.add_argument("--target-mean", type=float)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--sweep", type=int, metavar="K", help="solve K interior targets, emit CSV")
    p.add_argument("--verify", type=int, metavar="N", help="sample N feasible competitors")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_maxent)

    p = subs.add_parser("smb", help="trajectory surprisal probe")
    p.add_argument("--transition", required=True, help="JSON row-stochastic matrix or @file")
    p.add_argument(
        "--initial",
        help="JSON start distribution; the probe starts from the stationary law it leads to, "
        "which for a reducible chain depends on it (default uniform)",
    )
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--trajectories", type=int, required=True)
    p.add_argument("--k", type=int, default=1, help="approximation order (default 1)")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, fmt="csv")
    p.set_defaults(func=_cmd_smb)

    return parser


def run(argv=None) -> int:
    """Parse and execute; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (
        ValueError,  # covers QDomainError, ImpossibleTrajectoryError
        ConvergenceError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
