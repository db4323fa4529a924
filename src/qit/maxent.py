"""Entropy maximization under a mean constraint, in the deformed family.

The program is: maximize the plain-weighted entropy over distributions on
a fixed set of scalar levels, subject to a prescribed mean.  Because the
entropy is ``(1 - sum p**(2-q)) / (1 - q)``, the problem is a smooth
convex program for every ``0 <= q < 2`` and has a unique solution.  On
its support the solution has the closed form

    p_i = exp_q((-lam - mu * e_i) / (2 - q)),

and the multiplier pair ``(lam, mu)`` satisfies, level by level,

    -1 - (2 - q) * ln_q(p_i)  =  (lam - 1) + mu * e_i

(at q = 1 the left side is ``-1 - log p_i``, which recovers the
classical exponential family).  Levels can drop out of the support
when q < 1: a removed level j is consistent exactly when the exponential
argument at j falls outside the domain of ``exp_q``, i.e. when the domain
margin ``1 + (1 - q) * arg_j`` is nonpositive.  The solver therefore runs
a damped Newton iteration on the two multipliers, keeping every active
level strictly inside the domain; when the iteration stalls against the
domain wall it removes the offending level and re-solves on the rest,
then checks the removed levels' margins at the final multipliers.

``verify_optimality`` spot-checks a solution against random feasible
competitors, mixtures of the vertices of the feasible polytope, so no
draw is ever rejected.  The entropy gap to the solution must be
nonnegative; on full-support solutions the gap also equals the stable
divergence-like form ``sum f (ln_q f - ln_q p)`` exactly, which is
asserted as an internal consistency check.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .measures import _entropy_from_array
from .prob import ProbVec, _float_array, make_rng
from .qcore import exp_q_inside, ln_q, ln_q_pos, q_value

#: Removed levels must have domain margin at or below this at the solution.
KKT_MARGIN_TOL = 1e-9
#: Newton on one active set: constraint residual bound (level-scaled units), iteration cap.
NEWTON_TOL, NEWTON_ITERS = 1e-12, 200


@dataclass(frozen=True)
class MaxEntProblem:
    """Levels, prescribed mean, and deformation index."""

    levels: np.ndarray
    target_mean: float
    q: float

    def __init__(self, levels, target_mean, q):
        arr = _float_array(levels, "levels")
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("levels must be a non-empty 1-D array")
        if not np.isfinite(arr).all():
            raise ValueError("levels must be finite")
        qv = q_value(q)
        if not 0.0 <= qv < 2.0:
            raise ValueError(f"the constrained solver requires 0 <= q < 2, got {qv:g}")
        t = float(target_mean)
        if not math.isfinite(t):
            raise ValueError("target mean must be finite")
        if np.ptp(arr) == 0.0:
            if abs(t - arr[0]) > 1e-12 * max(1.0, abs(arr[0])):
                raise ValueError("with identical levels the target mean must equal them")
        elif not (arr.min() < t < arr.max()):
            raise ValueError("target mean must lie strictly inside the range of the levels")
        arr.setflags(write=False)
        object.__setattr__(self, "levels", arr)
        object.__setattr__(self, "target_mean", t)
        object.__setattr__(self, "q", qv)

    @property
    def m(self) -> int:
        return self.levels.size


def _p_from_multipliers(lam, mu, eps, qv):
    """Distribution and domain margins at (lam, mu); p is None out of domain."""
    arg = (-lam - mu * eps) / (2.0 - qv)
    base = 1.0 + (1.0 - qv) * arg
    if base.min() <= 0.0:
        return None, base
    with np.errstate(over="ignore"):  # the line search rejects overflowed candidates
        return exp_q_inside(arg, qv), base


class _Stuck(Exception):
    """Internal: Newton could not finish on the current active set."""

    def __init__(self, lam, mu, p, norm, iters, step=None):
        super().__init__("newton stalled")
        self.lam = lam
        self.mu = mu
        self.p = p
        self.norm = norm
        self.iters = iters
        self.step = step


def _newton(eps, target, qv):
    two_q = 2.0 - qv
    m = eps.size
    lam = -two_q * float(ln_q(1.0 / m, qv))
    mu = 0.0
    p, _ = _p_from_multipliers(lam, mu, eps, qv)
    f1 = float(p.sum()) - 1.0
    f2 = float(p @ eps) - target
    norm = max(abs(f1), abs(f2))
    iters = 0
    while norm > NEWTON_TOL:
        if iters >= NEWTON_ITERS:
            raise _Stuck(lam, mu, p, norm, iters)
        w = np.power(p, qv)
        j12 = float(w @ eps)
        jac = np.array([[float(w.sum()), j12], [j12, float(w @ (eps * eps))]]) / -two_q
        try:
            step = np.linalg.solve(jac, [-f1, -f2])
        except np.linalg.LinAlgError:
            raise _Stuck(lam, mu, p, norm, iters) from None
        t = 1.0
        for _ in range(60):
            cand = _p_from_multipliers(lam + t * step[0], mu + t * step[1], eps, qv)[0]
            if cand is not None and np.isfinite(cand).all():
                c1 = float(cand.sum()) - 1.0
                c2 = float(cand @ eps) - target
                cn = max(abs(c1), abs(c2))
                if cn < norm:
                    lam += t * step[0]
                    mu += t * step[1]
                    p, f1, f2, norm = cand, c1, c2, cn
                    break
            t /= 2.0
        else:
            raise _Stuck(lam, mu, p, norm, iters, step=step)
        iters += 1
    return lam, mu, p, iters, (f1, f2)


def _drop_candidate(stuck: _Stuck, eps, qv) -> int:
    """Index of the level being squeezed out of the support."""
    if stuck.step is not None:
        # margins at the undamped Newton candidate show which level the
        # iteration is pressing against the domain wall
        _, base = _p_from_multipliers(
            stuck.lam + stuck.step[0], stuck.mu + stuck.step[1], eps, qv
        )
        j = int(np.argmin(base))
        if base[j] <= 0.0:
            return j
    return int(np.argmin(stuck.p))


def _solve_with_cutoff(eps_all, target, qv):
    active = np.arange(eps_all.size)
    spent = 0
    while True:
        eps = eps_all[active]
        try:
            lam, mu, p, iters, resid = _newton(eps, target, qv)
            return lam, mu, p, active, spent + iters, resid
        except _Stuck as s:
            spent += s.iters
            if qv >= 1.0 or active.size <= 2:
                raise ConvergenceError(
                    f"constrained solve stalled with residual {s.norm:.3e}",
                    last=(s.lam, s.mu),
                    residuals=[s.norm],
                ) from None
            j = _drop_candidate(s, eps, qv)
            keep = np.ones(active.size, dtype=bool)
            keep[j] = False
            reduced = eps_all[active[keep]]
            if not (reduced.min() < target < reduced.max()):
                raise ConvergenceError(
                    "support reduction made the target mean infeasible",
                    last=(s.lam, s.mu),
                    residuals=[s.norm],
                ) from None
            active = active[keep]


@dataclass(frozen=True)
class MaxEntSolution:
    """Solution distribution with its multipliers and diagnostics."""

    problem: MaxEntProblem
    p: ProbVec
    lam: float
    mu: float
    support: tuple
    iterations: int
    residuals: tuple  # (|sum p - 1|, |sum p e - target|) before renormalization

    def arguments(self) -> np.ndarray:
        """Deformed-exponential argument at every level."""
        return (-self.lam - self.mu * self.problem.levels) / (2.0 - self.problem.q)

    def domain_margins(self) -> np.ndarray:
        """``1 + (1 - q) * argument`` per level; nonpositive on removed levels."""
        return 1.0 + (1.0 - self.problem.q) * self.arguments()

    def stationarity_residuals(self) -> np.ndarray:
        """Per-support-level defect of the multiplier identity."""
        qv = self.problem.q
        idx = list(self.support)
        eps = self.problem.levels[idx]
        p = self.p.p[idx]
        rhs = (self.lam - 1.0) + self.mu * eps
        return np.abs(-1.0 - (2.0 - qv) * ln_q_pos(p, qv) - rhs)

    def entropy(self) -> float:
        return _entropy_from_array(self.p.p, self.problem.q)

    def to_json_dict(self) -> dict:
        return {
            "p": self.p.p.tolist(),
            "lambda": self.lam,
            "mu": self.mu,
            "q": self.problem.q,
            "levels": self.problem.levels.tolist(),
            "target_mean": self.problem.target_mean,
            "support": list(self.support),
            "entropy": self.entropy(),
            "iterations": self.iterations,
            "residuals": list(self.residuals),
        }


def solve(problem: MaxEntProblem) -> MaxEntSolution:
    """Solve the mean-constrained entropy maximization.

    ``NEWTON_TOL`` bounds the constraint residuals in level-scaled units.  Raises
    ConvergenceError when the damped iteration cannot finish, and never
    returns a solution whose removed levels fail their margin condition.
    """
    qv = problem.q
    eps_raw = problem.levels
    m = eps_raw.size
    two_q = 2.0 - qv
    if np.ptp(eps_raw) == 0.0:
        p_full = np.full(m, 1.0 / m)
        lam = -two_q * float(ln_q(1.0 / m, qv))
        mu = 0.0
        active = np.arange(m)
        iters = 0
        resid = (abs(float(p_full.sum()) - 1.0), abs(float(p_full @ eps_raw) - problem.target_mean))
    else:
        scale = max(1.0, float(np.abs(eps_raw).max()))
        lam, mu_s, p_act, active, iters, resid_s = _solve_with_cutoff(
            eps_raw / scale, problem.target_mean / scale, qv
        )
        mu = mu_s / scale
        p_full = np.zeros(m)
        p_full[active] = p_act
        resid = (abs(resid_s[0]), abs(resid_s[1]) * scale)

    solution = MaxEntSolution(
        problem=problem,
        p=ProbVec(p_full / p_full.sum()),
        lam=float(lam),
        mu=float(mu),
        support=tuple(int(i) for i in active),
        iterations=int(iters),
        residuals=(float(resid[0]), float(resid[1])),
    )
    removed = np.setdiff1d(np.arange(m), np.asarray(active))
    if removed.size and float(solution.domain_margins()[removed].max()) > KKT_MARGIN_TOL:
        raise ConvergenceError(
            "support reduction is inconsistent: a removed level has positive margin",
            last=(solution.lam, solution.mu),
            residuals=list(solution.domain_margins()[removed]),
        )
    return solution


def _gap_formula(f: np.ndarray, p: np.ndarray, qv: float) -> float:
    """Stable closed form of the entropy gap to a feasible competitor."""
    mask = f > 0
    return float((f[mask] * (ln_q_pos(f[mask], qv) - ln_q_pos(p[mask], qv))).sum())


@dataclass(frozen=True)
class OptimalityCheck:
    """Result of sampling feasible competitors against a solution."""

    trials: int
    seed: int
    min_gap: float
    mean_gap: float
    max_formula_mismatch: float | None  # None when the solution has zeros

    def passed(self, tol: float = 1e-9) -> bool:
        return self.min_gap >= -tol

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "min_gap": self.min_gap,
            "mean_gap": self.mean_gap,
            "max_formula_mismatch": self.max_formula_mismatch,
        }


def verify_optimality(solution: MaxEntSolution, trials: int = 100, seed: int = 0) -> OptimalityCheck:
    """Entropy gap from the solution to random feasible competitors.

    Each competitor mixes m vertices of the feasible polytope with
    flat-Dirichlet weights.  A vertex is the two-point law on levels
    ``e_i <= t < e_j`` with mass ``(e_j - t) / (e_j - e_i)`` at i, a point
    mass when ``e_i = t``.  With identical levels there is no such pair and
    the competitor is a flat-Dirichlet draw.  Memory is O(m) per
    competitor.  The minimum gap over trials is the optimality margin.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    prob = solution.problem
    qv = prob.q
    m = prob.m
    e = prob.levels
    t = prob.target_mean
    p_star = solution.p.p
    h_star = _entropy_from_array(p_star, qv)
    full_support = bool((p_star > 0).all())
    lo = np.flatnonzero(e <= t)
    hi = np.flatnonzero(e > t)
    rng = make_rng(seed)
    min_gap = math.inf
    total = 0.0
    mismatch = 0.0 if full_support else None
    for _ in range(trials):
        w = rng.standard_exponential(m)
        w /= w.sum()
        if lo.size and hi.size:
            i, j = np.divmod(rng.integers(lo.size * hi.size, size=m), hi.size)
            i, j = lo[i], hi[j]
            # the share at i is <= 1 and exactly 1 at e_i = t, so w - at_i >= 0
            at_i = w * ((e[j] - t) / (e[j] - e[i]))
            f = np.bincount(i, at_i, minlength=m) + np.bincount(j, w - at_i, minlength=m)
        else:
            f = w
        gap = h_star - _entropy_from_array(f, qv)
        if full_support:
            mm = abs(gap - _gap_formula(f, p_star, qv))
            if mm > 1e-7:
                raise RuntimeError(
                    "internal inconsistency: direct and closed-form entropy gaps disagree"
                )
            mismatch = max(mismatch, mm)
        min_gap = min(min_gap, gap)
        total += gap
    return OptimalityCheck(
        trials=trials,
        seed=int(seed),
        min_gap=float(min_gap),
        mean_gap=float(total / trials),
        max_formula_mismatch=mismatch,
    )
