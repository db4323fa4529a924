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
margin ``1 + (1 - q) * arg_j`` is nonpositive.  As that margin is linear
in the level, the support is every level on one side of a root ``e0``,
the Tsallis cutoff.  The solver finds the cutoff by bisection on the
sorted levels, one O(m) mean per probe, then runs a damped Newton
iteration on the two multipliers over that support, keeping every active
level strictly inside the domain, and checks the removed levels' margins
at the final multipliers.  Each line search is one loop over the step
halvings ``t = 1, 1/2, 1/4, ...``, which most Newton steps leave at t = 1.

``verify_optimality`` spot-checks a solution against random feasible
competitors, mixtures of the vertices of the feasible polytope, so no
draw is ever rejected.  The entropy gap to the solution must be
nonnegative; on full-support solutions the gap also equals the stable
divergence-like form ``sum f (ln_q f - ln_q p)`` exactly, which is
asserted as an internal consistency check.
"""

import bisect
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConvergenceError
from .measures import _entropy_rows, _plogp
from .prob import ProbVec, _count, _float_array, make_rng
from .qcore import SHANNON_TOL, exp_q_inside, ln_q_pos, q_value

#: Removed levels must have domain margin at or below this at the solution.
KKT_MARGIN_TOL = 1e-9
#: Newton on one active set: constraint residual bound (level-scaled units), iteration cap.
NEWTON_TOL, NEWTON_ITERS = 1e-12, 200
#: Cells per array in a block of competitors.
_CELLS = 1 << 12


def _levels_array(levels) -> np.ndarray:
    """``levels`` as a float array; not a non-empty finite 1-D array raises ValueError."""
    arr = _float_array(levels, "levels")
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("levels must be a non-empty 1-D array")
    if not np.isfinite(arr).all():
        raise ValueError("levels must be finite")
    return arr


@dataclass(frozen=True)
class MaxEntProblem:
    """Levels, prescribed mean, and deformation index."""

    levels: np.ndarray
    target_mean: float
    q: float

    def __init__(self, levels, target_mean, q):
        arr = _levels_array(levels)
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


def _arguments(lam, mu, eps, qv):
    """Deformed-exponential argument at each level: ``(-lam - mu e) / (2 - q)``."""
    return (-lam - mu * eps) / (2.0 - qv)


def _candidate(arg, eps, target, qv, norm):
    """``(p, f1, f2, norm)`` at the arguments ``arg``, or None.

    None when ``arg`` leaves the ``exp_q`` domain, when p overflows, or when
    p does not lower the residual norm below ``norm``.
    """
    if not (1.0 + (1.0 - qv) * arg).min() > 0.0:
        return None
    cand = exp_q_inside(arg, qv)
    if not np.isfinite(cand).all():
        return None
    c1 = float(cand.sum()) - 1.0
    c2 = float(cand @ eps) - target
    cn = max(abs(c1), abs(c2))
    return (cand, c1, c2, cn) if cn < norm else None


def _line_search(lam, mu, step, eps, target, qv, norm):
    """First halving ``t = 2**-k``, k < 60, whose candidate lowers the residual norm.

    Each halving is one ``_candidate``; most Newton steps take the first,
    t = 1.  Returns ``(t, p, f1, f2, norm)``, or None when no halving does.

    An overflowed candidate, and one whose arguments or margins overflow to
    nan (``inf - inf``, or ``0 * inf`` at q = 1), is rejected: a nan margin
    fails the domain test.  This function does not silence those warnings:
    ``_newton`` holds one ``np.errstate(over="ignore", invalid="ignore")``
    over all its line searches, and a direct caller must hold its own.
    """
    s0, s1 = step
    t = 1.0
    for _ in range(60):
        found = _candidate(_arguments(lam + t * s0, mu + t * s1, eps, qv), eps, target, qv, norm)
        if found is not None:
            return (t, *found)
        t /= 2.0
    return None


def _stalled(lam, mu, norm):
    return ConvergenceError(
        f"constrained solve stalled with residual {norm:.3e}", last=(lam, mu), residuals=[norm]
    )


@np.errstate(over="ignore", invalid="ignore")  # overflowed or nan candidates are rejected
def _newton(eps, target, qv):
    """Damped Newton on ``(lam, mu)`` from the flat law, over the levels ``eps``.

    The Jacobian entries and the step are Python floats; ``np.linalg.solve``
    stays for LAPACK's pivoting and rounding.  Each step takes the first
    halving that ``_line_search`` accepts.  Returns
    ``(lam, mu, p, iterations, (f1, f2))``; a stall raises ConvergenceError.
    """
    two_q = 2.0 - qv
    m = eps.size
    lam = -two_q * float(ln_q_pos(np.array([1.0 / m]), qv)[0])
    mu = 0.0
    p, f1, f2, norm = _candidate(_arguments(lam, mu, eps, qv), eps, target, qv, math.inf)
    eps2 = eps * eps
    d = -two_q  # dividing each entry by d gives the bits of dividing the array
    iters = 0
    while norm > NEWTON_TOL:
        if iters >= NEWTON_ITERS:
            raise _stalled(lam, mu, norm)
        w = np.power(p, qv)
        j12 = float(w @ eps)
        jac = np.array([[float(w.sum()) / d, j12 / d], [j12 / d, float(w @ eps2) / d]])
        try:
            step = np.linalg.solve(jac, [-f1, -f2]).tolist()
        except np.linalg.LinAlgError:
            raise _stalled(lam, mu, norm) from None
        found = _line_search(lam, mu, step, eps, target, qv, norm)
        if found is None:
            raise _stalled(lam, mu, norm)
        t, p, f1, f2, norm = found
        lam += t * step[0]
        mu += t * step[1]
        iters += 1
    return lam, mu, p, iters, (f1, f2)


def _supports(eps, target, qv):
    """Supports for ``_newton`` to try in turn, each with the levels it drops.

    For 0 <= q < 1 the support is the levels on one side of the cutoff: the
    high ones go for a target below the levels' mean, the low ones for one
    above.  Sorted from the kept end, a root at level ``s_k`` gives the law
    ``(s_k - s_i)**(1/(1-q))`` on the levels below it, whose mean ``M_k``
    rises with k.  The support is the first k >= 2 levels, for the least k
    with ``M_k`` above the target.  If ``M_(k-1)`` is the target within a
    few ``NEWTON_TOL``, the support without level k - 1 is the second try.
    Dropped levels run from the far end inward, equal levels by index.
    """
    m = eps.size
    side = np.sign(float(eps.mean()) - target)
    if not (qv < 1.0 - SHANNON_TOL and m >= 3 and side):
        return [(np.arange(m), ())]
    # kept end first, equal levels by descending index
    order = np.lexsort((-np.arange(m), side * eps))
    s, t = side * eps[order], side * target
    power = 1.0 / (1.0 - qv)
    # a support meeting the constraints within NEWTON_TOL has its cut mean
    # within twice that of the target (|t| <= 1); the band doubles it again
    tol = 4.0 * NEWTON_TOL

    def cut_mean(k):
        below = s[: np.searchsorted(s, s[k])]
        if not below.size:
            return -math.inf
        log_w = power * np.log(s[k] - below)  # the powers over- and underflow near q = 1
        w = np.exp(log_w - log_w.max())
        return float(w @ below) / float(w.sum())

    k = 2 + bisect.bisect_right(range(2, m), t + tol, key=cut_mean)  # k = m: no cut
    sizes = [k, k - 1] if k > 2 and cut_mean(k - 1) >= t - tol else [k]
    return [(np.sort(order[:n]), tuple(int(i) for i in order[n:][::-1])) for n in sizes]


@dataclass(frozen=True)
class MaxEntSolution:
    """Solution distribution with its multipliers and diagnostics."""

    problem: MaxEntProblem
    p: ProbVec
    lam: float
    mu: float
    support: tuple
    iterations: int  # Newton steps on the returned support
    residuals: tuple  # (|sum p - 1|, |sum p e - target|) before renormalization
    dropped: tuple  # levels cut from the support: far end inward, equal levels by index

    def arguments(self) -> np.ndarray:
        """Deformed-exponential argument at every level."""
        return _arguments(self.lam, self.mu, self.problem.levels, self.problem.q)

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
        return float(_entropy_rows(self.p.p[None], self.problem.q)[0])

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
            "dropped": list(self.dropped),
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
        lam = -two_q * float(ln_q_pos(np.array([1.0 / m]), qv)[0])
        mu = 0.0
        active = np.arange(m)
        dropped = ()
        iters = 0
        resid = (abs(float(p_full.sum()) - 1.0), abs(float(p_full @ eps_raw) - problem.target_mean))
    else:
        scale = max(1.0, float(np.abs(eps_raw).max()))
        eps, target = eps_raw / scale, problem.target_mean / scale
        for active, dropped in _supports(eps, target, qv):
            try:
                lam, mu_s, p_act, iters, resid_s = _newton(eps[active], target, qv)
                break
            except ConvergenceError as exc:
                error = exc
        else:
            raise error
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
        dropped=dropped,
    )
    if dropped:
        margins = solution.domain_margins()[sorted(dropped)]
        if float(margins.max()) > KKT_MARGIN_TOL:
            raise ConvergenceError(
                "support reduction is inconsistent: a removed level has positive margin",
                last=(solution.lam, solution.mu),
                residuals=list(margins),
            )
    return solution


def _competitor_block(w, k, e, t, lo, hi):
    """Feasible competitors, one per row: row n mixes vertices ``k[n]`` by ``w[n]``.

    Vertex ``k`` is the level pair ``(lo[k // hi.size], hi[k % hi.size])``.
    Each row's two ``bincount``s run over its own stretch of one flat index.
    Without such pairs (identical levels) the competitors are the rows of w.
    """
    if not (lo.size and hi.size):
        return w
    b, m = w.shape
    i, j = np.divmod(k, hi.size)
    i, j = lo[i], hi[j]
    # the share at i is <= 1 and exactly 1 at e_i = t, so w - at_i >= 0
    at_i = w * ((e[j] - t) / (e[j] - e[i]))
    rows = np.arange(0, b * m, m)[:, None]
    f = np.bincount((i + rows).ravel(), at_i.ravel(), minlength=b * m)
    f += np.bincount((j + rows).ravel(), (w - at_i).ravel(), minlength=b * m)
    return f.reshape(b, m)


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
        return asdict(self)


def verify_optimality(solution: MaxEntSolution, trials: int = 100, seed: int = 0) -> OptimalityCheck:
    """Entropy gap from the solution to random feasible competitors.

    Each competitor mixes m vertices of the feasible polytope with
    flat-Dirichlet weights.  A vertex is the two-point law on levels
    ``e_i <= t < e_j`` with mass ``(e_j - t) / (e_j - e_i)`` at i, a point
    mass when ``e_i = t``.  With identical levels there is no such pair and
    the competitor is a flat-Dirichlet draw.  Competitors are drawn one at
    a time and scored a block at a time, ``_CELLS // m`` of them (at least
    one) per block, so memory is O(m) in the levels and bounded in the
    trials.  The minimum gap over trials is the optimality margin.

    A row draws its m exponentials, then its m vertex indices with the bits
    of ``Generator.integers(pairs, size=m)``.  While numpy's 32-bit Lemire
    step is expected to reject under 1/16 of a half per block, rows take
    raw PCG64 words (``random_raw``), carrying a left-over half as PCG64's
    pending half-word, and the Lemire step runs once per block; a block with
    a rejected half is redrawn from its saved generator state.  Otherwise
    each row calls ``Generator.integers``.
    """
    trials = _count(trials, "trials")
    seed = _count(seed, "seed", 0)
    prob = solution.problem
    qv = prob.q
    m = prob.m
    e = prob.levels
    t = prob.target_mean
    p_star = solution.p.p
    h_star = solution.entropy()
    full_support = bool((p_star > 0).all())
    ln_p = ln_q_pos(p_star, qv) if full_support else None
    lo = np.flatnonzero(e <= t)
    hi = np.flatnonzero(e > t)
    pairs = lo.size * hi.size
    rng = make_rng(seed)
    min_gap = math.inf
    total = 0.0
    mismatch = 0.0 if full_support else None
    bg = rng.bit_generator
    block = max(1, _CELLS // m)
    reject = (2**32 - pairs) % pairs if 1 < pairs < 2**32 else 2**32  # Lemire rejects a half below
    raw = 16 * block * m * reject < 2**32  # under 1/16 of a rejected half expected per block
    for start in range(0, trials, block):
        b = min(block, trials - start)
        w = np.empty((b, m))
        k = None
        if raw:
            state = bg.state
            c = state["has_uint32"]  # PCG64's pending half opens the block's halves
            words = np.empty(1 + (b * m + 1) // 2, dtype="<u8")
            words[0] = state["uinteger"] << 32
            drawn = 1
            for n in range(b):
                rng.standard_exponential(out=w[n])
                end = 1 + ((n + 1) * m - c + 1) // 2  # the words that row n's m halves need
                words[drawn:end] = bg.random_raw(end - drawn)
                drawn = end
            x = words.view("<u4")[2 - c : 2 - c + b * m].astype(np.uint64) * pairs
            if ((x & 0xFFFFFFFF) < reject).any():
                bg.state = state  # a rejected half shifts every later one: redraw the block
            else:
                k = (x >> 32).view(np.int64).reshape(b, m)
                state = bg.state  # the state row-by-row draws leave, for the next block
                state["has_uint32"], state["uinteger"] = (b * m - c) % 2, int(words[drawn - 1] >> 32)
                bg.state = state
        if k is None:
            k = np.empty((b, m), dtype=np.int64)
            for n in range(b):
                rng.standard_exponential(out=w[n])
                if pairs:
                    k[n] = rng.integers(pairs, size=m)
        w /= w.sum(axis=1, keepdims=True)  # each row sum as the 1-D sum of that row
        f = _competitor_block(w, k, e, t, lo, hi)
        plogp = _plogp(f, qv)
        gaps = h_star + plogp.sum(axis=1)
        if full_support:
            mm = np.abs(gaps - (plogp - f * ln_p).sum(axis=1))
            if (mm > 1e-7).any():
                raise RuntimeError(
                    "internal inconsistency: direct and closed-form entropy gaps disagree"
                )
            mismatch = max(mismatch, float(mm.max()))
        min_gap = min(min_gap, float(gaps.min()))
        for gap in gaps.tolist():  # left to right; a pairwise sum rounds differently
            total += gap
    return OptimalityCheck(
        trials=trials,
        seed=seed,
        min_gap=float(min_gap),
        mean_gap=float(total / trials),
        max_formula_mismatch=mismatch,
    )
