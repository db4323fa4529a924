"""Mean-constrained entropy maximization: solver, KKT margins, optimality."""

import functools
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qit import ConvergenceError, maxent
from qit.maxent import (
    KKT_MARGIN_TOL,
    MaxEntProblem,
    solve,
    verify_optimality,
)
from qit.measures import q_entropy
from qit.prob import make_rng
from qit.qcore import exp_q_inside, ln_q_pos


def _jittered_levels(m):
    # distinct sorted levels shaped like the benchmark's maxent sweep
    return np.arange(m) + make_rng(m).uniform(-0.25, 0.25, m)


_EDGE_LEVELS = _jittered_levels(16)


def test_problem_validation():
    with pytest.raises(ValueError, match="strictly inside"):
        MaxEntProblem([0.0, 1.0, 2.0], 2.5, 0.5)
    with pytest.raises(ValueError, match="strictly inside"):
        MaxEntProblem([0.0, 1.0, 2.0], 0.0, 0.5)  # endpoint excluded
    with pytest.raises(ValueError, match="identical levels"):
        MaxEntProblem([3.0, 3.0], 2.9, 0.5)
    with pytest.raises(ValueError, match="0 <= q < 2"):
        MaxEntProblem([0.0, 1.0], 0.5, 2.0)
    with pytest.raises(ValueError, match="0 <= q < 2"):
        MaxEntProblem([0.0, 1.0], 0.5, -0.25)
    with pytest.raises(ValueError):
        MaxEntProblem([], 0.0, 0.5)
    with pytest.raises(ValueError):
        MaxEntProblem([0.0, math.inf], 0.5, 0.5)
    for target in (math.nan, math.inf):
        with pytest.raises(ValueError, match="target mean must be finite"):
            MaxEntProblem([0.0, 1.0], target, 0.5)


def test_flat_levels_give_uniform_in_closed_form():
    sol = solve(MaxEntProblem([3.0, 3.0], 3.0, 0.5))
    assert sol.p.p.tolist() == [0.5, 0.5]
    # lam = -(2-q) ln_q(1/2) with no iteration needed
    assert sol.lam == pytest.approx(0.8786796564403573, abs=1e-15)
    assert sol.mu == 0.0
    assert sol.iterations == 0
    assert max(sol.residuals) <= 1e-12


def test_interior_solution_and_residuals():
    sol = solve(MaxEntProblem([0.0, 1.0, 2.0], 0.5, 0.5))
    assert sol.support == (0, 1, 2)
    assert sol.p.p == pytest.approx(
        [0.6007858820798255, 0.29842823584034917, 0.1007858820798254], abs=1e-12
    )
    assert max(sol.residuals) <= 1e-10
    assert sol.stationarity_residuals().max() <= 1e-8
    assert sol.entropy() == pytest.approx(q_entropy(sol.p, 0.5), abs=1e-15)
    # the constraints actually hold on the returned (renormalized) vector
    assert sol.p.p.sum() == pytest.approx(1.0, abs=1e-14)
    assert float(sol.p.p @ [0.0, 1.0, 2.0]) == pytest.approx(0.5, abs=1e-10)


def test_interior_solution_beats_grid_search():
    levels = np.array([0.0, 1.0, 2.0])
    sol = solve(MaxEntProblem(levels, 0.5, 0.5))
    best, best_h = None, -math.inf
    # sweep the feasible segment: pick p2, the mean fixes p1, the mass fixes p0
    for p2 in np.arange(0.0, 0.2501, 1e-4):
        p1 = 0.5 - 2.0 * p2
        p0 = 1.0 - p1 - p2
        if p1 < 0 or p0 < 0:
            continue
        h = q_entropy(np.array([p0, p1, p2]), 0.5)
        if h > best_h:
            best_h, best = h, np.array([p0, p1, p2])
    assert np.abs(sol.p.p - best).max() <= 2e-3
    assert sol.entropy() >= best_h - 1e-12


def test_low_target_squeezes_out_a_level():
    sol = solve(MaxEntProblem([0.0, 1.0, 2.0], 0.05, 0.5))
    assert sol.support == (0, 1)
    assert sol.dropped == (2,)
    assert sol.p.p == pytest.approx([0.95, 0.05, 0.0], abs=1e-12)
    margins = sol.domain_margins()
    assert margins[0] > 0 and margins[1] > 0
    assert margins[2] <= KKT_MARGIN_TOL  # removed level is out of the domain
    assert margins[2] == pytest.approx(-0.5274658389809384, abs=1e-9)
    args = sol.arguments()
    assert args[2] == pytest.approx(-3.0549316779618767, abs=1e-9)


def test_verify_optimality_interior():
    sol = solve(MaxEntProblem([0.0, 1.0, 2.0], 0.5, 0.5))
    check = verify_optimality(sol, trials=200, seed=1)
    assert check.trials == 200
    assert check.min_gap >= -1e-9
    assert check.passed()
    assert check.max_formula_mismatch is not None
    assert check.max_formula_mismatch <= 1e-7
    d = check.to_json_dict()
    assert sorted(d.keys()) == [
        "max_formula_mismatch",
        "mean_gap",
        "min_gap",
        "seed",
        "trials",
    ]


def test_verify_optimality_cutoff_case():
    sol = solve(MaxEntProblem([0.0, 1.0, 2.0], 0.05, 0.5))
    check = verify_optimality(sol, trials=200, seed=1)
    assert check.min_gap >= -1e-9
    assert check.max_formula_mismatch is None  # zeros block the closed form
    with pytest.raises(ValueError):
        verify_optimality(sol, trials=0)


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("fraction", [0.02, 0.1, 0.9, 0.98])
@pytest.mark.parametrize("q", [0.3, 0.6, 0.9, 1.0, 1.4])
def test_verify_optimality_at_edge_targets(m, fraction, q):
    # a rejection sampler of projected draws runs out of attempts here
    levels = _jittered_levels(m)
    target = levels[0] + (levels[-1] - levels[0]) * fraction
    sol = solve(MaxEntProblem(levels, target, q))
    check = verify_optimality(sol, trials=100, seed=5)
    assert check.min_gap >= -1e-9


@pytest.mark.parametrize(
    "levels, target, q",
    [
        (_EDGE_LEVELS, _EDGE_LEVELS[0] + 0.02 * np.ptp(_EDGE_LEVELS), 0.6),
        ([0.0, 1.0, 2.0], 1.0, 0.5),  # a level equal to the target
        ([0.0, 1.0, 2.0], 0.05, 0.5),  # the solution drops a level
        ([1.0, 1.0, 1.0], 1.0, 0.5),  # identical levels: the whole simplex
    ],
)
def test_every_competitor_is_feasible(monkeypatch, levels, target, q):
    sol = solve(MaxEntProblem(levels, target, q))
    competitors = []
    block = maxent._competitor_block

    def spy(*args):
        f = block(*args)
        competitors.extend(np.array(f))  # one competitor per row
        return f

    monkeypatch.setattr(maxent, "_competitor_block", spy)
    verify_optimality(sol, trials=200, seed=11)
    assert len(competitors) == 200
    for f in competitors:
        assert f.min() >= 0.0
        assert abs(f.sum() - 1.0) <= 1e-12
        assert abs(float(f @ sol.problem.levels) - sol.problem.target_mean) <= 1e-12


def test_verify_optimality_memory_is_linear_in_levels():
    peaks = []
    for m in (500, 2000):
        sol = solve(MaxEntProblem(np.arange(m, dtype=float), 0.3 * (m - 1), 0.5))
        tracemalloc.start()
        try:
            verify_optimality(sol, trials=20, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one float per vertex of the 600 x 1400 pairs at m = 2000 would take 6.7 MB
    assert peaks[1] < 1 << 20
    assert peaks[1] < 8 * peaks[0]


def test_shannon_point_matches_bisected_gibbs():
    levels = np.array([0.0, 1.0, 2.0])
    target = 0.5
    sol = solve(MaxEntProblem(levels, target, 1.0))

    def gibbs_mean(mu):
        w = np.exp(-mu * levels)
        return float(w @ levels / w.sum())

    lo, hi = -60.0, 60.0  # mean is decreasing in mu
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gibbs_mean(mid) > target:
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    w = np.exp(-mu * levels)
    assert np.abs(sol.p.p - w / w.sum()).max() <= 1e-10
    assert sol.mu == pytest.approx(mu, abs=1e-8)


def test_near_shannon_deformation_is_continuous():
    ref = solve(MaxEntProblem([0.0, 1.0, 2.0], 0.5, 1.0))
    near = solve(MaxEntProblem([0.0, 1.0, 2.0], 0.5, 1.0 - 1e-4))
    assert np.abs(near.p.p - ref.p.p).max() <= 1e-4


@pytest.mark.parametrize("q", [1.0 + sign * 2.0 * 10.0**-k for k in range(3, 13) for sign in (1, -1)])
def test_solve_converges_next_to_the_shannon_point(q):
    # base**(1/(1-q)) would amplify the rounding of base by 1/|1-q| and
    # stall the Newton iteration; the log1p form of exp_q does not
    sol = solve(MaxEntProblem([0.0, 1.0, 2.0], 0.7, q))
    assert max(sol.residuals) <= 1e-12
    assert sol.stationarity_residuals().max() <= 1e-14


def test_newton_iteration_cap_raises_convergence_error(monkeypatch):
    monkeypatch.setattr(maxent, "NEWTON_ITERS", 1)
    with pytest.raises(ConvergenceError, match="stalled"):
        solve(MaxEntProblem([0.0, 1.0, 2.0], 0.7, 1.0))


def test_a_removed_level_with_positive_margin_raises(monkeypatch):
    # a support that cuts two levels which belong in it: the solution on
    # the rest leaves them a positive margin, so solve refuses it
    monkeypatch.setattr(maxent, "_supports", lambda eps, target, qv: [(np.array([0, 3]), (2, 1))])
    problem = MaxEntProblem([0.0, 1.0, 2.0, 3.0], 1.0, 0.5)
    with pytest.raises(ConvergenceError) as info:
        solve(problem)
    exc = info.value
    assert str(exc) == "support reduction is inconsistent: a removed level has positive margin"
    lam, mu = exc.last
    margins = 1.0 + 0.5 * maxent._arguments(lam, mu, problem.levels, 0.5)
    # in ascending level order, whatever order the cut dropped them in
    assert exc.residuals == [margins[1], margins[2]]
    assert margins[1] > margins[2] > KKT_MARGIN_TOL


def test_multiplier_decreases_with_target_mean():
    targets = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5]
    mus = [solve(MaxEntProblem([0.0, 1.0, 2.0], t, 0.5)).mu for t in targets]
    for a, b in itertools.pairwise(mus):
        assert a > b
    # symmetric target sits exactly at the uniform point
    mid = solve(MaxEntProblem([0.0, 1.0, 2.0], 1.0, 0.5))
    assert mid.mu == 0.0
    assert np.abs(mid.p.p - 1.0 / 3.0).max() <= 1e-10


def test_level_scale_invariance():
    ref = solve(MaxEntProblem([0.0, 1.0, 2.0], 0.5, 0.5))
    scaled = solve(MaxEntProblem([0.0, 10.0, 20.0], 5.0, 0.5))
    assert np.abs(scaled.p.p - ref.p.p).max() == 0.0
    assert scaled.mu * 10.0 == pytest.approx(ref.mu, abs=1e-14)


@pytest.mark.parametrize("q", [0.0, 0.3, 0.5, 0.9, 1.0, 1.5, 1.9])
def test_solution_is_optimal_across_q(q):
    sol = solve(MaxEntProblem([0.0, 1.0, 3.0], 0.8, q))
    assert max(sol.residuals) <= 1e-10
    check = verify_optimality(sol, trials=100, seed=3)
    assert check.min_gap >= -1e-9


def test_solution_serialization():
    sol = solve(MaxEntProblem([0.0, 1.0, 2.0], 0.5, 0.5))
    d = sol.to_json_dict()
    assert sorted(d.keys()) == [
        "dropped",
        "entropy",
        "iterations",
        "lambda",
        "levels",
        "mu",
        "p",
        "q",
        "residuals",
        "support",
        "target_mean",
    ]
    assert d["support"] == [0, 1, 2]
    assert d["dropped"] == []
    assert d["p"] == sol.p.p.tolist()


def test_support_reduction_history_lists_levels_in_the_order_removed():
    levels = _jittered_levels(8)
    sol = solve(MaxEntProblem(levels, levels[0] + 0.02 * np.ptp(levels), 0.3))
    assert len(sol.dropped) >= 2
    assert sorted(sol.dropped + sol.support) == list(range(8))
    # the cut runs from the highest level inward
    assert list(sol.dropped) == sorted(sol.dropped, reverse=True)
    assert sol.to_json_dict()["dropped"] == list(sol.dropped)


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_cut_runs_from_the_far_end_with_equal_levels_by_index(side):
    levels = side * np.array([4.0, 0.0, 3.0, 1.0, 2.0, 3.0])
    sol = solve(MaxEntProblem(levels, side * 0.3, 0.3))
    assert sol.support == (1, 3, 4)
    assert sol.dropped == (0, 2, 5)


def test_a_level_with_none_below_it_has_no_cut_mean():
    # the five equal lowest levels have no level strictly below them, so the
    # cut search reads their cut mean as -inf and keeps the full support
    sol = solve(MaxEntProblem([0, 0, 0, 0, 0, 1, 2], 0.1, 0.5))
    assert sol.support == tuple(range(7))
    assert sol.dropped == ()
    assert max(sol.residuals) <= 1e-10


def test_far_edge_target_takes_one_newton_run():
    # cutting one level per Newton stall took 6961 steps here
    levels = _jittered_levels(39)
    sol = solve(MaxEntProblem(levels, levels[0] + 0.98 * np.ptp(levels), 0.0))
    assert sol.iterations <= maxent.NEWTON_ITERS
    assert sol.support == (35, 36, 37, 38)
    assert sol.dropped == tuple(range(35))


def _count_newton_runs(monkeypatch):
    sizes = []
    newton = maxent._newton

    def spy(eps, *args):
        sizes.append(eps.size)
        return newton(eps, *args)

    monkeypatch.setattr(maxent, "_newton", spy)
    return sizes


def test_one_newton_run_per_problem(monkeypatch):
    runs = _count_newton_runs(monkeypatch)
    problems = [p for p in _oracle_problems() if np.ptp(p.levels) > 0.0]
    for problem in problems:
        solve(problem)
    assert len(runs) == len(problems)


def test_target_at_a_cut_mean_keeps_the_boundary_level(monkeypatch):
    # with the root at level 4 the cut law has mean 1: p_4 = 0 up to rounding
    runs = _count_newton_runs(monkeypatch)
    sol = solve(MaxEntProblem([0.0, 1.0, 2.0, 3.0, 4.0], 1.0, 0.0))
    assert runs == [5]
    assert sol.support == (0, 1, 2, 3, 4)
    assert sol.dropped == ()
    assert 0.0 < sol.p.p[4] < 1e-12


def test_target_just_below_a_cut_mean_tries_the_boundary_level_first(monkeypatch):
    runs = _count_newton_runs(monkeypatch)
    sol = solve(MaxEntProblem([0.0, 1.0, 2.0, 3.0, 4.0], 1.0 - 5e-12, 0.0))
    assert runs == [5, 4]  # Newton stalls with level 4 and solves without it
    assert sol.support == (0, 1, 2, 3)
    assert sol.dropped == (4,)


@pytest.mark.parametrize("q, sizes", [(0.5, [2]), (1.0 - 1e-11, [3, 2]), (1.0 - 1e-13, [3]), (1.0, [3])])
def test_cutoff_search_stops_at_the_shannon_switch(q, sizes):
    # within SHANNON_TOL of q = 1, exp_q is exp and has no domain wall to cut at
    supports = maxent._supports(np.array([0.0, 1.0, 2.0]), 1e-13, q)
    assert [active.size for active, _ in supports] == sizes


@pytest.mark.xfail(strict=True, raises=ConvergenceError, reason="ROADMAP item 9: near-edge stall")
@pytest.mark.parametrize(
    "q, fraction",
    [
        (1.99, 1e-6),  # stalls with residual 2.934e-12
        (1.4, 1.0 - 1e-9),  # stalls with residual 1.284e-12
    ],
)
def test_near_edge_target_solves(q, fraction):
    # NEWTON_TOL is absolute in max|e|-scaled units; these stalls run the
    # line search's 60 halvings and find no step that lowers the norm
    levels = _jittered_levels(4)
    sol = solve(MaxEntProblem(levels, levels[0] + fraction * np.ptp(levels), q))
    assert max(sol.residuals) <= 1e-10


# ---------------------------------------------------------------------------
# Oracles: the line search as a loop over halvings and verify_optimality as a
# loop over trials, one candidate or competitor at a time.  The solver and
# the verify blocks must give every output bit for bit as these loops do.

_ORACLE_QS = (0.0, 0.3, 0.6, 0.9, 1.0 - 1e-13, 1.0, 1.0 + 1e-13, 1.4, 1.9)


def _p_from_multipliers(lam, mu, eps, qv):
    """Distribution at (lam, mu), or None out of the domain."""
    arg = (-lam - mu * eps) / (2.0 - qv)
    if not (1.0 + (1.0 - qv) * arg).min() > 0.0:  # a nan margin is out of the domain too
        return None
    with np.errstate(over="ignore"):
        return exp_q_inside(arg, qv)


def _halving_loop(lam, mu, step, eps, target, qv, norm):
    """``maxent._line_search`` as one candidate evaluation per halving."""
    t = 1.0
    for _ in range(60):
        cand = _p_from_multipliers(lam + t * step[0], mu + t * step[1], eps, qv)
        if cand is not None and np.isfinite(cand).all():
            c1 = float(cand.sum()) - 1.0
            c2 = float(cand @ eps) - target
            cn = max(abs(c1), abs(c2))
            if cn < norm:
                return t, cand, c1, c2, cn
        t /= 2.0
    return None


def _verify_loop(solution, trials, seed):
    """(min_gap, mean_gap, max_formula_mismatch) scored one competitor at a
    time with the public ``q_entropy``; a zero cell of f adds an exact 0."""
    prob = solution.problem
    qv, m, e, t = prob.q, prob.m, prob.levels, prob.target_mean
    p_star = solution.p.p
    h_star = q_entropy(p_star, qv)
    full_support = bool((p_star > 0).all())
    lo = np.flatnonzero(e <= t)
    hi = np.flatnonzero(e > t)
    rng = make_rng(seed)
    min_gap, total = math.inf, 0.0
    mismatch = 0.0 if full_support else None
    for _ in range(trials):
        w = rng.standard_exponential(m)
        w /= w.sum()
        if lo.size and hi.size:
            i, j = np.divmod(rng.integers(lo.size * hi.size, size=m), hi.size)
            i, j = lo[i], hi[j]
            at_i = w * ((e[j] - t) / (e[j] - e[i]))
            f = np.bincount(i, at_i, minlength=m) + np.bincount(j, w - at_i, minlength=m)
        else:
            f = w
        gap = h_star - q_entropy(f, qv)
        if full_support:
            f_ln_f = f * ln_q_pos(np.where(f > 0, f, 1.0), qv)
            formula = float((f_ln_f - f * ln_q_pos(p_star, qv)).sum())
            mismatch = max(mismatch, abs(gap - formula))
        min_gap = min(min_gap, gap)
        total += gap
    return min_gap, total / trials, mismatch


def _oracle_problems():
    """m 1..40 with edge, interior and on-level targets, cycled with q.

    Every q of _ORACLE_QS meets every m up to 8, and each larger m takes one.
    """
    for m in range(1, 41):
        levels = _jittered_levels(m)
        lo, span = levels[0], np.ptp(levels)
        qs = _ORACLE_QS if m <= 8 else _ORACLE_QS[m % 9 : m % 9 + 1]
        for n, q in enumerate(qs, start=m // 9):
            if m == 1:
                target = levels[0]
            else:
                kind = (m + n) % 4
                if kind == 2 and m >= 3:
                    target = levels[m // 2]  # a level equal to the target
                else:
                    target = lo + span * (0.02, 0.4, 0.6, 0.98)[kind]
            yield MaxEntProblem(levels, target, q)


def _bits(*xs):
    return [None if x is None else np.asarray(x, dtype=float).tobytes() for x in xs]


def _solve_outputs(problems):
    out = []
    for problem in problems:
        try:
            sol = solve(problem)
        except ConvergenceError as exc:
            out.append(str(exc))
            continue
        out.append((*_bits(sol.lam, sol.mu, sol.p.p), sol.support, sol.dropped, sol.iterations))
    return out


@functools.cache
def _oracle_solutions():
    return tuple(solve(problem) for problem in _oracle_problems())


def _pinned_problems():
    yield from _oracle_problems()
    lo, span = _EDGE_LEVELS[0], np.ptp(_EDGE_LEVELS)
    for q in _ORACLE_QS:
        for fraction in (0.02, 0.1, 0.9, 0.98):
            yield MaxEntProblem(_EDGE_LEVELS, lo + span * fraction, q)


def test_solutions_match_their_pin():
    # pinned from a solver that cut one level per Newton stall; 32 of the 140 cut
    digest = hashlib.sha256()
    for problem in _pinned_problems():
        sol = solve(problem)
        digest.update(repr((*_bits(sol.lam, sol.mu, sol.p.p), sol.support, sol.dropped)).encode())
    assert digest.hexdigest() == "f281f0026da4431843201bcc0779c49be226819f01e2f0c06993d64068e985cf"


def _sweep_problems():
    """The maxent-sweep benchmark's grid at seed 7: 120 problems, each with its verify seed."""
    rng = make_rng(7)
    for m in (3, 8, 16):
        levels = np.arange(m) + rng.uniform(-0.25, 0.25, m)
        lo, span = levels[0], levels[-1] - levels[0]
        for fraction in (0.02, 0.1, 0.25, 0.4, 0.6, 0.75, 0.9, 0.98):
            for q in (0.3, 0.6, 0.9, 1.0, 1.4):
                yield MaxEntProblem(levels, lo + span * fraction, q), int(rng.integers(2**31))


def test_sweep_solutions_steps_and_gaps_match_their_pin():
    # adds what the pin above leaves out: the Newton steps and the verify gaps
    digest = hashlib.sha256()
    for problem, seed in _sweep_problems():
        sol = solve(problem)
        check = verify_optimality(sol, trials=100, seed=seed)
        digest.update(
            repr(
                (
                    *_bits(sol.lam, sol.mu, sol.p.p),
                    sol.support,
                    sol.dropped,
                    sol.iterations,
                    *_bits(check.min_gap, check.mean_gap),
                )
            ).encode()
        )
    assert digest.hexdigest() == "04731f5438bd37ad0a51c7145b9c8057cae08e79b70532b2bd2409cff68b7efc"


def test_oracle_solves_match_the_halving_loop_bit_for_bit(monkeypatch):
    problems = list(_oracle_problems())
    searched = _solve_outputs(problems)
    monkeypatch.setattr(maxent, "_line_search", _halving_loop)
    assert searched == _solve_outputs(problems)
    assert any(isinstance(r, tuple) and r[4] for r in searched)  # a solution dropped a level


def test_stall_with_no_halving_in_the_domain_matches_the_halving_loop():
    eps = _jittered_levels(5) / 4.5
    qv = 0.6
    lam, mu = 1.0, 0.2
    step = np.array([1e30, -3e29])  # every halving lands far outside the domain
    assert maxent._line_search(lam, mu, step, eps, 0.4, qv, 1.0) is None
    assert _halving_loop(lam, mu, step, eps, 0.4, qv, 1.0) is None


def test_line_searches_take_one_candidate_per_halving(monkeypatch):
    taken, columns = [], []
    counts = {"candidates": 0, "starts": 0}
    search, candidate, arguments, newton = (
        maxent._line_search,
        maxent._candidate,
        maxent._arguments,
        maxent._newton,
    )

    def search_spy(*args):
        found = search(*args)
        taken.append(None if found is None else found[0])
        return found

    def candidate_spy(*args):
        counts["candidates"] += 1
        return candidate(*args)

    def arguments_spy(lam, *args):
        columns.append(np.ndim(lam) == 2)  # a column of multipliers, one halving per row
        return arguments(lam, *args)

    def newton_spy(*args):
        counts["starts"] += 1
        return newton(*args)

    monkeypatch.setattr(maxent, "_line_search", search_spy)
    monkeypatch.setattr(maxent, "_candidate", candidate_spy)
    monkeypatch.setattr(maxent, "_arguments", arguments_spy)
    monkeypatch.setattr(maxent, "_newton", newton_spy)
    for problem in _oracle_problems():
        solve(problem)
    assert len(taken) == 577
    assert [taken.count(2.0**-k) for k in range(4)] == [476, 52, 41, 8]
    # every halving from 1 down to the taken one, and each Newton run's start
    halvings = sum(1 + int(-math.log2(t)) for t in taken)
    assert counts["candidates"] == halvings + counts["starts"] == 735 + 95
    assert not any(columns)


def _first_line_search(monkeypatch, q):
    """The arguments of the first line search in solving a 5-level problem at q."""
    calls = []
    search = maxent._line_search

    def spy(*args):
        calls.append(args)
        return search(*args)

    levels = _jittered_levels(5)
    with monkeypatch.context() as patch:
        patch.setattr(maxent, "_line_search", spy)
        solve(MaxEntProblem(levels, levels[0] + 0.3 * np.ptp(levels), q))
    return calls[0]


def _both_searches(*args):
    """``_line_search`` and ``_halving_loop`` on the same arguments, as bits."""
    with np.errstate(over="ignore", invalid="ignore"):  # as _newton holds around its line searches
        found = maxent._line_search(*args), _halving_loop(*args)
    return [None if f is None else _bits(*f) for f in found]


@pytest.mark.parametrize(
    "q, scale, t",
    [
        (0.3, 2.0, 0.5),  # the full step leaves the exp_q domain
        (1.0, 2.0, 0.5),  # the full step is in the domain and does not lower the norm
        (1.0 - 1e-13, 1.0, 1.0),  # the Shannon switch: exp_q is exp
        (1.0, 1.0, 1.0),
        (1.0 + 1e-13, 1.0, 1.0),
        (1.0 - 1e-13, 1e3, 2.0**-10),  # exp overflows to inf at t = 1, t >= 2**-9 raise the norm
        (1.0, 1e3, 2.0**-10),
        (1.0 + 1e-13, 1e3, 2.0**-10),
    ],
)
def test_line_search_matches_the_halving_loop_bit_for_bit(monkeypatch, q, scale, t):
    lam, mu, step, eps, target, qv, norm = _first_line_search(monkeypatch, q)
    step = [scale * s for s in step]
    found, looped = _both_searches(lam, mu, step, eps, target, qv, norm)
    assert found == looped
    assert found[0] == _bits(t)[0]
    if scale == 1e3:
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            exp_q_inside(maxent._arguments(lam + step[0], mu + step[1], eps, qv), qv)


def test_a_full_step_that_raises_the_norm_is_rejected(monkeypatch):
    lam, mu, step, eps, target, qv, norm = _first_line_search(monkeypatch, 1.0)
    arg = maxent._arguments(lam + 2.0 * step[0], mu + 2.0 * step[1], eps, qv)
    assert maxent._candidate(arg, eps, target, qv, math.inf)[3] >= norm  # finite, in the domain
    assert maxent._candidate(arg, eps, target, qv, norm) is None


@pytest.mark.parametrize("q", [1.4, 1.9])
@pytest.mark.parametrize("norm, t", [(None, None), (2.0, 1.0)])
def test_a_full_step_whose_arguments_overflow_matches_the_halving_loop(monkeypatch, q, norm, t):
    # every argument overflows to -inf, where exp_q is 0 for q > 1; p = 0 has
    # residual norm max(1, |target|), so only a norm above 1 accepts it
    lam, mu, _, eps, target, qv, first_norm = _first_line_search(monkeypatch, q)
    step = [1.7e308, 1.7e308]
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        maxent._arguments(lam + step[0], mu + step[1], eps, qv)
    found, looped = _both_searches(lam, mu, step, eps, target, qv, norm or first_norm)
    assert found == looped
    assert (found is None) == (t is None)
    if t is not None:
        assert found[0] == _bits(t)[0]


@pytest.mark.parametrize("q", [0.3, 1.0])
def test_a_step_whose_margins_turn_nan_is_rejected(monkeypatch, q):
    # a step scaled to 1.7e308 gives inf - inf in the arguments at any q, and
    # 0 * inf in the margins at q = 1; a nan margin is outside the domain, so
    # no halving is taken and _newton stalls instead of warning
    lam, mu, step, eps, target, qv, norm = _first_line_search(monkeypatch, q)
    huge = [1.7e308 / abs(step[0]) * s for s in step]
    with np.errstate(over="ignore", invalid="ignore"):
        margins = 1.0 + (1.0 - qv) * maxent._arguments(lam + huge[0], mu + huge[1], eps, qv)
    assert np.isnan(margins).any()
    assert _both_searches(lam, mu, huge, eps, target, qv, norm) == [None, None]
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.array(huge))
    with pytest.raises(ConvergenceError, match="stalled"):
        maxent._newton(eps, target, qv)


def test_a_stall_in_the_domain_matches_the_halving_loop(monkeypatch):
    # at q = 1 every halving is in the domain; none lowers a norm of 0
    lam, mu, step, eps, target, qv, _ = _first_line_search(monkeypatch, 1.0)
    assert _both_searches(lam, mu, step, eps, target, qv, 0.0) == [None, None]


@pytest.mark.parametrize("cells", [maxent._CELLS, 50])
def test_verify_blocks_match_the_trial_loop_bit_for_bit(monkeypatch, cells):
    # with 50 cells a block holds 1 to 50 competitors, so 60 trials span blocks
    monkeypatch.setattr(maxent, "_CELLS", cells)
    cut = 0
    for n, sol in enumerate(_oracle_solutions()):
        cut += len(sol.dropped) > 0
        check = verify_optimality(sol, trials=60, seed=n)
        assert _bits(check.min_gap, check.mean_gap, check.max_formula_mismatch) == _bits(
            *_verify_loop(sol, 60, n)
        )
    assert cut > 0  # solutions with zeros, whose mismatch is None, took part


def test_verify_blocks_span_the_default_budget():
    levels = _jittered_levels(40)
    sol = solve(MaxEntProblem(levels, levels[0] + 0.3 * np.ptp(levels), 0.6))
    trials = 2 * (maxent._CELLS // 40) + 7  # two full blocks and a part
    check = verify_optimality(sol, trials=trials, seed=4)
    assert _bits(check.min_gap, check.mean_gap, check.max_formula_mismatch) == _bits(
        *_verify_loop(sol, trials, 4)
    )


class _DrawSpy(np.random.Generator):
    """Counts rows of exponentials and ``integers`` calls; a block drawn twice
    draws its exponentials twice, and only the row-by-row path calls ``integers``."""

    rows = calls = 0

    def standard_exponential(self, *args, **kwargs):
        type(self).rows += 1
        return super().standard_exponential(*args, **kwargs)

    def integers(self, *args, **kwargs):
        type(self).calls += 1
        return super().integers(*args, **kwargs)


@pytest.mark.parametrize("m, target", [(977, 488.5), (747, 369.5)])
def test_a_rejected_half_replays_its_block_bit_for_bit(monkeypatch, m, target):
    # 238632 and 139490 vertices: numpy's Lemire draw rejects about 1.6e-5 of
    # its 32-bit halves, about 0.062 and 0.061 per block, just under the 1/16
    # that takes the raw-word draw, so some blocks of 200 trials replay; blocks
    # of 5 rows of 747 are odd, so a half is carried into and out of them
    sol = solve(MaxEntProblem(np.arange(m, dtype=float), target, 0.5))
    monkeypatch.setattr(maxent, "make_rng", lambda seed: _DrawSpy(make_rng(seed).bit_generator))
    for seed in (1, 2):
        _DrawSpy.rows = _DrawSpy.calls = 0
        check = verify_optimality(sol, trials=200, seed=seed)
        assert 0 < _DrawSpy.calls < 200  # some blocks replayed, not all
        assert _DrawSpy.rows == 200 + _DrawSpy.calls  # a replayed row is drawn twice
        assert _bits(check.min_gap, check.mean_gap, check.max_formula_mismatch) == _bits(
            *_verify_loop(sol, 200, seed)
        )


def test_many_expected_rejections_draw_row_by_row_once(monkeypatch):
    # 250000 vertices: about 0.20 rejected halves per block of 4 rows of 1000,
    # over 1/16, so every row calls Generator.integers and no block is drawn twice
    sol = solve(MaxEntProblem(np.arange(1000, dtype=float), 499.5, 0.5))
    monkeypatch.setattr(maxent, "make_rng", lambda seed: _DrawSpy(make_rng(seed).bit_generator))
    _DrawSpy.rows = _DrawSpy.calls = 0
    check = verify_optimality(sol, trials=21, seed=3)
    assert _DrawSpy.rows == _DrawSpy.calls == 21
    assert _bits(check.min_gap, check.mean_gap, check.max_formula_mismatch) == _bits(
        *_verify_loop(sol, 21, 3)
    )
