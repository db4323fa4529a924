"""Mean-constrained entropy maximization: solver, KKT margins, optimality."""

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
    seen = []
    entropy = maxent._entropy_from_array

    def spy(f, qv):
        seen.append(np.array(f))
        return entropy(f, qv)

    monkeypatch.setattr(maxent, "_entropy_from_array", spy)
    verify_optimality(sol, trials=200, seed=11)
    competitors = seen[1:]  # the first call scores the solution itself
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
    assert d["p"] == sol.p.p.tolist()
