"""Trajectory surprisal probe: block q-logs, order-k approximants, flags."""

import math

import numpy as np
import pytest

from qit import (
    ConvergenceError,
    ImpossibleTrajectoryError,
    MarkovChain,
    SmbCurve,
    Trajectory,
    block_log_prob_q,
    h_q_inf,
    h_q_k,
    markov_k_block_log_prob_q,
    sample_trajectory,
    smb_probe,
    t3_residual,
)
from qit.markov import stationary
from qit.prob import make_rng
from qit.qcore import ln_q

STICKY = MarkovChain([[0.9, 0.1], [0.1, 0.9]])
IID = MarkovChain([[0.5, 0.5], [0.5, 0.5]])


def test_trajectory_container_validation():
    t = Trajectory([0, 1, 1, 0], 2)
    assert len(t) == 4
    with pytest.raises(ValueError):
        t.symbols[0] = 1  # write-protected
    with pytest.raises(ValueError):
        Trajectory([], 2)
    with pytest.raises(ValueError):
        Trajectory([0.5, 1.0], 2)  # not integers
    with pytest.raises(ValueError):
        Trajectory([0, 2], 2)  # symbol out of range
    with pytest.raises(ValueError):
        Trajectory([0], 0)


def test_sample_trajectory_reproducible_and_lawful():
    a = sample_trajectory(STICKY, 500, make_rng(3))
    b = sample_trajectory(STICKY, 500, make_rng(3))
    assert np.array_equal(a.symbols, b.symbols)
    # identity transitions freeze the walker at its first state
    frozen = sample_trajectory(MarkovChain(np.eye(2), [1.0, 0.0]), 50, make_rng(0))
    assert frozen.symbols.tolist() == [0] * 50
    # long-run transition frequencies recover the row probabilities
    s = sample_trajectory(STICKY, 20000, make_rng(7)).symbols
    from0 = s[1:][s[:-1] == 0]
    assert abs((from0 == 0).mean() - 0.9) < 0.02
    with pytest.raises(ValueError):
        sample_trajectory(STICKY, 0, make_rng(0))


def test_block_log_prob_hand_values():
    # one symbol from the stationary binary chain: ln_q(1/2) at q = 3/4
    got = block_log_prob_q(STICKY, [0], 0.75)
    assert got == pytest.approx(-0.636414338985142, abs=1e-14)
    # two fair-coin symbols: ln_q(1/4)
    assert block_log_prob_q(IID, [0, 1], 0.75) == pytest.approx(
        -1.1715728752538097, abs=1e-14
    )
    # a sure trajectory has q-log zero
    sure = MarkovChain(np.eye(2), [1.0, 0.0])
    assert block_log_prob_q(sure, [0, 0, 0], 0.5) == 0.0
    # matches the direct scalar q-log on a short block
    p = 0.5 * 0.9 * 0.1
    assert block_log_prob_q(STICKY, [0, 0, 1], 0.6) == pytest.approx(
        float(ln_q(p, 0.6)), rel=1e-13
    )


def test_block_log_prob_rejects_impossible_blocks():
    sure = MarkovChain(np.eye(2), [1.0, 0.0])
    with pytest.raises(ImpossibleTrajectoryError):
        block_log_prob_q(sure, [0, 1], 0.5)  # zero transition
    with pytest.raises(ImpossibleTrajectoryError):
        block_log_prob_q(sure, [1, 1], 0.5)  # zero initial weight
    with pytest.raises(ValueError):
        block_log_prob_q(STICKY, [0, 2], 0.5)  # alphabet mismatch


def test_order_k_reproduces_exact_law_for_order_one_chain():
    traj = sample_trajectory(STICKY, 64, make_rng(9))
    exact = block_log_prob_q(STICKY, traj, 0.8)
    for k in (1, 2, 3):
        assert markov_k_block_log_prob_q(STICKY, traj, k, 0.8) == exact


def test_order_zero_multiplies_running_marginals():
    chain = MarkovChain(STICKY.transition, [0.5, 0.5])
    # p(0, 0) exactly: 0.5 * 0.9 = 0.45; marginal product: 0.5 * 0.5
    assert block_log_prob_q(chain, [0, 0], 0.5) == pytest.approx(
        float(ln_q(0.45, 0.5)), rel=1e-13
    )
    assert markov_k_block_log_prob_q(chain, [0, 0], 0, 0.5) == pytest.approx(
        float(ln_q(0.25, 0.5)), rel=1e-13
    )


def test_empirical_plug_in_frequencies():
    s = [0, 0, 1, 0]
    # order 1 on this block: head 0 appears in 3 of 4 windows; the two
    # continuations of 0 are {0, 1} and the single continuation of 1 is 0
    want = float(ln_q(3 / 4 * 1 / 2 * 1 / 2 * 1.0, 0.5))
    got = markov_k_block_log_prob_q(STICKY, s, 1, 0.5, empirical=True)
    assert got == pytest.approx(want, rel=1e-13)
    # order 0: plug-in symbol frequencies [3/4, 1/4]
    want0 = float(ln_q((3 / 4) ** 3 * (1 / 4), 0.5))
    got0 = markov_k_block_log_prob_q(STICKY, s, 0, 0.5, empirical=True)
    assert got0 == pytest.approx(want0, rel=1e-13)
    with pytest.raises(ValueError):
        markov_k_block_log_prob_q(STICKY, s, 4, 0.5, empirical=True)  # too short
    with pytest.raises(ValueError):
        markov_k_block_log_prob_q(STICKY, s, -1, 0.5)


def test_t3_residual_values_and_sign():
    got = t3_residual([0.5, 0.5], 0.75)
    assert got == pytest.approx(0.10125580271647427, rel=1e-12)
    # definitionally ln_q(prod) - sum ln_q
    want = float(ln_q(0.25, 0.75)) - 2.0 * float(ln_q(0.5, 0.75))
    assert got == pytest.approx(want, abs=1e-16)
    assert t3_residual([0.3], 0.75) == 0.0  # no interaction with one factor
    assert t3_residual([0.2, 0.4, 0.9], 1.0) == 0.0  # classical index
    rng = make_rng(1)
    for _ in range(50):
        f = rng.random(5) * 0.999 + 1e-3
        assert t3_residual(f, 0.6) >= 0.0
    with pytest.raises(ValueError):
        t3_residual([], 0.5)
    with pytest.raises(ValueError):
        t3_residual([0.5, 0.0], 0.5)
    with pytest.raises(ValueError):
        t3_residual([0.5, -0.1], 0.5)
    with pytest.raises(ValueError):
        t3_residual([0.5, math.nan], 0.5)


def test_conditional_rate_sequence():
    # iid rows: conditioning is useless, every order gives the coin entropy
    assert h_q_k(IID, 0, 0.5) == pytest.approx(0.5857864376269049, abs=1e-14)
    assert h_q_k(IID, 3, 0.5) == pytest.approx(0.5857864376269049, abs=1e-13)
    # order-1 chain: the sequence drops once and then stays flat
    h0 = h_q_k(STICKY, 0, 0.5)
    h1 = h_q_k(STICKY, 1, 0.5)
    assert h1 == pytest.approx(0.22912451030570766, abs=1e-13)
    assert h0 > h1
    for k in (2, 3, 5):
        assert h_q_k(STICKY, k, 0.5) == pytest.approx(h1, abs=1e-12)
    assert h_q_k(STICKY, 1, 1.0) == pytest.approx(0.3250829733914482, abs=1e-13)
    assert h_q_inf(STICKY, 0.5) == pytest.approx(h1, abs=1e-12)
    assert h_q_inf(STICKY, 1.0) == pytest.approx(0.3250829733914482, abs=1e-12)
    with pytest.raises(ValueError):
        h_q_k(STICKY, -1, 0.5)
    with pytest.raises(ConvergenceError):
        h_q_inf(STICKY, 0.5, tol=1e-15, k_max=0)


@pytest.mark.parametrize("q,n", [(0.6, 64), (0.75, 128), (0.9, 256)])
def test_per_symbol_surprisal_strictly_below_ceiling(q, n):
    # lengths chosen so (1-q) * log p stays well above the resolution at
    # which the q-log expression rounds onto its ceiling
    chain = MarkovChain(STICKY.transition, stationary(STICKY))
    cap = 1.0 / ((1.0 - q) * n)
    for t in range(50):
        traj = sample_trajectory(chain, n, make_rng(100 + t))
        v = -block_log_prob_q(chain, traj, q) / n
        assert 0.0 < v < cap


def test_long_blocks_collapse_onto_the_ceiling_in_floats():
    curve = smb_probe(STICKY, 0.6, 4096, 50, seed=11)
    cap = 1.0 / (0.4 * 4096)
    assert curve.flags["bound_saturated"]
    assert curve.points[-1].block_mean == cap
    # the strict bound still holds in exact arithmetic: the accumulated
    # log-probability is finite, so p > 0 and -ln_q(p) < 1/(1-q) exactly
    chain = MarkovChain(STICKY.transition, stationary(STICKY))
    traj = sample_trajectory(chain, 4096, make_rng(11))
    logp = math.log(chain.initial.p[traj.symbols[0]]) + sum(
        math.log(chain.transition[a, b])
        for a, b in zip(traj.symbols[:-1], traj.symbols[1:])
    )
    assert math.isfinite(logp)


def test_probe_points_and_flags():
    curve = smb_probe(STICKY, 0.6, 64, 200, seed=11)
    assert [pt.n for pt in curve.points] == [1, 2, 4, 8, 16, 32, 64]
    assert curve.surprisal_sup == 2.5
    assert curve.h_q_k == pytest.approx(h_q_k(STICKY, 1, 0.6), abs=1e-15)
    assert curve.h_q_inf == pytest.approx(h_q_inf(STICKY, 0.6), abs=1e-15)
    # the order-1 approximation of an order-1 chain is the chain itself
    assert curve.flags["pk_equals_block"]
    assert not curve.flags["c2_failed"]
    for pt in curve.points:
        assert pt.ratio2_mean == pytest.approx(1.0, abs=1e-15)
        assert pt.pk_mean == pt.block_mean
        assert pt.t3_over_n_mean >= 0.0
        assert pt.block_sd >= 0.0
    # the one-step conditional does NOT dominate a length-1 block whose
    # first transition was the rare one, so the dominance flag trips
    assert curve.flags["c1_failed"]
    assert curve.points[0].cond_c1_rate < 1.0
    assert curve.points[-1].cond_c1_rate == 1.0
    # ratio of conditional to marginal first-symbol law: mean near
    # sum pi(a) r(a,b)^2 / psi(b) = 1.64 for this chain
    assert curve.points[0].ratio1_mean == pytest.approx(1.64, abs=0.1)
    # interaction per symbol stays far from zero here, and the flag says so
    assert curve.points[-1].t3_over_n_mean > 0.1
    assert curve.flags["t3_failed"]
    assert not curve.flags["q_outside_theorem_range"]  # 0.5 < 0.6 < 1
    assert not curve.flags["bound_saturated"]


def test_probe_range_warning_flag():
    assert smb_probe(STICKY, 0.3, 8, 10, seed=0).flags["q_outside_theorem_range"]
    assert smb_probe(STICKY, 1.0, 8, 10, seed=0).flags["q_outside_theorem_range"]
    assert not smb_probe(STICKY, 0.75, 8, 10, seed=0).flags["q_outside_theorem_range"]


def test_probe_interaction_term_conventions():
    # below the order there are no conditional factors yet: exactly zero
    curve = smb_probe(STICKY, 0.75, 16, 30, seed=5, k=4)
    by_n = {pt.n: pt.t3_over_n_mean for pt in curve.points}
    assert by_n[1] == 0.0 and by_n[2] == 0.0 and by_n[4] == 0.0
    assert by_n[8] > 0.0 and by_n[16] > 0.0
    # classical index: no interaction at any length
    shannon = smb_probe(STICKY, 1.0, 32, 50, seed=2)
    assert all(pt.t3_over_n_mean == 0.0 for pt in shannon.points)
    assert not shannon.flags["t3_failed"]


def test_probe_order_zero_factorization():
    curve = smb_probe(STICKY, 0.75, 16, 30, seed=5, k=0)
    assert not curve.flags["pk_equals_block"]
    # the marginal product over- and under-shoots the true block law
    # depending on the trajectory, so neither dominance survives
    assert curve.flags["c2_failed"]
    assert any(pt.pk_mean != pt.block_mean for pt in curve.points)


def test_probe_deterministic_output():
    a = smb_probe(STICKY, 0.75, 100, 20, seed=1)
    b = smb_probe(STICKY, 0.75, 100, 20, seed=1)
    other = smb_probe(STICKY, 0.75, 100, 20, seed=2)
    assert a.to_csv() == b.to_csv()
    assert a.to_csv() != other.to_csv()
    assert [pt.n for pt in a.points] == [1, 2, 4, 8, 16, 32, 64, 100]
    lines = a.to_csv().splitlines()
    assert lines[0] == SmbCurve.CSV_HEADER
    assert len(lines) == len(a.points) + 1
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[1] == f"{a.points[0].block_mean:.10g}"


def test_probe_computes_the_stationary_law_once(monkeypatch):
    calls = []
    monkeypatch.setattr("qit.smb.stationary", lambda c: calls.append(c) or stationary(c))
    curve = smb_probe(STICKY, 0.75, 16, 5, seed=1)
    assert len(calls) == 1
    assert curve.h_q_k == h_q_k(STICKY, 1, 0.75)
    assert curve.h_q_inf == h_q_inf(STICKY, 0.75)


def test_probe_validation_and_serialization():
    with pytest.raises(ValueError):
        smb_probe(STICKY, -0.1, 8, 5)
    with pytest.raises(ValueError):
        smb_probe(STICKY, 0.5, 0, 5)
    with pytest.raises(ValueError):
        smb_probe(STICKY, 0.5, 8, 0)
    with pytest.raises(ValueError):
        smb_probe(STICKY, 0.5, 8, 5, k=-1)
    curve = smb_probe(STICKY, 0.5, 8, 5, seed=4)
    d = curve.to_json_dict()
    assert sorted(d.keys()) == [
        "flags",
        "h_q_inf",
        "h_q_k",
        "k",
        "n_max",
        "points",
        "q",
        "seed",
        "surprisal_sup",
        "trajectories",
    ]
    assert len(d["points"]) == len(curve.points)
    d["flags"]["c1_failed"] = "mutated"
    assert curve.flags["c1_failed"] != "mutated"  # dict was copied
