"""Entropies, divergences, and information measures."""

import math

import numpy as np
import pytest

from qit import (
    conditional_mutual_q_information,
    mutual_q_information,
    q_entropy,
    q_entropy_chain_terms,
    q_entropy_conditional,
    q_entropy_joint,
    q_entropy_max,
    relative_q_entropy,
    tsallis_entropy,
)
from qit.measures import relative_q_entropy_conditional
from qit.prob import JointTable, make_rng, random_dist, random_joint, random_markov_triple
from qit.qcore import ln_q
from reference import divergence, entropy

J22 = [[0.1, 0.2], [0.3, 0.4]]


def test_entropy_hand_values():
    # the two weightings agree at q=1 and split elsewhere
    assert q_entropy([0.5, 0.5], 1.0) == pytest.approx(math.log(2), abs=1e-15)
    assert tsallis_entropy([0.5, 0.5], 1.0) == pytest.approx(math.log(2), abs=1e-15)
    assert q_entropy([0.5, 0.5], 0.5) == pytest.approx(0.5857864376269049, abs=1e-15)
    assert tsallis_entropy([0.5, 0.5], 2.0) == pytest.approx(0.5, abs=1e-15)
    assert q_entropy([0.5, 0.5], 2.0) == pytest.approx(1.0, abs=1e-15)
    assert q_entropy([0.25] * 4, 0.5) == pytest.approx(1.0, abs=1e-15)


def test_entropy_trivial_cases():
    for q in (0.25, 0.5, 1.0, 1.5, 2.0):
        assert q_entropy([1.0], q) == 0.0
        assert q_entropy([0.0, 1.0, 0.0], q) == 0.0  # zeros contribute nothing
        assert tsallis_entropy([0.0, 1.0], q) == 0.0


def test_zero_entropies_are_positive_zero():
    # 0.0 - x, not -x: a sure outcome gives +0, which prints "0", never "-0"
    sure = JointTable([[0.5, 0.0], [0.0, 0.5]])  # each axis fixes the other
    for q in (0.0, 0.5, 1.0, 1.5, 2.0):
        zeros = [
            q_entropy([1.0, 0.0], q),
            tsallis_entropy([1.0, 0.0], q),
            q_entropy_joint([[1.0, 0.0], [0.0, 0.0]], q),
            q_entropy_conditional(sure, 0, q),
            *q_entropy_chain_terms(sure, q)[1:],
            *q_entropy_chain_terms(np.full((1, 2, 1), 0.5), q)[::2],
        ]
        assert [math.copysign(1.0, z) for z in zeros] == [1.0] * 7
        assert zeros == [0.0] * 7


def test_entropy_max_bound():
    assert q_entropy_max(2, 0.5) == pytest.approx(0.5857864376269049, abs=1e-15)
    assert q_entropy_max(2, 2.0) == pytest.approx(1.0, abs=1e-15)
    assert q_entropy_max(3, 1.0) == pytest.approx(math.log(3), abs=1e-15)
    with pytest.raises(ValueError):
        q_entropy_max(2, 2.0 + 1e-9)
    with pytest.raises(ValueError):
        q_entropy_max(0, 0.5)
    # the uniform distribution attains the bound
    for m in (2, 3, 5):
        for q in (0.25, 0.75, 1.0, 1.6, 2.0):
            u = [1.0 / m] * m
            assert abs(q_entropy(u, q) - q_entropy_max(m, q)) <= 1e-12


def test_joint_and_conditional_entropy():
    j = JointTable(J22)
    t = np.array(J22)
    for q in (0.5, 1.0, 1.7):
        direct = -sum(v * ln_q(v, q) for v in t.ravel())
        assert q_entropy_joint(j, q) == pytest.approx(direct, abs=1e-14)
    # conditioning on the row: -sum p(x,y) ln_q p(y|x)
    assert q_entropy_conditional(j, 0, 0.5) == pytest.approx(0.5603959545514345, abs=1e-14)
    px = t.sum(axis=1)
    brute = -sum(
        t[x, y] * ln_q(t[x, y] / px[x], 0.5) for x in range(2) for y in range(2)
    )
    assert q_entropy_conditional(j, 0, 0.5) == pytest.approx(brute, abs=1e-15)


def test_conditional_entropy_multi_axis():
    rng = make_rng(5)
    j = random_joint((2, 3, 2), rng)
    t = j.t
    # condition on axes (0, 2) jointly
    got = q_entropy_conditional(j, (0, 2), 0.6)
    marg = t.sum(axis=1, keepdims=True)
    brute = 0.0
    for idx in np.ndindex(t.shape):
        if t[idx] > 0:
            brute -= t[idx] * ln_q(t[idx] / marg[idx[0], 0, idx[2]], 0.6)
    assert got == pytest.approx(brute, abs=1e-13)


def test_relative_entropy_hand_values():
    assert relative_q_entropy([1.0, 0.0], [0.5, 0.5], 0.5) == pytest.approx(
        0.8284271247461903, abs=1e-15
    )
    for q in (0.25, 0.5, 1.0, 1.5, 2.0):
        assert relative_q_entropy([0.3, 0.7], [0.3, 0.7], q) == 0.0
    with pytest.raises(ValueError):
        relative_q_entropy([0.5, 0.5], [1 / 3, 1 / 3, 1 / 3], 0.5)


def test_relative_entropy_missing_reference_mass():
    # reference assigns zero where p has mass: divergent at q <= 1,
    # finite limit p/(q-1) above
    assert relative_q_entropy([0.5, 0.5], [1.0, 0.0], 0.5) == math.inf
    assert relative_q_entropy([0.5, 0.5], [1.0, 0.0], 1.0) == math.inf
    got = relative_q_entropy([0.5, 0.5], [1.0, 0.0], 1.5)
    expected = 0.5 / 0.5 + 0.5 * ln_q(0.5 / 1.0, 1.5)
    assert got == pytest.approx(expected, abs=1e-15)
    # all of p's mass escapes: only the limit terms remain
    assert relative_q_entropy([1.0, 0.0], [0.0, 1.0], 1.5) == pytest.approx(2.0, abs=1e-15)


def test_mutual_information_is_divergence_from_product():
    rng = make_rng(9)
    for _ in range(25):
        j = random_joint((3, 4), rng)
        q = float(rng.uniform(0.0, 2.0))
        t = j.t
        flat_joint = t.ravel()
        flat_prod = np.outer(t.sum(axis=1), t.sum(axis=0)).ravel()
        d = relative_q_entropy(flat_joint.tolist(), (flat_prod / flat_prod.sum()).tolist(), q)
        assert mutual_q_information(j, q) == pytest.approx(d, abs=1e-12)
    with pytest.raises(ValueError):
        mutual_q_information(random_joint((2, 2, 2), rng), 0.5)


def test_mutual_information_of_independent_is_zero():
    j = JointTable(np.outer([0.3, 0.7], [0.2, 0.8]))
    for q in (0.25, 0.5, 1.0, 1.5):
        assert abs(mutual_q_information(j, q)) <= 1e-15


def test_conditional_mutual_information():
    rng = make_rng(21)
    j = random_joint((2, 3, 2), rng)
    t = j.t
    q = 0.7
    pz = t.sum(axis=(0, 1))
    pxz = t.sum(axis=1)
    pyz = t.sum(axis=0)
    brute = 0.0
    for x, y, z in np.ndindex(t.shape):
        if t[x, y, z] > 0:
            ratio = t[x, y, z] * pz[z] / (pxz[x, z] * pyz[y, z])
            brute += t[x, y, z] * ln_q(ratio, q)
    assert conditional_mutual_q_information(j, q) == pytest.approx(brute, abs=1e-14)
    # conditioning on the separating middle axis of a chain-built triple
    # makes the outer variables independent, so the measure vanishes
    for _ in range(10):
        tri = random_markov_triple((3, 2, 3), rng)
        qv = float(rng.uniform(0.0, 2.0))
        assert abs(conditional_mutual_q_information(tri, qv, given_axis=1)) <= 1e-12
    with pytest.raises(ValueError):
        conditional_mutual_q_information(j, 0.5, given_axis=3)
    with pytest.raises(ValueError, match="rank-3 table"):
        conditional_mutual_q_information(random_joint((2, 3), rng), 0.5)


def test_chain_terms_match_brute_force():
    rng = make_rng(33)
    j = random_joint((3, 2, 2), rng)
    q = 0.45
    terms = q_entropy_chain_terms(j, q)
    assert len(terms) == 3
    assert terms[0] == pytest.approx(q_entropy(j.marginal(0).p.tolist(), q), abs=1e-14)
    assert terms[1] == pytest.approx(
        q_entropy_conditional(JointTable(j.t.sum(axis=2)), 0, q), abs=1e-14
    )
    assert terms[2] == pytest.approx(q_entropy_conditional(j, (0, 1), q), abs=1e-14)


def test_shannon_recovery_against_classical():
    # near q = 1 each measure lands on its classical counterpart
    rng = make_rng(42)
    for q in (1.0 + 1e-4, 1.0 - 1e-4):
        for _ in range(20):
            p = random_dist(4, rng).p
            r = random_dist(4, rng).p
            j = random_joint((3, 3), rng)
            t = j.t
            pos = p[p > 0]
            assert abs(q_entropy(p.tolist(), q) - (-(pos * np.log(pos)).sum())) <= 1e-3
            kl = float((p * np.log(p / r)).sum())
            assert abs(relative_q_entropy(p.tolist(), r.tolist(), q) - kl) <= 1e-3
            px, py = t.sum(axis=1), t.sum(axis=0)
            mask = t > 0
            mi = float((t[mask] * np.log(t[mask] / np.outer(px, py)[mask])).sum())
            assert abs(mutual_q_information(j, q) - mi) <= 1e-3
            hc = -float((t[mask] * np.log((t / px[:, None])[mask])).sum())
            assert abs(q_entropy_conditional(j, 0, q) - hc) <= 1e-3


def test_relative_conditional_divergence():
    rng = make_rng(55)
    pj = random_joint((2, 3), rng)
    rj = random_joint((2, 3), rng)
    q = 0.6
    pc = pj.conditional(0)
    rc = rj.conditional(0)
    brute = 0.0
    for x, y in np.ndindex(pj.t.shape):
        if pj.t[x, y] > 0:
            brute += pj.t[x, y] * ln_q(pc[x, y] / rc[x, y], q)
    assert relative_q_entropy_conditional(pj, rj, 0, q) == pytest.approx(brute, abs=1e-14)
    # reference with an empty conditional cell where p has mass
    rz = JointTable([[0.5, 0.0, 0.0], [0.1, 0.2, 0.2]])
    assert relative_q_entropy_conditional(pj, rz, 0, 0.5) == math.inf
    with pytest.raises(ValueError, match="equal-shape"):
        relative_q_entropy_conditional(pj, random_joint((3, 2), rng), 0, q)


def _compacted_pairs(p, r, t, tr, qv):
    """(public measure, compacted reference) of every measure that sums over
    cells, on distributions p, r of one length and rank-3 tables t, tr of one
    shape; the reference sums over the cells of positive weight only."""
    t2 = t.sum(axis=2)
    pairs = [
        (tsallis_entropy(p, qv), entropy(p, 2.0 - qv)),
        (q_entropy(p, qv), entropy(p, qv)),
        (q_entropy_joint(t, qv), entropy(t, qv)),
        (relative_q_entropy(p, r, qv), divergence(p, p, r, qv)),
        (mutual_q_information(t2, qv), divergence(t2, t2, np.outer(t2.sum(axis=1), t2.sum(axis=0)), qv)),
    ]
    for given in (0, 1, 2, (0, 2)):
        other = tuple(a for a in range(3) if a not in np.atleast_1d(given))
        marg = np.broadcast_to(t.sum(axis=other, keepdims=True), t.shape)
        pairs.append((q_entropy_conditional(t, given, qv), -divergence(t, t, marg, qv)))
        num, den = JointTable(t).conditional(given), JointTable(tr).conditional(given)
        pairs.append((relative_q_entropy_conditional(t, tr, given, qv), divergence(t, num, den, qv)))
    for given in range(3):
        c = np.moveaxis(t, given, 2)
        pz, pxz, pyz = c.sum(axis=(0, 1)), c.sum(axis=1), c.sum(axis=0)
        want = divergence(c, c * pz, pxz[:, None, :] * pyz[None, :, :], qv)
        pairs.append((conditional_mutual_q_information(t, qv, given), want))
    for table in (t2, t):
        # prefix marginals; the newest axis of each is conditioned on the one before
        marg = [table.sum(axis=tuple(range(i + 1, table.ndim))) for i in range(table.ndim)]
        want = [entropy(marg[0], qv)]
        for prev, cur in zip(marg, marg[1:]):
            want.append(-divergence(cur, cur, np.broadcast_to(prev[..., None], cur.shape), qv))
        pairs += zip(q_entropy_chain_terms(table, qv), want)
    return pairs


def _draw(rng, shape, zeros):
    """Flat-Dirichlet draw; with ``zeros``, about a third of the cells are 0."""
    x = rng.standard_exponential(shape)
    if zeros:
        x *= rng.random(shape) < 0.65
        x.flat[rng.integers(x.size)] += 0.5  # some mass survives
    return x / x.sum()


# 0, the edges of the Shannon band and 1, and q > 1, where mass over a
# zero reference escapes to its finite limit
_GRID_QS = (0.0, 0.5, 1.0 - 1e-13, 1.0, 1.0 + 1e-13, 1.5, 2.0)


@pytest.mark.parametrize("zeros", [False, True])
def test_public_measures_match_the_compacted_reference(zeros):
    # zero cells add exact zeros; from 8 cells on they regroup numpy's
    # pairwise sums, so only there may the last bits move
    rng = make_rng(61 + zeros)
    escaped = {"inf": 0, "finite": 0}
    for _ in range(60):
        m = int(rng.integers(2, 13))
        shape = tuple(int(n) for n in rng.integers(2, 5, size=3))
        p, r = _draw(rng, m, zeros), _draw(rng, m, zeros)
        t, tr = _draw(rng, shape, zeros), _draw(rng, shape, zeros)
        for qv in _GRID_QS:
            for got, want in _compacted_pairs(p, r, t, tr, qv):
                if not zeros:
                    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (qv, got, want)
                elif math.isinf(want):
                    assert got == want, (qv, got, want)
                    escaped["inf"] += 1
                else:
                    assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (qv, got, want)
            if zeros and qv > 1.0 + 1e-12 and ((p > 0) & (r == 0)).any():
                escaped["finite"] += 1
    if zeros:
        assert escaped["inf"] and escaped["finite"]  # both sides of the escape took part
