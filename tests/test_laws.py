"""Inequality/identity registry and fuzz campaigns."""

import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from qit import LawId, all_laws, fuzz, identity_residual, law_slack, prob
from qit import laws as laws_module
from qit.laws import (
    _REGISTRY,
    SlackReport,
    TOL_IDENTITY,
    TOL_INEQUALITY,
)
from qit.measures import (
    conditional_mutual_q_information,
    mutual_q_information,
    q_entropy,
    q_entropy_chain_terms,
    q_entropy_conditional,
    q_entropy_joint,
    q_entropy_max,
    relative_q_entropy,
    relative_q_entropy_conditional,
)
from qit.prob import (
    JointTable,
    make_rng,
    product_dist,
    random_dist,
    random_joint,
    random_markov_triple,
)
from qit.qcore import cross_term, ln_q, pseudo_additivity_residual
from reference import SAMPLERS, divergence, uniform_q


def test_registry_enumerates_ten_laws():
    laws = all_laws()
    assert len(laws) == 10
    assert LawId("dpi") is LawId.DPI
    assert str(LawId.QLN_SUM) == "qln-sum"
    assert _REGISTRY[LawId.INFO_CHAIN_RULE].identity
    assert _REGISTRY[LawId("rel-chain-rule")].identity
    assert not _REGISTRY[LawId("joint-chain")].identity


def _q_range(law):
    r = _REGISTRY[LawId(law)].q_range
    return (r.lo, r.hi, r.hi_closed)


def test_q_ranges():
    assert _q_range("joint-chain") == (0.0, 1.0, False)
    assert _q_range("dpi") == (0.0, 1.0, False)
    assert _q_range("qln-sum") == (0.0, 2.0, True)
    assert _q_range("max-bound") == (0.0, 2.0, True)
    # outside the documented range the law is not asserted at all
    with pytest.raises(ValueError):
        law_slack("joint-chain", [[0.25, 0.25], [0.25, 0.25]], 1.0)
    with pytest.raises(ValueError):
        law_slack("qln-sum", ([1.0, 2.0], [1.0, 1.0]), 2.0 + 1e-6)
    # q = 2 itself is inside for the closed-top laws
    assert law_slack("qln-sum", ([1.0, 2.0], [1.0, 1.0]), 2.0) >= -1e-13


def test_joint_chain_hand_value():
    u = [[0.25, 0.25], [0.25, 0.25]]
    # 2x2 uniform at q = 0.5: flat entropy 1.0, marginal + conditional
    # terms add to 2 * 0.58578..., so the parts exceed the whole
    slack = law_slack("joint-chain", u, 0.5)
    assert slack == pytest.approx(0.1715728752538097, abs=1e-14)
    assert q_entropy_joint(u, 0.5) == pytest.approx(1.0, abs=1e-15)
    assert sum(q_entropy_chain_terms(u, 0.5)) == pytest.approx(1.1715728752538097, abs=1e-14)


def test_joint_chain_matches_term_sum():
    rng = make_rng(2)
    for _ in range(30):
        j = random_joint((3, 4), rng)
        q = float(rng.uniform(0.0, 1.0))
        expected = sum(q_entropy_chain_terms(j, q)) - q_entropy_joint(j, q)
        assert law_slack("joint-chain", j, q) == pytest.approx(expected, abs=1e-13)
        assert law_slack("joint-chain", j, q) >= -TOL_INEQUALITY


def test_independent_pair_closed_form():
    # for a product table the gap collapses to (1-q) H_q(X) H_q(Y)
    rng = make_rng(3)
    for _ in range(30):
        p = random_dist(3, rng)
        r = random_dist(4, rng)
        q = float(rng.uniform(0.0, 1.0))
        slack = law_slack("indep-superadd", (p, r), q)
        closed = (1.0 - q) * q_entropy(p, q) * q_entropy(r, q)
        assert slack == pytest.approx(closed, abs=1e-12)
        prod_slack = law_slack("joint-chain", product_dist(p, r), q)
        assert prod_slack == pytest.approx(closed, abs=1e-12)


def test_cond_chain_matches_brute_force():
    rng = make_rng(4)
    for _ in range(20):
        j = random_joint((2, 3, 2), rng)
        q = float(rng.uniform(0.0, 1.0))
        h_x_given_z = q_entropy_conditional(JointTable(j.marginal_array((0, 2))), 1, q)
        h_y_given_xz = q_entropy_conditional(j, (0, 2), q)
        h_xy_given_z = q_entropy_conditional(j, 2, q)
        expected = h_x_given_z + h_y_given_xz - h_xy_given_z
        assert law_slack("cond-chain", j, q) == pytest.approx(expected, abs=1e-13)
        assert law_slack("cond-chain", j, q) >= -TOL_INEQUALITY


def test_block_chain_rank4():
    rng = make_rng(5)
    j = random_joint((2, 2, 3, 2), rng)
    q = 0.35
    expected = sum(q_entropy_chain_terms(j, q)) - q_entropy_joint(j, q)
    assert law_slack("block-chain", j, q) == pytest.approx(expected, abs=1e-13)


def test_qln_sum_conventions():
    # proportional sequences meet with equality
    for q in (0.25, 0.75, 1.0, 1.5, 2.0):
        assert abs(law_slack("qln-sum", ([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]), q)) <= 1e-13
    # q = 2 is an identity point for any weights
    rng = make_rng(6)
    for _ in range(20):
        r = rng.standard_exponential(5)
        s = rng.standard_exponential(5)
        assert abs(law_slack("qln-sum", (r, s), 2.0)) <= 1e-12
        assert law_slack("qln-sum", (r, s), float(rng.uniform(0, 2))) >= -TOL_INEQUALITY
    # zero numerators contribute zero; a zero denominator against positive
    # numerator pushes the left side to -inf, so the slack is +inf
    assert law_slack("qln-sum", ([0.0, 0.0], [1.0, 2.0]), 0.5) == 0.0
    assert law_slack("qln-sum", ([1.0, 1.0], [1.0, 0.0]), 0.5) == math.inf


def test_qln_sum_zero_reference_weight_is_continuous_above_one():
    # for q > 1 a term r ln_q(r / s) tends to r / (q - 1) as s -> 0, the
    # escape rule of the divergences; q <= 1 keeps the infinite slack
    near = law_slack("qln-sum", ([1.0, 1.0], [1.0, 1e-12]), 1.5)
    at_zero = law_slack("qln-sum", ([1.0, 1.0], [1.0, 0.0]), 1.5)
    assert at_zero == pytest.approx(2.0 * math.sqrt(2.0) - 2.0, rel=1e-14)
    assert abs(near - at_zero) < 1e-5
    all_near = law_slack("qln-sum", ([1.0, 1.0], [1e-12, 1e-12]), 1.5)
    all_zero = law_slack("qln-sum", ([1.0, 1.0], [0.0, 0.0]), 1.5)
    assert abs(all_zero) <= 1e-15 and abs(all_near - all_zero) < 1e-12
    assert law_slack("qln-sum", ([1.0, 1.0], [1.0, 0.0]), 1.0) == math.inf
    assert law_slack("qln-sum", ([1.0, 1.0], [0.0, 0.0]), 0.5) == math.inf


def test_dq_nonneg_and_equality():
    rng = make_rng(7)
    for _ in range(20):
        p = random_dist(4, rng)
        r = random_dist(4, rng)
        q = float(rng.uniform(0.0, 2.0))
        slack = law_slack("dq-nonneg", (p, r), q)
        assert slack == pytest.approx(relative_q_entropy(p, r, q), abs=0)
        assert slack >= -TOL_INEQUALITY
        # full-support pairs at q = 2 collapse to sum(p) - sum(r) = 0
        assert abs(law_slack("dq-nonneg", (p, r), 2.0)) <= 1e-13
    assert law_slack("dq-nonneg", ([0.3, 0.7], [0.3, 0.7]), 0.5) == 0.0


def test_max_bound_tight_at_uniform():
    for m, q in [(2, 0.5), (3, 1.0), (4, 1.8), (5, 2.0)]:
        u = [1.0 / m] * m
        assert abs(law_slack("max-bound", u, q)) <= 1e-12
    assert law_slack("max-bound", [0.9, 0.1], 0.5) > 1e-3


def test_dpi_decomposition_on_chain_triples():
    # on a triple built as p(x) p(y|x) p(z|y) the corrected difference of
    # the two informations equals the conditional information given z
    rng = make_rng(8)
    for _ in range(25):
        j = random_markov_triple((3, 2, 3), rng)
        q = float(rng.uniform(0.0, 1.0))
        slack = law_slack("dpi", j, q)
        assert slack >= -TOL_INEQUALITY
        cmi = conditional_mutual_q_information(j, q, given_axis=2)
        assert slack == pytest.approx(cmi, abs=1e-11)
    # and the chain terms reproduce it via the explicit cross term
    j = random_markov_triple((2, 2, 2), make_rng(9))
    q = 0.4
    i_xy = mutual_q_information(JointTable(j.marginal_array((0, 1))), q)
    i_xz = mutual_q_information(JointTable(j.marginal_array((0, 2))), q)
    slack = law_slack("dpi", j, q)
    cross = (i_xy - i_xz - slack) / (1.0 - q)
    # recompute the cross term directly
    t = j.t
    px = t.sum(axis=(1, 2))
    pz = t.sum(axis=(0, 1))
    pxz = t.sum(axis=1)
    pyz = t.sum(axis=0)
    brute = 0.0
    for x, y, z in np.ndindex(t.shape):
        if t[x, y, z] > 0:
            a = pxz[x, z] / (px[x] * pz[z])
            b = t[x, y, z] * pz[z] / (pxz[x, z] * pyz[y, z])
            brute += t[x, y, z] * ln_q(a, q) * ln_q(b, q)
    assert cross == pytest.approx(brute, abs=1e-12)


def test_info_chain_identity():
    rng = make_rng(10)
    for _ in range(25):
        j = random_joint((2, 3, 2), rng)
        q = float(rng.uniform(0.0, 1.0))
        assert identity_residual("info-chain-rule-n2", j, q) <= 1e-12
        # as a law, identities report slack = -|residual|
        assert -TOL_IDENTITY <= law_slack("info-chain-rule", j, q) <= 0.0


def test_info_chain_fuzz_residual_near_rounding():
    # the identity holds to a few units of rounding on every instance
    for seed in (3, 7):
        assert fuzz("info-chain-rule", 1000, seed=seed).min_slack >= -5e-15


def test_rel_chain_fuzz_survives_huge_divergences():
    # seed 203 draws a reference cell of mass 6e-8 at q = 0.044, so the
    # divergences reach 1e5 and q-log ratios of 2e6 enter the cross term;
    # the residual must still stay inside the identity tolerance
    report = fuzz("rel-chain-rule", 1000, seed=203)
    assert report.violations == 0
    assert report.min_slack >= -TOL_IDENTITY


def test_rel_chain_identity():
    rng = make_rng(11)
    for _ in range(25):
        pj = random_joint((3, 3), rng)
        rj = random_joint((3, 3), rng)
        q = float(rng.uniform(0.0, 1.0))
        assert identity_residual("rel-chain-rule", (pj, rj), q) <= 1e-12
        assert law_slack("rel-chain-rule", (pj, rj), q) >= -TOL_IDENTITY
    # a reference that misses mass leaves an infinite residual
    rz = JointTable([[0.5, 0.5], [0.0, 0.0]])
    pj = JointTable([[0.25, 0.25], [0.25, 0.25]])
    assert identity_residual("rel-chain-rule", (pj, rz), 0.5) == math.inf


def test_pseudo_add_identity_residual():
    assert identity_residual("pseudo-add", (0.5, 0.5), 0.75) == abs(
        pseudo_additivity_residual(0.5, 0.5, 0.75)
    )
    with pytest.raises(ValueError):
        identity_residual("no-such-identity", (0.5, 0.5), 0.75)


def test_fuzz_builds_no_container(monkeypatch):
    # every instance is drawn by the program itself, so nothing behind
    # the public boundary validates it again
    calls = []
    validate = prob._validate_mass
    monkeypatch.setattr(prob, "_validate_mass", lambda *a: calls.append(a) or validate(*a))
    for law in all_laws():
        fuzz(law, trials=50, seed=201)
    assert len(calls) == 0
    law_slack("joint-chain", [[0.25, 0.25], [0.25, 0.25]], 0.5)
    assert len(calls) == 1  # the boundary itself still validates


# one valid outside instance per law; pairs are tuples
_VALID = {
    "joint-chain": [[0.1, 0.2], [0.3, 0.4]],
    "indep-superadd": ([0.2, 0.8], [0.1, 0.3, 0.6]),
    "cond-chain": np.full((2, 2, 2), 0.125),
    "block-chain": np.full((2, 2, 2, 2), 0.0625),
    "qln-sum": ([1.0, 2.0], [3.0, 0.5]),
    "dq-nonneg": ([0.2, 0.8], [0.5, 0.5]),
    "max-bound": [0.2, 0.3, 0.5],
    "dpi": random_markov_triple((2, 2, 2), make_rng(1)).t,
    "info-chain-rule": np.full((2, 2, 2), 0.125),
    "rel-chain-rule": ([[0.1, 0.2], [0.3, 0.4]], [[0.25, 0.25], [0.25, 0.25]]),
}


def _map_first(instance, f):
    """``instance`` with ``f`` applied to its (first) array."""
    if isinstance(instance, tuple):
        return (f(np.asarray(instance[0], dtype=float)),) + instance[1:]
    return f(np.asarray(instance, dtype=float))


def _negative_cell(a):
    out = a.copy()
    out.flat[0] = -a.flat[0]
    out.flat[1] += 2.0 * a.flat[0]  # the mass still sums to one
    return out


@pytest.mark.parametrize("law", [law.value for law in all_laws()])
def test_law_slack_rejects_bad_instances(law):
    q = 0.5
    assert math.isfinite(law_slack(law, _VALID[law], q))
    rank5 = _map_first(_VALID[law], lambda a: a.reshape(a.shape + (1,) * (5 - a.ndim)))
    with pytest.raises(ValueError):
        law_slack(law, rank5, q)
    with pytest.raises(ValueError):
        law_slack(law, _map_first(_VALID[law], _negative_cell), q)
    spec = _REGISTRY[LawId(law)]
    if spec.arity == 2:
        with pytest.raises(ValueError, match="expects a pair of arrays"):
            law_slack(law, _VALID[law][:1], q)
    if spec.matched:
        longer = _map_first(_VALID[law], lambda a: np.concatenate([a, np.zeros_like(a)]))
        with pytest.raises(ValueError, match="two arrays of one shape"):
            law_slack(law, longer, q)
    doubled = _map_first(_VALID[law], lambda a: 2.0 * a)
    if law == "qln-sum":
        law_slack(law, doubled, q)  # free weights need no normalization
    else:
        with pytest.raises(ValueError, match="sum to 1"):
            law_slack(law, doubled, q)


def test_fuzz_all_laws_clean():
    for law in all_laws():
        report = fuzz(law, trials=300, seed=0)
        assert report.passed(), f"{law}: min slack {report.min_slack}"
        assert report.violations == 0
        assert report.trials == 300
        assert report.min_slack >= -report.tol


def test_fuzz_is_deterministic():
    a = fuzz("dpi", trials=120, seed=5)
    b = fuzz("dpi", trials=120, seed=5)
    assert a == b
    c = fuzz("dpi", trials=120, seed=6)
    assert c.min_slack != a.min_slack


@pytest.mark.parametrize("law", [law.value for law in all_laws()])
def test_fuzz_replays_as_one_stream(law):
    # trial i is the i-th (q, instance) draw from stream 0 of the seed
    spec = _REGISTRY[LawId(law)]
    rng = make_rng(11)
    slacks, qs = [], []
    for _ in range(40):
        qv = float(rng.uniform(spec.q_range.lo, spec.q_range.hi))
        slacks.append(law_slack(law, spec.sample(rng), qv))
        qs.append(qv)
    r = fuzz(law, trials=40, seed=11)
    assert r.identity is spec.identity
    assert r.min_slack == min(slacks)
    assert r.mean_slack == sum(slacks) / 40
    assert r.q_mean == sum(qs) / 40
    assert r.violations == sum(s < -r.tol for s in slacks)


def test_fuzz_q_range_intersection():
    r = fuzz("joint-chain", trials=50, q_range=(0.5, 0.9), seed=1)
    assert (r.q_lo, r.q_hi) == (0.5, 0.9)
    assert 0.5 <= r.q_mean <= 0.9
    full = fuzz("qln-sum", trials=10, seed=1)
    assert (full.q_lo, full.q_hi) == (0.0, 2.0)
    with pytest.raises(ValueError):
        fuzz("joint-chain", trials=10, q_range=(1.2, 1.5))
    with pytest.raises(ValueError):
        fuzz("joint-chain", trials=10, q_range=(0.9, 0.5))
    with pytest.raises(ValueError):
        fuzz("joint-chain", trials=0)


def test_fuzz_rejects_nan_q_bounds_and_non_finite_tol():
    for q_range in [(math.nan, 0.5), (0.2, math.nan)]:
        with pytest.raises(ValueError, match="q-range"):
            fuzz("joint-chain", trials=10, q_range=q_range)
    # no slack is below -nan, so such a campaign could never fail
    for tol in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="tol"):
            fuzz("qln-sum", trials=10, tol=tol)


def test_fuzz_tol_override_flags_violations():
    # an absurd negative tolerance turns finite positive slacks into
    # violations, exercising the failure path end to end
    r = fuzz("qln-sum", trials=50, seed=3, tol=-1.0)
    assert r.violations > 0
    assert not r.passed()


def test_slack_report_serialization():
    r = fuzz("max-bound", trials=40, seed=2)
    row = r.to_csv_row()
    fields = row.split(",")
    assert len(fields) == len(SlackReport.CSV_HEADER.split(","))
    assert fields[0] == "max-bound"
    assert fields[1] == "40"
    assert fields[4] == "0"
    d = r.to_json_dict()
    assert d["law"] == "max-bound"
    assert d["q_range"] == [0.0, 2.0]
    assert d["tol"] == TOL_INEQUALITY
    assert isinstance(d["q_mean"], float)


# ---------------------------------------------------------------------------
# reference evaluators: one instance at a time, on its positive cells, through
# the public measures (and the compacted ``divergence`` for qln-sum's free weights)

def _ref_block_chain(t, qv):
    return float(sum(q_entropy_chain_terms(t, qv)) - q_entropy_joint(t, qv))


def _ref_indep_superadd(instance, qv):
    p, r = instance
    return q_entropy(p, qv) + q_entropy(r, qv) - q_entropy_joint(np.outer(p, r), qv)


def _ref_cond_chain(t, qv):
    h_x_given_z = q_entropy_conditional(t.sum(axis=1), 1, qv)
    h_y_given_xz = q_entropy_conditional(t, (0, 2), qv)
    h_xy_given_z = q_entropy_conditional(t, 2, qv)
    return float(h_x_given_z + h_y_given_xz - h_xy_given_z)


def _ref_qln_sum(instance, qv):
    r, s = instance
    rs = float(r.sum())
    ss = float(s.sum())
    if rs == 0:
        return 0.0
    lhs = divergence(r, r, s, qv)  # +inf for q <= 1 where a positive r meets s = 0
    if lhs == math.inf:
        return math.inf
    # past the escape above, ss = 0 means q > 1, where ln_q(rs / 0) = 1 / (q - 1)
    rhs = rs / (qv - 1.0) if ss == 0 else rs * float(ln_q(rs / ss, qv))
    return lhs - rhs


def _ref_dq_nonneg(instance, qv):
    p, r = instance
    return relative_q_entropy(p, r, qv)


def _ref_max_bound(p, qv):
    return q_entropy_max(p.size, qv) - q_entropy(p, qv)


def _ref_mi_chain_cross(t, qv):
    px = t.sum(axis=(1, 2))
    pz = t.sum(axis=(0, 1))
    pxz = t.sum(axis=1)
    pyz = t.sum(axis=0)
    mask = t > 0
    x, y, z = mask.nonzero()
    w = t[mask]
    a = pxz[x, z] / (px[x] * pz[z])
    b = w * pz[z] / (pxz[x, z] * pyz[y, z])
    return cross_term(w, a, b, qv)


def _ref_dpi(t, qv):
    i_xy = mutual_q_information(t.sum(axis=2), qv)
    i_xz = mutual_q_information(t.sum(axis=1), qv)
    return float(i_xy - i_xz - _ref_mi_chain_cross(t, qv))


def _ref_info_chain(t, qv):
    m1, m2, my = t.shape
    i_joint = mutual_q_information(t.reshape(m1 * m2, my), qv)
    i_1 = mutual_q_information(t.sum(axis=1), qv)
    i_2_given_1 = conditional_mutual_q_information(t, qv, given_axis=0)
    return i_joint - i_1 - i_2_given_1 - _ref_mi_chain_cross(t.transpose(2, 1, 0), qv)


def _ref_rel_chain(instance, qv):
    p, r = instance
    px = p.sum(axis=1)
    rx = r.sum(axis=1)
    lhs = relative_q_entropy(p.reshape(-1), r.reshape(-1), qv)
    d_marg = relative_q_entropy(px, rx, qv)
    d_cond = relative_q_entropy_conditional(p, r, 0, qv)
    if math.isinf(lhs) or math.isinf(d_marg) or math.isinf(d_cond):
        return math.inf
    p_cond = prob._conditional(p, (1,))
    r_cond = prob._conditional(r, (1,))
    mask = p > 0
    # rows of r without mass give 0/0 where p has none, and above q = 1 a
    # positive p over r = 0 gives the ratio +inf, whose q-log is 1 / (q - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio_x = (px / rx)[mask.nonzero()[0]]
        ratio_cond = p_cond[mask] / r_cond[mask]
    return lhs - d_marg - d_cond - cross_term(p[mask], ratio_x, ratio_cond, qv)


_REFERENCE = {
    "joint-chain": _ref_block_chain,
    "indep-superadd": _ref_indep_superadd,
    "cond-chain": _ref_cond_chain,
    "block-chain": _ref_block_chain,
    "qln-sum": _ref_qln_sum,
    "dq-nonneg": _ref_dq_nonneg,
    "max-bound": _ref_max_bound,
    "dpi": _ref_dpi,
    "info-chain-rule": _ref_info_chain,
    "rel-chain-rule": _ref_rel_chain,
}

# number of instance shapes each sampler draws
_SHAPES = {
    "joint-chain": 25,
    "indep-superadd": 25,
    "cond-chain": 27,
    "block-chain": 25 + 8 + 16,
    "qln-sum": 7,
    "dq-nonneg": 5,
    "max-bound": 7,
    "dpi": 27,
    "info-chain-rule": 27,
    "rel-chain-rule": 9,
}


def _arrays(spec, instance):
    return (instance,) if spec.arity == 1 else instance


def _shapes(spec, instance):
    return tuple(a.shape for a in _arrays(spec, instance))


def _evaluate(spec, instances, q):
    """``spec.evaluate`` of the instances (one shape) stacked, at the q array."""
    stacks = tuple(np.stack(column) for column in zip(*(_arrays(spec, x) for x in instances)))
    return spec.evaluate(stacks[0] if spec.arity == 1 else stacks, np.asarray(q, dtype=float))


@pytest.mark.parametrize("law", [law.value for law in all_laws()])
def test_batch_evaluators_match_scalar_bit_for_bit(law):
    spec = _REGISTRY[LawId(law)]
    rng = make_rng(31)
    instances = [spec.sample(rng) for _ in range(1500)]
    groups = {}
    for i, instance in enumerate(instances):
        groups.setdefault(_shapes(spec, instance), []).append(i)
    assert len(groups) == _SHAPES[law]
    # q at both ends of the range, on both sides of 1 where the range
    # spans it (inside and just outside the Shannon band), and at random
    top = 2.0 if spec.q_range.hi_closed else math.nextafter(1.0, 0.0)
    fixed = [0.0, 1e-9, 0.5, top, top - 1e-9]
    if spec.q_range.hi_closed:
        fixed += [1.0, 1.0 - 1e-13, 1.0 + 1e-13, 1.0 - 1e-6, 1.0 + 1e-6, 1.9]
    qs = [fixed[i] if i < len(fixed) else float(rng.uniform(spec.q_range.lo, spec.q_range.hi)) for i in range(60)]
    for idx in groups.values():
        q = np.array([qs[j % len(qs)] for j in range(len(idx))])
        got = _evaluate(spec, [instances[i] for i in idx], q)
        want = np.array([_REFERENCE[law](instances[i], qv) for i, qv in zip(idx, q.tolist())])
        assert got.tobytes() == want.tobytes()


def _zero_cells(spec, instance, rng):
    """``instance`` with about a third of the cells of each array set to 0,
    keeping one positive cell, and rescaled to mass one for normalized laws.
    Zeroed reference cells under positive weight are ``den = 0`` escapes."""
    out = []
    for a in _arrays(spec, instance):
        a = a.copy()
        zero = rng.random(a.shape) < 0.35
        zero.flat[rng.integers(a.size)] = False
        a[zero] = 0.0
        out.append(a / a.sum() if spec.normalized else a)
    return out[0] if spec.arity == 1 else tuple(out)


def _q_grid(spec):
    """q below 1, at the Shannon band and, where the range allows, above 1."""
    if spec.q_range.hi_closed:
        return [0.0, 0.3, 0.7, 1.0 - 1e-13, 1.0, 1.0 + 1e-13, 1.0 + 1e-6, 1.5, 2.0]
    return [0.0, 0.3, 0.7, 0.99, 1.0 - 1e-13]


def _assert_matches_reference(got, want):
    # within 1e-12 of the unit scale of the measures; +inf exactly
    if math.isinf(want):
        assert got == want
    else:
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)


@pytest.mark.parametrize("law", [law.value for law in all_laws()])
def test_zero_cells_match_the_reference(law):
    spec = _REGISTRY[LawId(law)]
    rng = make_rng(41)
    grid = _q_grid(spec)
    cases = [(_zero_cells(spec, spec.sample(rng), rng), grid[k % len(grid)]) for k in range(300)]
    if law == "qln-sum":
        for r, s in [([0.0, 0.0, 0.0], [1.0, 2.0, 0.5]), ([1.0, 2.0, 0.5], [0.0, 0.0, 0.0]), ([0.0, 0.0], [0.0, 0.0])]:
            cases += [((np.array(r), np.array(s)), qv) for qv in grid]
    wants = [_REFERENCE[law](instance, qv) for instance, qv in cases]
    assert any(math.isinf(w) for w in wants) == (law in ("qln-sum", "dq-nonneg", "rel-chain-rule"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        gots = [law_slack(law, instance, qv) for instance, qv in cases]
    for got, want in zip(gots, wants):
        _assert_matches_reference(got, -abs(want) if spec.identity else want)
    if spec.identity:
        # identity_residual takes any q; the escapes above 1 keep the identity
        name = {"info-chain-rule": "info-chain-rule-n2"}.get(law, law)
        for instance, _ in cases[:100]:
            for qv in (0.5, 1.0, 1.5, 2.0):
                want = abs(_REFERENCE[law](instance, qv))
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    got = identity_residual(name, instance, qv)
                _assert_matches_reference(got, want)


@pytest.mark.parametrize("law", [law.value for law in all_laws()])
def test_each_row_of_a_mixed_stack_equals_its_one_row_evaluation(law):
    spec = _REGISTRY[LawId(law)]
    rng = make_rng(43)
    groups = {}
    for _ in range(400):
        instance = spec.sample(rng)
        groups.setdefault(_shapes(spec, instance), []).append(instance)
    instances = max(groups.values(), key=len)
    # every other row holds zero cells, and q runs over the whole grid
    instances = [_zero_cells(spec, x, rng) if i % 2 else x for i, x in enumerate(instances)]
    grid = _q_grid(spec)
    q = [grid[i % len(grid)] for i in range(len(instances))]
    stacked = _evaluate(spec, instances, q)
    for i, (instance, qv) in enumerate(zip(instances, q)):
        assert stacked[i : i + 1].tobytes() == _evaluate(spec, [instance], [qv]).tobytes()


_MEMORY_PEAKS = """
import tracemalloc
from qit import fuzz
peaks = []
tracemalloc.start()
for trials in (2_000, 20_000):
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    fuzz("block-chain", trials, seed=5)
    peaks.append(tracemalloc.get_traced_memory()[1] - base)
print(*peaks)
"""


def test_fuzz_memory_does_not_grow_with_trials():
    # block-chain draws the most cells per trial (rank 4, up to 81); draws
    # are evaluated in chunks of a bounded number of cells.  The campaigns
    # run in a fresh interpreter: tracemalloc also counts numpy's buffer
    # cache and Python's free lists, which earlier tests leave in any state
    src = os.path.dirname(os.path.dirname(laws_module.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _MEMORY_PEAKS], env=env, capture_output=True, text=True, check=True)
    peaks = [int(v) for v in out.stdout.split()]
    assert peaks[1] <= 1.5 * peaks[0], peaks


@pytest.mark.parametrize("law", [law.value for law in all_laws()])
def test_fuzz_reports_a_replayable_worst_trial(law):
    spec = _REGISTRY[LawId(law)]
    r = fuzz(law, trials=300, seed=23)
    rng = make_rng(23)
    for _ in range(r.worst_trial + 1):
        qv = float(rng.uniform(spec.q_range.lo, spec.q_range.hi))
        instance = spec.sample(rng)
    assert law_slack(law, instance, qv) == r.min_slack
    assert qv == r.worst_q
    assert _shapes(spec, instance) == r.worst_shape
    d = r.to_json_dict()
    assert d["worst_trial"] == r.worst_trial and d["worst_q"] == r.worst_q
    assert d["worst_shape"] == [list(shape) for shape in r.worst_shape]
    assert len(r.to_csv_row().split(",")) == len(SlackReport.CSV_HEADER.split(","))


def test_fuzz_takes_an_integer_trial_count():
    with pytest.raises(TypeError):
        fuzz("max-bound", 2.5)
    for flag in (True, False):
        with pytest.raises(ValueError, match="integer"):
            fuzz("max-bound", flag)
    r = fuzz("max-bound", np.int64(3), seed=2)
    assert type(r.trials) is int and r == fuzz("max-bound", 3, seed=2)


# ---------------------------------------------------------------------------
# the fuzz stream: the package's samplers and q draw against the one-call-per-
# draw forms of ``reference``, draw by draw, arrays and generator state


@pytest.mark.parametrize("law", [law.value for law in all_laws()])
def test_samplers_draw_the_reference_stream(law):
    spec = _REGISTRY[LawId(law)]
    ours, ref = make_rng(17), make_rng(17)
    for i in range(3000):
        # PCG64 keeps the spare half-word of a 64-bit output for the next
        # 32-bit draw; enter every other draw with one pending, the case in
        # which moving an integer draw across an exponential draw shows
        while ours.bit_generator.state["has_uint32"] != i % 2:
            ours.integers(2), ref.integers(2)
        got, want = _arrays(spec, spec.sample(ours)), _arrays(spec, SAMPLERS[law](ref))
        assert [(a.shape, a.tobytes()) for a in got] == [(a.shape, a.tobytes()) for a in want]
        assert ours.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("law", [law.value for law in all_laws()])
def test_grouped_finish_gives_the_bits_of_each_sample(law):
    # a campaign draws raw exponentials, stacks them by the finished
    # instance's shapes and finishes each stack in one call; every row must
    # take the bits of ``spec.sample``, the finish of a stack of one
    spec = _REGISTRY[LawId(law)]
    ours, twin = make_rng(37), make_rng(37)
    raws, groups, want = [], {}, []
    for i in range(1500):
        raw, shapes = spec.draw(ours)
        instance = spec.sample(twin)
        assert shapes == _shapes(spec, instance)  # a campaign's cells, group key and worst_shape
        want.append(_arrays(spec, instance))
        assert ours.bit_generator.state == twin.bit_generator.state
        raws.append(raw)
        groups.setdefault(shapes, []).append(i)
    assert len(groups) == _SHAPES[law]
    if law == "dpi":  # 18 exponentials each, in factors of other shapes
        assert {((3, 3, 2),), ((2, 4, 2),)} <= set(groups)
    for height in (1, 2, 7, 1500):
        for idx in groups.values():
            for start in range(0, len(idx), height):
                block = idx[start : start + height]
                stacks = spec.finish(tuple(np.stack(column) for column in zip(*(raws[i] for i in block))))
                for row, i in enumerate(block):
                    got = [s[row] for s in stacks]
                    assert [(a.shape, a.tobytes()) for a in got] == [(a.shape, a.tobytes()) for a in want[i]]


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.0, 2.0), (0.3, 0.7), (0.1, 1.9), (0.0, 1e-3)])
def test_q_draw_is_numpy_uniform(lo, hi):
    # fuzz draws q as numpy's random_uniform does, low + range * next_double
    ours, ref = make_rng(29), make_rng(29)
    for _ in range(20_000):
        assert lo + (hi - lo) * ours.random() == uniform_q(ref, lo, hi)
    assert ours.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("q_range", [None, (0.3, 0.7)])
@pytest.mark.parametrize("law", [law.value for law in all_laws()])
def test_fuzz_matches_the_reference_stream(law, q_range):
    spec = _REGISTRY[LawId(law)]
    lo, hi = (spec.q_range.lo, spec.q_range.hi) if q_range is None else q_range
    rng = make_rng(31)
    qs, slacks = [], []
    for _ in range(150):
        qs.append(uniform_q(rng, lo, hi))
        slacks.append(law_slack(law, SAMPLERS[law](rng), qs[-1]))
    r = fuzz(law, trials=150, q_range=q_range, seed=31)
    assert r.q_mean == sum(qs) / 150
    assert (r.min_slack, r.worst_q) == (min(slacks), qs[slacks.index(min(slacks))])
    assert r.mean_slack == sum(slacks) / 150


class _CountingRng:
    """A generator whose method calls are counted by name.  Its
    ``bit_generator.ctypes`` is the real generator's interface, on the real
    state, with its ``next_uint32`` and ``next_double`` counted too."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = Counter()
        c = rng.bit_generator.ctypes
        counted = {name: self._counted(name, getattr(c, name)) for name in ("next_uint32", "next_double")}
        self.bit_generator = SimpleNamespace(ctypes=c._replace(**counted))

    def _counted(self, name, method):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)

        return counted

    def __getattr__(self, name):
        return self._counted(name, getattr(self._rng, name))


def test_fuzz_draw_calls_per_trial(monkeypatch):
    rngs = []

    def counting_rng(seed):
        rngs.append(_CountingRng(make_rng(seed)))
        return rngs[-1]

    monkeypatch.setattr(laws_module, "make_rng", counting_rng)
    for law in all_laws():
        fuzz(law, trials=200, seed=9)
    # indep-superadd draws an axis between its two distributions;
    # rel-chain-rule keeps two calls, whose arrays own their cells
    two_calls = (LawId.INDEP_SUPERADD, LawId.REL_CHAIN_RULE)
    for law, rng in zip(all_laws(), rngs):
        assert rng.calls["standard_exponential"] == 200 * (2 if law in two_calls else 1), law
        # q and the axis lengths come from the bit generator, not the Generator
        assert rng.calls["next_double"] == 200, law
        assert not {"integers", "random", "uniform"} & set(rng.calls), law
    assert rngs[all_laws().index(LawId.DPI)].calls["next_uint32"] == 600  # its three axes


# ---------------------------------------------------------------------------
# the bit-generator draws: ``_axis`` and fuzz's q against numpy's Generator


@pytest.mark.parametrize(
    "lo, n, rejects",
    # Lemire's method rejects a draw 1 time in 4 at 3 * 2**30 and about 1 in 2
    # at 2**31 + 1; never at 2**31, which divides 2**32
    [
        (2, 1, False),
        (2, 2, False),
        (-1, 3, False),
        (2, 5, False),
        (0, 7, False),
        (7, 3 << 30, True),
        (-(1 << 31), (1 << 31) + 1, True),
        (0, 1 << 31, False),
    ],
)
def test_axis_is_numpy_integers(lo, n, rejects):
    hi = lo + n - 1
    ours, ref = _CountingRng(make_rng(37)), make_rng(37)
    draws = 3000
    for i in range(draws):
        # enter every other draw with PCG64's spare 32-bit half-word pending
        while ours._rng.bit_generator.state["has_uint32"] != i % 2:
            ours._rng.integers(2), ref.integers(2)
        got, want = laws_module._axis(ours, lo, hi), int(ref.integers(lo, hi + 1))
        assert type(got) is int and got == want
        assert ours._rng.bit_generator.state == ref.bit_generator.state
    if n == 1:
        assert ours.calls["next_uint32"] == 0
    elif rejects:
        assert ours.calls["next_uint32"] > draws * 1.2
    else:
        assert ours.calls["next_uint32"] == draws


def test_next_double_is_numpy_random():
    ours, ref = make_rng(41), make_rng(41)
    c = ours.bit_generator.ctypes
    for i in range(20_000):
        # a pending half-word leaves the 64-bit draw alone
        while ours.bit_generator.state["has_uint32"] != i % 2:
            ours.integers(2), ref.integers(2)
        assert c.next_double(c.state) == ref.random()
        assert ours.bit_generator.state == ref.bit_generator.state
