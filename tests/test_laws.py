"""Inequality/identity registry and fuzz campaigns."""

import math

import numpy as np
import pytest

from qit import LawId, all_laws, fuzz, identity_residual, law_slack, prob
from qit.laws import SlackReport, TOL_IDENTITY, TOL_INEQUALITY, law_is_identity, law_q_range
from qit.measures import (
    conditional_mutual_q_information,
    mutual_q_information,
    q_entropy,
    q_entropy_chain_terms,
    q_entropy_conditional,
    q_entropy_joint,
    relative_q_entropy,
)
from qit.prob import (
    JointTable,
    make_rng,
    product_dist,
    random_dist,
    random_joint,
    random_markov_triple,
)
from qit.qcore import ln_q, pseudo_additivity_residual


def test_registry_enumerates_ten_laws():
    laws = all_laws()
    assert len(laws) == 10
    assert LawId("dpi") is LawId.DPI
    assert str(LawId.QLN_SUM) == "qln-sum"
    assert law_is_identity(LawId.INFO_CHAIN_RULE)
    assert law_is_identity("rel-chain-rule")
    assert not law_is_identity("joint-chain")


def test_q_ranges():
    assert law_q_range("joint-chain") == (0.0, 1.0, False)
    assert law_q_range("dpi") == (0.0, 1.0, False)
    assert law_q_range("qln-sum") == (0.0, 2.0, True)
    assert law_q_range("max-bound") == (0.0, 2.0, True)
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
    # worker partitioning is deterministic per worker count
    w4a = fuzz("joint-chain", trials=101, seed=3, workers=4)
    w4b = fuzz("joint-chain", trials=101, seed=3, workers=4)
    assert w4a == w4b
    assert w4a.workers == 4 and w4a.trials == 101


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
    with pytest.raises(ValueError):
        fuzz("joint-chain", trials=10, workers=0)


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
