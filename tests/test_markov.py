"""Markov chains: stationary solving, rate approximants, stepwise second law."""

import math
import tracemalloc

import numpy as np
import pytest

from qit import (
    ConvergenceError,
    MarkovChain,
    SecondLawRow,
    entropy_rate_approximants,
    is_doubly_stochastic,
    q_entropy_max,
    random_doubly_stochastic,
    relative_q_entropy,
    second_law_report,
    stationary,
)
from qit import h_q_inf, h_q_k, markov
from qit.measures import q_entropy_chain_terms, q_entropy_joint
from qit.prob import NORM_TOL, make_rng
from qit.qcore import cross_term
from reference import entropy, laws as loop_laws, random_doubly_stochastic as loop_doubly_stochastic

R_STICKY = [[0.9, 0.1], [0.1, 0.9]]


def sticky_chain(initial=None):
    return MarkovChain(R_STICKY, initial)


def _block_table(chain, n):
    """Joint law of the first ``n`` symbols, all ``m**n`` cells enumerated (the oracle)."""
    t = chain.initial.p.copy()
    for _ in range(n - 1):
        t = t[..., :, None] * chain.transition
    return t


def test_chain_validation():
    with pytest.raises(ValueError):
        MarkovChain([[0.5, 0.5]])  # not square
    with pytest.raises(ValueError):
        MarkovChain([[0.9, 0.2], [0.1, 0.9]])  # row sums 1.1
    with pytest.raises(ValueError):
        MarkovChain([[1.1, -0.1], [0.5, 0.5]])
    with pytest.raises(ValueError):
        MarkovChain(R_STICKY, [0.5, 0.25, 0.25])  # initial length mismatch
    c = sticky_chain()
    assert c.m == 2
    assert c.initial.p.tolist() == [0.5, 0.5]  # default uniform
    with pytest.raises(ValueError):
        c.transition[0, 0] = 0.2  # write-protected
    with pytest.raises(AttributeError, match="immutable"):
        c.initial = c.initial


@pytest.mark.parametrize(
    "rows,message",
    [
        (
            [[0.5, 0.5], [math.nan, 1.0], [1.1, -0.1]],
            "transition row entries must be finite",
        ),
        (
            [[0.5, 0.5], [1.1, -0.1], [math.inf, 0.0]],
            "transition row entries must be nonnegative, min was -0.1",
        ),
        (
            [[0.5, 0.5], [0.9, 0.2], [2.0, -1.0]],
            "transition row must sum to 1 within 1e-09; got 1.1 (off by 0.1)",
        ),
    ],
)
def test_chain_validation_names_the_first_bad_row(rows, message):
    with pytest.raises(ValueError) as exc:
        MarkovChain([row + [0.0] for row in rows])
    assert str(exc.value) == message


def test_evolve():
    c = sticky_chain([1.0, 0.0])
    assert c.evolve(1).p == pytest.approx([0.9, 0.1], abs=1e-15)
    assert c.evolve(2).p == pytest.approx([0.82, 0.18], abs=1e-15)
    assert c.evolve(1, start=[0.0, 1.0]).p == pytest.approx([0.1, 0.9], abs=1e-15)


@pytest.mark.parametrize("start", [[0.5, 0.5], [1.0], [0.25] * 4])
def test_evolve_rejects_a_start_of_another_length(start):
    chain = MarkovChain(np.full((3, 3), 1.0 / 3.0))
    with pytest.raises(ValueError, match="^initial distribution length must match the state count$"):
        chain.evolve(2, start=start)


def test_evolve_in_blocks_matches_one_recursion_in_bounded_memory():
    # slow mixing, so the law still moves in its last bits at every step
    r = np.eye(3) * (1 - 3e-5) + np.array([[0, 1, 2], [2, 0, 1], [1, 2, 0]]) * 1e-5
    chain = MarkovChain(r, [1.0, 0.0, 0.0])
    block = markov._STEP_CELLS // 3
    laws = markov._laws(chain.initial.p, chain.transition, block + 1)
    for steps in (0, 1, block - 1, block, block + 1):
        assert chain.evolve(steps).p.tolist() == laws[steps].tolist()
    # the laws of three blocks would take 1.5 MiB; evolve keeps one block
    tracemalloc.start()
    try:
        chain.evolve(3 * block + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_stationary_hand_values():
    got = stationary(MarkovChain([[0.5, 0.5], [0.25, 0.75]]))
    assert got.p == pytest.approx([1 / 3, 2 / 3], abs=1e-10)
    # identity transition: anything is stationary; the solver stays put
    got = stationary(MarkovChain(np.eye(3), [0.2, 0.3, 0.5]))
    assert got.p == pytest.approx([0.2, 0.3, 0.5], abs=1e-12)
    # doubly stochastic rows force the uniform answer
    got = stationary(sticky_chain([0.99, 0.01]))
    assert got.p == pytest.approx([0.5, 0.5], abs=1e-10)
    # bare-matrix form accepted too
    got = stationary(np.array([[0.5, 0.5], [0.25, 0.75]]))
    assert got.p == pytest.approx([1 / 3, 2 / 3], abs=1e-10)


def test_iteration_caps_raise_convergence_error(monkeypatch):
    # only a reducible chain is iterated: two absorbing states fed by a third
    monkeypatch.setattr(markov, "STATIONARY_ITERS", 3)
    with pytest.raises(ConvergenceError, match="after 3 iterations"):
        stationary(MarkovChain([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.25, 0.25]], [0.0, 0.0, 1.0]))
    monkeypatch.setattr(markov, "SINKHORN_ROUNDS", 1)
    with pytest.raises(ConvergenceError, match="in 1 rounds"):
        random_doubly_stochastic(4, make_rng(8))


@pytest.mark.parametrize("eps", [1e-5, 1e-12])
def test_stationary_law_of_a_slowly_mixing_chain_is_exact(eps):
    # the law is (2/3, 1/3) for every eps; a power iteration either runs
    # out of iterations or stops at once on the uniform start
    chain = MarkovChain([[1.0 - eps, eps], [2.0 * eps, 1.0 - 2.0 * eps]])
    assert np.abs(stationary(chain).p - [2.0 / 3.0, 1.0 / 3.0]).max() <= 1e-15
    assert h_q_k(chain, 0, 1.0) == pytest.approx(math.log(3.0) - 2.0 / 3.0 * math.log(2.0), rel=1e-14)


def test_doubly_stochastic_detector_and_sampler():
    assert is_doubly_stochastic(np.array(R_STICKY))
    assert is_doubly_stochastic(sticky_chain())
    assert not is_doubly_stochastic(np.array([[0.5, 0.5], [0.25, 0.75]]))
    assert not is_doubly_stochastic(np.zeros((0, 0)))
    assert not is_doubly_stochastic([[1.5, -0.5], [-0.5, 1.5]])  # sums 1, a negative entry
    with pytest.raises(ValueError, match="must be numeric"):
        is_doubly_stochastic({"a": 1})
    # "sums to 1" is the NORM_TOL that MarkovChain applies to every row
    nudged = np.array(R_STICKY)
    nudged[0, 0] += NORM_TOL / 2
    assert is_doubly_stochastic(nudged)
    nudged[0, 0] += NORM_TOL
    assert not is_doubly_stochastic(nudged)
    rng = make_rng(5)
    for m in (2, 3, 6):
        r = random_doubly_stochastic(m, rng)
        assert r.shape == (m, m)
        assert r.min() >= 0
        assert np.abs(r.sum(axis=1) - 1).max() <= 1e-9
        assert np.abs(r.sum(axis=0) - 1).max() <= 1e-9
    a = random_doubly_stochastic(4, make_rng(8))
    b = random_doubly_stochastic(4, make_rng(8))
    assert np.array_equal(a, b)


def test_rate_approximants_iid():
    iid = MarkovChain([[0.5, 0.5], [0.5, 0.5]])
    ra = entropy_rate_approximants(iid, 6, 1.0)
    assert ra.block_rate == pytest.approx(math.log(2), abs=1e-12)
    assert ra.cond_rate == pytest.approx(math.log(2), abs=1e-12)
    # below q = 1 the flat block value undershoots the summed conditionals:
    # n = 2 uniform gives 4 cells -> 1/2 and two terms of -ln_q(1/2)
    ra2 = entropy_rate_approximants(iid, 2, 0.5)
    assert ra2.block_rate == pytest.approx(0.5, abs=1e-14)
    assert ra2.cond_rate == pytest.approx(0.5857864376269049, abs=1e-14)
    assert ra2.cond_rate > ra2.block_rate
    with pytest.raises(ValueError, match="block length must be >= 1"):
        entropy_rate_approximants(iid, 0, 0.5)


def test_zero_rates_are_positive_zero():
    # the identity chain from a sure start never leaves it: every entropy
    # is +0, never -0 (which prints "-0")
    chain = MarkovChain(np.eye(2), [1.0, 0.0])
    for q in (0.0, 0.5, 0.999):
        zeros = [
            *entropy_rate_approximants(chain, 5, q),
            h_q_k(chain, 1, q),
            h_q_k(chain, 3, q),
            h_q_inf(chain, q),
            *(row.h_q for row in second_law_report(chain, 3, q)),
        ]
        assert [math.copysign(1.0, z) for z in zeros] == [1.0] * 8
        assert zeros == [0.0] * 8


def test_rate_approximants_sticky_chain():
    c = sticky_chain(stationary(sticky_chain()).p.tolist())
    ra = entropy_rate_approximants(c, 4, 0.5)
    assert ra.block_rate == pytest.approx(0.25456917878962315, abs=1e-12)
    assert ra.cond_rate == pytest.approx(0.31828999213600695, abs=1e-12)
    # every conditional term past the first equals the one-step value
    terms = q_entropy_chain_terms(_block_table(c, 4), 0.5)
    one_step = 0.22912451030570766
    for t in terms[1:]:
        assert t == pytest.approx(one_step, abs=1e-12)
    assert ra.cond_rate == pytest.approx(sum(terms) / 4, abs=1e-14)
    assert ra.block_rate == pytest.approx(q_entropy_joint(_block_table(c, 4), 0.5) / 4, abs=1e-14)


def _chains_with_zero_cells(rng, count):
    """Random chains on 2-4 states with zero transitions and one zero initial cell."""
    for _ in range(count):
        m = int(rng.integers(2, 5))
        r = rng.dirichlet(np.ones(m), size=m) * (rng.random((m, m)) < 0.6)
        r[np.arange(m), rng.integers(0, m, m)] += 0.1  # every row keeps some mass
        r /= r.sum(axis=1, keepdims=True)
        psi = rng.dirichlet(np.ones(m))
        psi[rng.integers(m)] = 0.0
        yield MarkovChain(r, psi / psi.sum())


# q = 2 meets numpy's 0**0 = 1 on zero transitions; 1 +- 1e-13 is inside the
# Shannon band, where ln_q is log and the product rule's exponent must be 1
@pytest.mark.parametrize("q", [0.0, 0.5, 1.0 - 1e-13, 1.0, 1.0 + 1e-13, 1.7, 2.0, "uniform"])
def test_block_entropy_recursion_matches_the_enumeration(q):
    rng = make_rng(13)
    for chain in _chains_with_zero_cells(rng, 60):
        qv = float(rng.uniform(0.0, 2.0)) if q == "uniform" else q
        for n in range(1, 7):
            want = entropy(_block_table(chain, n), qv)
            got = entropy_rate_approximants(chain, n, qv).block_rate
            assert abs(got - want / n) <= 1e-14 * abs(want / n)


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
def test_zero_transitions_give_finite_entropies(q):
    # unmasked, 0 * ln_q(0) is 0 * -inf = nan for q >= 1
    chain = MarkovChain([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])  # uniform is stationary
    table = _block_table(chain, 4)
    terms = q_entropy_chain_terms(table, q)
    for k in range(4):
        assert math.isfinite(h_q_k(chain, k, q))
        assert h_q_k(chain, k, q) == pytest.approx(terms[k], rel=0, abs=1e-14)
    assert h_q_inf(chain, q) == pytest.approx(terms[1], rel=0, abs=1e-14)
    ra = entropy_rate_approximants(chain, 4, q)
    assert math.isfinite(ra.block_rate) and math.isfinite(ra.cond_rate)
    assert ra.block_rate == pytest.approx(q_entropy_joint(table, q) / 4, rel=0, abs=1e-14)
    assert ra.cond_rate == pytest.approx(sum(terms) / 4, rel=0, abs=1e-14)


def test_block_rate_is_inf_past_the_float_range():
    # q > 1: H_q(X^n) grows geometrically in n and passes the float range;
    # the suite turns RuntimeWarnings into errors, so none may escape
    ra = entropy_rate_approximants(sticky_chain(), 5000, 1.5)
    assert ra.block_rate == math.inf
    assert math.isfinite(ra.cond_rate)
    # with a zero transition the overflowed sums meet -inf * 0
    chain = MarkovChain([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    assert entropy_rate_approximants(chain, 5000, 1.9).block_rate == math.inf
    # below the overflow the value is finite and unchanged
    assert math.isfinite(entropy_rate_approximants(chain, 500, 1.9).block_rate)


def test_second_law_monotone_from_pure_state():
    rows = second_law_report(sticky_chain([1.0, 0.0]), 50, 0.8)
    assert len(rows) == 50
    assert rows[0].applicable  # the transition is doubly stochastic
    for row in rows:
        assert row.slack >= -1e-9
        assert row.delta_h >= -1e-12  # entropy never decreases here
    assert rows[0].step == 1
    # the correction term is genuinely nonzero away from q = 1
    assert abs(rows[0].t_q) > 1e-3
    assert rows[0].t_q_statement != rows[0].t_q
    # entropy climbs to the two-state ceiling
    assert rows[-1].h_q <= q_entropy_max(2, 0.8) + 1e-12
    assert rows[-1].h_q == pytest.approx(q_entropy_max(2, 0.8), abs=1e-8)


def test_second_law_uniform_start_is_identically_zero():
    rows = second_law_report(sticky_chain(), 10, 0.5)
    for row in rows:
        assert abs(row.delta_h) <= 1e-12
        assert abs(row.t_q) <= 1e-12
        assert abs(row.lhs) <= 1e-12
        assert abs(row.slack) <= 1e-12


def test_second_law_random_doubly_stochastic():
    rng = make_rng(42)
    for _ in range(10):
        m = int(rng.integers(2, 7))
        r = random_doubly_stochastic(m, rng)
        start = rng.dirichlet(np.ones(m)).tolist()
        for q in (0.2, 0.5, 0.8):
            rows = second_law_report(MarkovChain(r, start), 50, q)
            assert min(row.slack for row in rows) >= -1e-9


def test_second_law_near_shannon_reduces_to_entropy_gain():
    # as q -> 1 the bracket -> 1 and the correction vanishes
    rows = second_law_report(sticky_chain([1.0, 0.0]), 5, 1.0 - 1e-9)
    for row in rows:
        assert row.slack == pytest.approx(row.delta_h, abs=1e-8)
        assert abs(row.t_q) <= 1e-8


def test_second_law_q_validation():
    with pytest.raises(ValueError):
        second_law_report(sticky_chain(), 5, 1.0)
    with pytest.raises(ValueError):
        second_law_report(sticky_chain(), 5, -0.1)


def test_second_law_non_doubly_stochastic_flagged():
    rows = second_law_report(MarkovChain([[0.5, 0.5], [0.25, 0.75]], [1.0, 0.0]), 5, 0.5)
    assert not rows[0].applicable
    assert rows[0].ds_deviation == 0.25  # the column sums are 0.75 and 1.25
    assert second_law_report(sticky_chain(), 1, 0.5)[0].ds_deviation == 0.0
    assert len(rows) == 5  # still computed, just not asserted


def test_second_law_row_serialization():
    rows = second_law_report(sticky_chain([1.0, 0.0]), 3, 0.8)
    assert SecondLawRow.CSV_HEADER == "step,H_q,delta_H,T_q,lhs,slack"
    fields = rows[0].to_csv_row().split(",")
    assert len(fields) == 6
    assert fields[0] == "1"
    d = rows[0].to_json_dict()
    assert sorted(d.keys()) == [
        "applicable",
        "delta_h",
        "ds_deviation",
        "h_q",
        "lhs",
        "slack",
        "step",
        "t_q",
        "t_q_statement",
    ]
    assert d["applicable"] is True and d["ds_deviation"] == 0.0


def _loop_second_law_report(chain, steps, q):
    """The report one step at a time, each sum over the joint's positive cells only."""
    r, m = chain.transition, chain.m
    deviation = max(float(np.abs(r.sum(axis=1) - 1.0).max()), float(np.abs(r.sum(axis=0) - 1.0).max()))
    bracket = float(m) ** (1.0 - q)
    rows = []
    psi = chain.initial.p.copy()
    h_prev = entropy(psi, q)
    for step in range(1, steps + 1):
        joint = psi[:, None] * r
        nxt = joint.sum(axis=0)
        nxt /= nxt.sum()
        h_next = entropy(nxt, q)
        delta = h_next - h_prev
        mask = joint > 0
        w = joint[mask]
        nxt_b = nxt[mask.nonzero()[1]]
        t_q, t_q_stmt = cross_term(w, nxt_b * m, np.array([w / (nxt_b * r[mask]), w * m]), q)
        lhs = delta * bracket
        rows.append(SecondLawRow(step, h_next, delta, t_q, lhs, lhs - t_q, t_q_stmt / bracket, deviation))
        psi, h_prev = nxt, h_next
    return rows


def test_second_law_matches_the_step_loop_bit_for_bit():
    rng = make_rng(9)
    cases = [(int(rng.integers(2, 7)), 50) for _ in range(20)] + [(64, 300)]  # m = 64 spans 19 blocks
    for m, steps in cases:
        r = random_doubly_stochastic(m, rng)
        for start in (rng.dirichlet(np.ones(m)), None):
            chain = MarkovChain(r, start)
            for q in (0.2, 0.5, 0.8):
                assert second_law_report(chain, steps, q) == _loop_second_law_report(chain, steps, q)


def test_second_law_with_zero_transitions_matches_the_step_loop():
    # zero cells pad the block's sums, which regroups them from 8 cells on
    rng = make_rng(10)
    fields = ("h_q", "delta_h", "t_q", "lhs", "slack", "t_q_statement")
    for _ in range(60):
        m = int(rng.integers(2, 9))
        r = rng.dirichlet(np.ones(m), size=m) * (rng.random((m, m)) < 0.5)
        r[np.arange(m), rng.integers(0, m, m)] += 0.1  # every row keeps some mass
        r /= r.sum(axis=1, keepdims=True)
        chain = MarkovChain(r, np.eye(m)[rng.integers(m)])
        q = float(rng.uniform(0.0, 1.0))
        got = second_law_report(chain, 30, q)
        want = _loop_second_law_report(chain, 30, q)
        assert [(g.step, g.ds_deviation, g.applicable) for g in got] == [
            (w.step, w.ds_deviation, is_doubly_stochastic(r)) for w in want
        ]
        for g, w in zip(got, want):
            for f in fields:
                assert getattr(g, f) == pytest.approx(getattr(w, f), rel=0, abs=1e-13)


def test_laws_match_the_sum_loop_bit_for_bit():
    rng = make_rng(13)
    for m in [*range(1, 13), 64]:
        dense = random_doubly_stochastic(m, rng)
        sparse = rng.dirichlet(np.ones(m), size=m) * (rng.random((m, m)) < 0.5)
        sparse[np.arange(m), rng.integers(0, m, m)] += 0.1  # every row keeps some mass
        sparse /= sparse.sum(axis=1, keepdims=True)
        # a pure start gives the joint zero rows; a column-major matrix sums its columns pairwise
        for r in (dense, sparse, np.asfortranarray(sparse)):
            for psi in (rng.dirichlet(np.ones(m)), np.eye(m)[rng.integers(m)]):
                for steps in (0, 1, 300):
                    assert markov._laws(psi, r, steps).tobytes() == loop_laws(psi, r, steps).tobytes()


def test_doubly_stochastic_sampler_matches_the_sum_loop_bit_for_bit():
    for m in range(1, 13):
        for seed in range(300):
            got = random_doubly_stochastic(m, make_rng(seed))
            assert got.tobytes() == loop_doubly_stochastic(m, make_rng(seed), markov.SINKHORN_ROUNDS).tobytes()


def test_doubly_stochastic_sampler_failure_matches_the_sum_loop(monkeypatch):
    monkeypatch.setattr(markov, "SINKHORN_ROUNDS", 2)
    for m in (2, 3, 6):
        for seed in range(20):
            with pytest.raises(ConvergenceError, match="in 2 rounds") as got:
                random_doubly_stochastic(m, make_rng(seed))
            with pytest.raises(ConvergenceError, match="in 2 rounds") as want:
                loop_doubly_stochastic(m, make_rng(seed), 2)
            assert got.value.last.tobytes() == want.value.last.tobytes()
            assert got.value.residuals == want.value.residuals


def test_second_law_lhs_is_the_drop_in_divergence_from_uniform():
    # D_q(psi || u) = ln_q m - m**(1-q) H_q(psi), so lhs = D_q(psi_(k-1) || u) - D_q(psi_k || u)
    rng = make_rng(2026)  # the first 50 chains of gate 4
    for _ in range(50):
        m = int(rng.integers(2, 7))
        r = random_doubly_stochastic(m, rng)
        chain = MarkovChain(r, rng.dirichlet(np.ones(m)).tolist())
        laws = markov._laws(chain.initial.p, r, 50)
        u = np.full(m, 1.0 / m)
        for q in (0.2, 0.5, 0.8):
            d = [relative_q_entropy(psi, u, q) for psi in laws]
            for row in second_law_report(chain, 50, q):
                assert row.lhs == pytest.approx(d[row.step - 1] - d[row.step], rel=0, abs=1e-13)


def test_second_law_memory_is_bounded_by_the_block():
    rng = make_rng(12)
    chain = MarkovChain(random_doubly_stochastic(64, rng), rng.dirichlet(np.ones(64)))
    tracemalloc.start()
    try:
        second_law_report(chain, 2000, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # the whole (2000, 64, 64) stack would be 62 MB per array


def _gate4_style_chains(n):
    """``n`` chains of gate 4's kind, each with a random and the uniform start."""
    rng = make_rng(21)
    chains = []
    for _ in range(n):
        m = int(rng.integers(2, 7))
        r = random_doubly_stochastic(m, rng)
        chains.append((MarkovChain(r, rng.dirichlet(np.ones(m)).tolist()), MarkovChain(r)))
    return chains


def test_second_law_q_sweep_matches_the_step_loop_cold_and_warm(monkeypatch):
    monkeypatch.setattr(markov, "_block_memo", {})
    chains = _gate4_style_chains(20)
    want = {}
    for warm in (False, True):
        for i, pair in enumerate(chains):
            for q in (0.2, 0.5, 0.8):
                for j, chain in enumerate(pair):  # random and uniform starts interleave
                    if not warm:
                        markov._block_memo.clear()
                    got = second_law_report(chain, 50, q)
                    key = (i, q, j)
                    if key not in want:
                        want[key] = _loop_second_law_report(chain, 50, q)
                    assert got == want[key]
    assert len(markov._block_memo) == markov._BLOCK_MEMO_CAP


def test_second_law_memo_shares_one_entry_between_row_and_column_major_copies(monkeypatch):
    # the chain stores a C-order copy, so the layout is no part of the key
    rng = make_rng(22)
    for m in (8, 13, 24, 31):
        r = random_doubly_stochastic(m, rng)
        start = rng.dirichlet(np.ones(m))
        chains = [MarkovChain(np.ascontiguousarray(r), start), MarkovChain(np.asfortranarray(r), start)]
        assert chains[1].transition.flags.c_contiguous
        cold = []
        for chain in chains:
            monkeypatch.setattr(markov, "_block_memo", {})
            cold.append(second_law_report(chain, 20, 0.5))
        assert cold[0] == cold[1]
        for order in ((0, 1), (1, 0)):
            monkeypatch.setattr(markov, "_block_memo", {})
            for i in order:
                assert second_law_report(chains[i], 20, 0.5) == cold[0]
            assert len(markov._block_memo) == 1


def test_second_law_memo_arrays_are_read_only(monkeypatch):
    monkeypatch.setattr(markov, "_block_memo", {})
    second_law_report(sticky_chain([1.0, 0.0]), 5, 0.5)
    (block,) = markov._block_memo.values()
    laws, w, a, b, dev = block
    assert dev == 0.0
    for arr in (laws, w, a, b):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0


def test_second_law_memo_holds_at_most_its_cap(monkeypatch):
    monkeypatch.setattr(markov, "_block_memo", {})
    rng = make_rng(23)
    for _ in range(1000):
        m = int(rng.integers(2, 5))
        second_law_report(MarkovChain(random_doubly_stochastic(m, rng)), 3, 0.5)
        assert len(markov._block_memo) <= markov._BLOCK_MEMO_CAP
    assert len(markov._block_memo) == markov._BLOCK_MEMO_CAP


def _count_laws(monkeypatch):
    calls = []
    laws = markov._laws

    def counted(*args):
        calls.append(args[2])
        return laws(*args)

    monkeypatch.setattr(markov, "_laws", counted)
    return calls


def test_second_law_q_sweep_steps_its_chain_once(monkeypatch):
    monkeypatch.setattr(markov, "_block_memo", {})
    calls = _count_laws(monkeypatch)
    rng = make_rng(24)
    chain = MarkovChain(random_doubly_stochastic(5, rng), rng.dirichlet(np.ones(5)))
    for q in (0.2, 0.5, 0.8):
        second_law_report(chain, 50, q)
    assert calls == [50]
    # another start or another length is another block
    second_law_report(MarkovChain(chain.transition), 50, 0.5)
    second_law_report(chain, 49, 0.5)
    assert calls == [50, 50, 49]


def test_second_law_multi_block_report_streams_past_the_memo(monkeypatch):
    rng = make_rng(12)
    chain = MarkovChain(random_doubly_stochastic(64, rng), rng.dirichlet(np.ones(64)))
    monkeypatch.setattr(markov, "_block_memo", {})
    calls = _count_laws(monkeypatch)
    for q in (0.2, 0.5):
        second_law_report(chain, 2000, q)
    block = markov._STEP_CELLS // 64**2
    assert calls == [block] * (2000 // block) * 2
    assert len(markov._block_memo) <= markov._BLOCK_MEMO_CAP
