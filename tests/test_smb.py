"""Trajectory surprisal probe: block q-logs, order-k approximants, flags."""

import hashlib
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from qit import (
    ImpossibleTrajectoryError,
    MarkovChain,
    SmbCurve,
    Trajectory,
    block_log_prob_q,
    entropy_rate_approximants,
    h_q_inf,
    h_q_k,
    markov_k_block_log_prob_q,
    sample_trajectory,
    smb,
    smb_probe,
    t3_residual,
)
from qit.markov import _STEP_CELLS, _laws, stationary
from qit.prob import make_rng
from qit.qcore import ln_q, ln_q_from_log

STICKY = MarkovChain([[0.9, 0.1], [0.1, 0.9]])
IID = MarkovChain([[0.5, 0.5], [0.5, 0.5]])
THREE = MarkovChain([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]])


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


def test_advance_top_draw_lands_on_the_last_state():
    rng = make_rng(41)
    top = np.nextafter(1.0, 0.0)
    for m in range(1, 9):
        rcum = smb._cum_rows(rng.dirichlet(np.ones(m), size=m))
        nxt = smb._advance(rcum, np.full(m, top))
        assert nxt.dtype == np.int64
        assert nxt.tolist() == [m - 1] * m


def _step_walk(rcum, state, u):
    """Reference: one inverse-CDF step per position, every column compared."""
    syms = np.empty((u.shape[0] + 1, state.size), dtype=np.int64)
    syms[0] = state
    for i in range(u.shape[0]):
        syms[i + 1] = (rcum[syms[i]] < u[i][:, None]).sum(axis=1)
    return syms


def _walk_chains(rng, m):
    """Transitions on m states for the walk: dense, sparse, dyadic, with
    leading zeros, banded, with identical rows, with inner columns
    clustered within 1e-12, and with a subnormal cumulative column."""
    dense = rng.dirichlet(np.ones(m), size=m)
    sparse = dense * (rng.random((m, m)) < 0.5)
    sparse[np.arange(m), rng.integers(0, m, m)] += 0.5  # every row keeps some mass
    # cumulative columns on multiples of 1/16: the guide's bucket edges
    dyadic = rng.multinomial(16, np.ones(m) / m, size=m) / 16.0
    # leading zero transitions put columns at 0
    lead = dense.copy()
    lead[:, : m // 2] = 0.0
    lead[np.arange(m), -1] += 0.1
    # a birth-death chain: row s has s - 1 leading zeros and trailing ones
    band = sum(np.eye(m, k=d) * rng.random((m, 1)) for d in (-1, 0, 1)) + np.eye(m) * 1e-3
    # an i.i.d. chain: every column ties with m - 1 others
    iid = np.tile(dense[0], (m, 1))
    # every row near the first: columns of a kind lie within 1e-12, so
    # they share a bucket at any guide size
    cluster = dense[0] * (1.0 + 1e-13 * rng.standard_normal((m, m)))
    # row 0 puts the least subnormal, 5e-324, among the columns
    tiny = dense.copy()
    if m > 1:
        tiny[0] = 0.0
        tiny[0, :2] = 5e-324, 1.0
    chains = {
        "dense": dense,
        "sparse": sparse,
        "dyadic": dyadic,
        "lead": lead,
        "band": band,
        "iid": iid,
        "cluster": cluster,
        "tiny": tiny,
    }
    return {name: x / x.sum(axis=1, keepdims=True) for name, x in chains.items()}


@pytest.mark.parametrize("m", [*range(1, 9), 17, 64])
def test_walk_matches_the_step_loop_bit_for_bit(m):
    rng = make_rng(43, m)
    for name, r in _walk_chains(rng, m).items():
        rcum = smb._cum_rows(MarkovChain(r).transition)
        table = smb._walk_table(rcum)
        if name == "cluster" and m > 1:  # the capped guide, and more than one pass
            assert table.guide.size == smb._GUIDE_CAP and table.passes > 1
        if name in ("lead", "band", "iid"):  # tied columns count once
            assert table.passes <= 2
        # the inner columns a uniform draw in [0, 1) can equal
        cols = rcum[:, :-1][rcum[:, :-1] < 1.0]
        for c in (1, smb._CHUNK):
            for big_t in (1, 7, 200) if m <= 8 else (1, 7):
                u = rng.random((c, big_t))
                # ties: draws exactly on a cumulative column must not pass it
                tie = rng.random((c, big_t)) < 0.3
                if cols.size:
                    u[tie] = rng.choice(cols, size=int(tie.sum()))
                # draws on the guide's bucket edges j / 2**p, p <= 14
                edge = rng.random((c, big_t)) < 0.2
                p = rng.integers(0, 15, int(edge.sum()))
                u[edge] = rng.integers(0, 2**p) / 2.0**p
                u[rng.random((c, big_t)) < 0.05] = np.nextafter(1.0, 0.0)
                if name == "tiny":  # draws on the subnormal column and below it
                    u[rng.random((c, big_t)) < 0.2] = 5e-324
                    u[rng.random((c, big_t)) < 0.1] = 0.0
                state = rng.integers(0, m, big_t)
                want = _step_walk(rcum, state, u)
                ws = smb._walk_space(big_t, c)
                ws.syms[0] = state
                got = smb._walk(table, np.ascontiguousarray(u.T), ws)
                assert np.array_equal(got, want)
                # the walk leaves each step's index into the table in kb
                assert np.array_equal(table[1][ws.kb], got[1:])
                assert np.array_equal(ws.kb % m, got[:-1])
                kb = ws.kb.copy()
                # as in the probe: the draws are columns w .. w + c of a
                # buffer of two chunks, so their rows are not contiguous, and
                # another buffer lends the walk its floats, in a workspace
                # wider than the chunk
                w = c + 3
                ubuf = np.full((big_t, 2 * w), np.nan)
                ubuf[:, w : w + c] = u.T
                ws = smb._walk_space(big_t, w, np.full((2, w, big_t), np.nan))
                ws.syms[0] = state
                assert np.array_equal(smb._walk(table, ubuf[:, w : w + c], ws), want)
                assert np.array_equal(ws.kb[:c], kb)


def test_sample_trajectory_memory_is_a_few_words_per_step():
    # the walk draws its uniforms chunk by chunk, so only the symbols grow
    # with the length
    n = 10**6
    tracemalloc.start()
    try:
        sample_trajectory(STICKY, n, make_rng(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * n


def test_probe_memory_is_under_64_bytes_per_chunk_cell():
    # a (position, trajectory) cell of a chunk holds 16 B of step terms,
    # gathered half a chunk at a time, which lend the walk its floats until
    # they are gathered; 16 B of draws, a buffer of two chunks; 8 B of step
    # indices and 8 B of states
    tracemalloc.start()
    try:
        smb_probe(STICKY, 0.75, 4096, 200, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 200 * smb._CHUNK


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


def _loop_block_log_prob_q(chain, symbols, q):
    """Reference: one factor at a time, in block order."""
    s = np.asarray(symbols)
    logp = float(np.log(chain.initial.p[s[0]]))
    for a, b in zip(s[:-1], s[1:]):
        logp += float(np.log(chain.transition[a, b]))
    with np.errstate(over="ignore"):  # q > 1: ln_q of a tiny p overflows to -inf
        return float(ln_q_from_log(logp, q))


def test_block_log_prob_matches_the_factor_loop_bit_for_bit():
    rng = make_rng(21)
    chains = [
        MarkovChain(STICKY.transition, stationary(STICKY)),
        MarkovChain(rng.dirichlet(np.ones(4), size=4), rng.dirichlet(np.ones(4))),
    ]
    for chain in chains:
        for length in (1, 2, 257, 5000):
            traj = sample_trajectory(chain, length, rng)
            for q in (0.3, 0.75, 1.0, 1.4):
                got = block_log_prob_q(chain, traj, q)
                assert got.hex() == _loop_block_log_prob_q(chain, traj.symbols, q).hex()


def test_block_log_prob_rejects_impossible_blocks():
    sure = MarkovChain(np.eye(2), [1.0, 0.0])
    with pytest.raises(ImpossibleTrajectoryError):
        block_log_prob_q(sure, [0, 1], 0.5)  # zero transition
    with pytest.raises(ImpossibleTrajectoryError):
        block_log_prob_q(sure, [1, 1], 0.5)  # zero initial weight
    with pytest.raises(ValueError):
        block_log_prob_q(STICKY, [0, 2], 0.5)  # alphabet mismatch
    with pytest.raises(ValueError, match="trajectory alphabet size 2 != chain size 3"):
        block_log_prob_q(THREE, Trajectory([0, 1], 2), 0.5)
    # the error names the first zero factor of the block
    no_repeats = MarkovChain([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    with pytest.raises(ImpossibleTrajectoryError, match="transition 1 -> 1"):
        block_log_prob_q(no_repeats, [0, 1, 1, 2, 2], 0.5)


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


def test_order_zero_steps_its_laws_in_blocks_with_the_bits_of_one_recursion():
    rng = make_rng(32)
    for m in (2, 7, 32):
        # slow mixing, so the laws still move in their last bits across blocks
        r = 0.99 * np.eye(m) + 0.01 * rng.dirichlet(np.ones(m), size=m)
        chain = MarkovChain(r, rng.dirichlet(np.ones(m)))
        block = _STEP_CELLS // m
        for n in (1, block - 1, block, block + 1, 2 * block + 1):
            s = rng.integers(0, m, n)
            f = _laws(chain.initial.p, r, n - 1)[np.arange(n), s]
            for q in (0.3, 1.0, 1.5):
                with np.errstate(over="ignore"):
                    want = float(ln_q_from_log(np.cumsum(np.log(f))[-1], q))
                assert markov_k_block_log_prob_q(chain, s, 0, q).hex() == want.hex()


def test_order_zero_memory_is_bounded_by_the_block():
    rng = make_rng(33)
    m, n = 32, 100_000
    chain = MarkovChain(rng.dirichlet(np.ones(m), size=m))
    s = Trajectory(rng.integers(0, m, n), m)
    tracemalloc.start()
    try:
        markov_k_block_log_prob_q(chain, s, 0, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the n laws at once would take 24.4 MiB; a block of them is 0.5 MiB, and
    # the factors, their logs and the running sum take 0.8 MiB each
    assert peak < 4 * 2**20


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


def _loop_empirical_log_prob_q(m, s, k, q):
    """Reference: plug-in k-gram frequencies from a dict of successor lists."""
    n = s.size
    if k == 0:
        freq = np.bincount(s, minlength=m) / n
        logp = 0.0
        for sym in s:
            logp += float(np.log(freq[sym]))
    else:
        nexts: dict = {}
        for i in range(n - k):
            nexts.setdefault(tuple(s[i : i + k]), []).append(s[i + k])
        grams = n - k + 1
        head = tuple(s[:k])
        head_count = sum(1 for i in range(grams) if tuple(s[i : i + k]) == head)
        logp = float(np.log(head_count / grams))
        for i in range(k, n):
            seen = nexts[tuple(s[i - k : i])]
            logp += float(np.log(seen.count(s[i]) / len(seen)))
    with np.errstate(over="ignore"):
        return float(ln_q_from_log(logp, q))


def test_empirical_matches_the_count_loop_bit_for_bit():
    rng = make_rng(31)
    for _ in range(300):
        m = int(rng.integers(2, 5))
        k = int(rng.integers(0, 4))
        n = int(rng.integers(k + 1, 401))
        q = float(rng.uniform(0.0, 1.5))
        chain = MarkovChain(rng.dirichlet(np.ones(m), size=m))
        # half the blocks are sampled walks, half arbitrary symbol strings
        s = sample_trajectory(chain, n, rng).symbols if rng.random() < 0.5 else rng.integers(0, m, n)
        got = markov_k_block_log_prob_q(chain, s, k, q, empirical=True)
        assert got.hex() == _loop_empirical_log_prob_q(m, s, k, q).hex()


def test_empirical_counts_long_blocks():
    s = sample_trajectory(THREE, 100_000, make_rng(5))
    start = time.perf_counter()
    got = markov_k_block_log_prob_q(THREE, s, 2, 1.0, empirical=True)
    assert time.perf_counter() - start < 10.0
    # the plug-in log-likelihood per symbol estimates minus the entropy rate
    assert got / 100_000 == pytest.approx(-h_q_k(THREE, 2, 1.0), rel=0.02)


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


def test_t3_residual_refuses_non_numeric_factors():
    for factors in ([object()], [0.5, {"a": 1}]):
        with pytest.raises(ValueError, match="^factors must be numeric"):
            t3_residual(factors, 0.5)


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
    # h_q_inf takes the chain and q only
    with pytest.raises(TypeError):
        h_q_inf(STICKY, 0.5, tol=1e-10)
    with pytest.raises(TypeError):
        h_q_inf(STICKY, 0.5, k_max=12)


@pytest.mark.parametrize("m", range(2, 9))
def test_h_q_inf_is_h_q_k_of_order_one(m):
    # the rate of an order-1 chain from its stationary law is H_q(X_2 | X_1)
    rng = make_rng(29, m)
    for _ in range(20):
        r = rng.dirichlet(np.full(m, 0.4), size=m)
        r[rng.random((m, m)) < 0.2] = 0.0
        r[np.arange(m), rng.integers(m, size=m)] += 1e-3  # no row is all zero
        chain = MarkovChain(r / r.sum(axis=1, keepdims=True))
        q = float(rng.uniform(0.0, 2.0))
        assert h_q_inf(chain, q).hex() == h_q_k(chain, 1, q).hex()
    # the probe reports the one rate in both of its columns at k = 1
    curve = smb_probe(_pin_chain(m), 1.2, 8, 3, seed=1)
    assert curve.h_q_inf.hex() == curve.h_q_k.hex() == h_q_k(_pin_chain(m), 1, 1.2).hex()


def test_h_q_k_past_the_block_cell_budget():
    # a block of k + 1 symbols has m ** (k + 1) cells (2 ** 26 here); the
    # order-1 chain needs only its state laws
    assert h_q_k(STICKY, 25, 0.5) == pytest.approx(h_q_k(STICKY, 1, 0.5), abs=1e-12)
    assert h_q_k(THREE, 14, 0.7) == pytest.approx(h_q_k(THREE, 1, 0.7), abs=1e-12)


def test_exact_block_rate_at_gate_6():
    # H_q(X^n) / n of the stationary sticky chain at gate 6's setting; the
    # probe measures 0.0961400 there, under the ceiling 1/((1-q) n) = 0.1
    chain = MarkovChain(STICKY.transition, stationary(STICKY))
    rate = entropy_rate_approximants(chain, 10_000, 0.999).block_rate
    assert rate == pytest.approx(0.0961188, rel=0, abs=5e-8)


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


def test_probe_reports_the_share_at_the_ceiling():
    # gate 6's case: every per-symbol value stays below the ceiling
    far = smb_probe(STICKY, 0.999, 10_000, 50, seed=7)
    assert [pt.at_ceiling for pt in far.points] == [0.0] * len(far.points)
    assert not far.flags["bound_saturated"]
    # long blocks at q = 0.6 round onto it
    near = smb_probe(STICKY, 0.6, 4096, 50, seed=11)
    assert 0.0 < near.points[-1].at_ceiling <= 1.0
    assert near.points[0].at_ceiling == 0.0
    assert near.flags["bound_saturated"]
    assert near.points[-1].to_json_dict()["at_ceiling"] == near.points[-1].at_ceiling
    # no ceiling from q = 1 on
    assert all(pt.at_ceiling == 0.0 for pt in smb_probe(STICKY, 1.2, 4096, 5, seed=11).points)


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


def test_stationary_law_of_three_is_exact():
    assert np.abs(stationary(THREE).p - np.array([25.0, 40.0, 34.0]) / 99.0).max() <= 1e-15


def test_probe_computes_the_stationary_law_once(monkeypatch):
    calls = []
    monkeypatch.setattr("qit.smb.stationary", lambda c: calls.append(c) or stationary(c))
    curve = smb_probe(STICKY, 0.75, 16, 5, seed=1)
    assert len(calls) == 1
    assert curve.h_q_k == h_q_k(STICKY, 1, 0.75)
    assert curve.h_q_inf == h_q_inf(STICKY, 0.75)


def test_probe_trajectories_replay_in_isolation(monkeypatch):
    walks = []

    def spy(*args):
        walks.append(smb_walk(*args).copy())
        return walks[-1]

    smb_walk = smb._walk
    monkeypatch.setattr(smb, "_walk", spy)
    smb_probe(THREE, 0.7, 600, 5, seed=201)
    # each chunk's row 0 repeats the last state of the chunk before
    probe = np.concatenate([walks[0]] + [w[1:] for w in walks[1:]])
    assert probe.shape == (601, 5)
    start = MarkovChain(THREE.transition, stationary(THREE))
    for t in range(5):
        alone = sample_trajectory(start, 601, make_rng(201, t)).symbols
        assert np.array_equal(probe[:, t], alone)


def _replayed_sums(chain, q, k, n_max, big_t, seed):
    """Per trajectory, the probe's running sums of the block log, the factor
    logs and the factor q-logs at each length, added one float at a time."""
    st, r = stationary(chain), chain.transition
    logr = np.log(r)
    loglaw = np.log(_laws(st.p, r, 1))  # the laws of positions 0 and 1
    qlogr, qloglaw = ln_q_from_log(logr, q), ln_q_from_log(loglaw, q)
    sums = []
    for t in range(big_t):
        x = sample_trajectory(MarkovChain(r, st), n_max + 1, make_rng(seed, t)).symbols.tolist()
        lb = fl = fq = -0.0
        row = []
        for i in range(1, n_max + 1):
            # the block's first factor is the marginal of position 1
            lb += float(loglaw[1, x[1]] if i == 1 else logr[x[i - 1], x[i]])
            if k == 0:  # the one-step law, the law of every position
                fl += float(loglaw[1, x[i]])
                fq += float(qloglaw[1, x[i]])
            elif i > k:  # the conditionals after the head block
                fl += float(logr[x[i - 1], x[i]])
                fq += float(qlogr[x[i - 1], x[i]])
            row.append((lb, fl, fq))
        sums.append(row)
    return sums


@pytest.mark.parametrize("q", [0.6, 1.0, 1.2])
@pytest.mark.parametrize("k", [0, 1, 2, 130])
def test_probe_sums_run_left_to_right(q, k):
    # the probe's running sums round as a left-to-right float loop over
    # positions would, for a lone trajectory and for a few, across half
    # chunks, chunks and the two-chunk blocks of draws; the lengths end on
    # or beside those edges, and k = 130's head block crosses the first
    # half edge
    for chain in (STICKY, THREE):
        for big_t in (1, 3):
            for n_max in (1, 127, 128, 129, 255, 257, 511, 512, 513, 1025):
                curve = smb_probe(chain, q, n_max, big_t, seed=29, k=k)
                sums = _replayed_sums(chain, q, k, n_max, big_t, 29)
                for pt in curve.points:
                    n = pt.n
                    lb, fl, fq = (np.array(v) for v in zip(*(row[n - 1] for row in sums)))
                    lk = fl if k == 0 else lb
                    t3 = ln_q_from_log(fl, q) - fq if n > k else np.zeros(big_t)
                    assert pt.block_mean == float((-ln_q_from_log(lb, q) / n).mean())
                    assert pt.pk_mean == float((-ln_q_from_log(lk, q) / n).mean())
                    assert pt.t3_over_n_mean == float(t3.mean() / n)


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


@pytest.mark.parametrize("seed,stream", [(0, 0), (7, 3), (201, 0), (201, 199)])
def test_generator_draws_split_into_chunks_give_one_stream(seed, stream):
    # the probe draws each trajectory's uniforms chunk by chunk; that is
    # the same stream as one draw of the whole length
    whole = make_rng(seed, stream).random(1512)
    g = make_rng(seed, stream)
    parts = np.concatenate([g.random(size) for size in (1, 255, 256, 1000)])
    assert parts.tobytes() == whole.tobytes()


# sha256 of the CSVs of smb_probe(chain, q, n_max, 7, seed=13, k=k) for chain
# in (STICKY, THREE) and n_max in (255, 256, 257, 515), concatenated in that
# order; the lengths straddle the probe's 256-position time chunks.  The
# values were printed by the probe that held whole (T, n_max) arrays.
PROBE_CSV_SHA256 = {
    (0.6, 0): "2498dcec7432ad8839e4e5fff34fbc5fac77acdcb40b705003bea10b533d376a",
    (0.6, 1): "d95b5d44d886a9f30737c71b7fffcee1cfd48a27726eecf86769cedf1c82edbe",
    (0.6, 2): "3115114f8c77906cdb2c8a089460f459284380475e1e44a31b8c3d41f12459ef",
    (0.75, 0): "1c5e7ecd169bcdde9fec77aa07c40ff28c31109dc8d3414427ace6f944592b12",
    (0.75, 1): "9efd2279f7268d159edd6c0df02725826a2d9f75ccd9a26a48363d24ef1c45a4",
    (0.75, 2): "6791c32cf346e01d0a12c0ee2a049f8a253b798bfe893a4502500c6d28a5c44f",
    (1.0, 0): "caad63b180a1752163ae0d09572a284f3e38ac5def00c5df2fb31673d70eddb5",
    (1.0, 1): "bee80593504e3786cbe93f1bccfa058c6e99dc421dabf2ba7f73e2045e894383",
    (1.0, 2): "bee80593504e3786cbe93f1bccfa058c6e99dc421dabf2ba7f73e2045e894383",
    (1.2, 0): "c37476388a17784ef4d9dc8745ae17cd5efcbe770b6a2bffcc8a8d3895446d97",
    (1.2, 1): "9310aa4b4ce2b6ed785ebc469aa409f21c567373a02c07d87f8e9a78f17fec24",
    (1.2, 2): "9fc8265de9c87a237e107b6c3d717890bf1d55dafb7d989561062697c5356842",
}


@pytest.mark.parametrize("q,k", sorted(PROBE_CSV_SHA256))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # k = 0, q > 1: exp and square overflow
def test_probe_csv_pins(q, k):
    h = hashlib.sha256()
    for chain in (STICKY, THREE):
        for n_max in (255, 256, 257, 515):
            h.update(smb_probe(chain, q, n_max, 7, seed=13, k=k).to_csv().encode())
    assert h.hexdigest() == PROBE_CSV_SHA256[(q, k)]


def test_probe_csv_pin_long_run():
    csv = smb_probe(STICKY, 0.75, 10_000, 100, seed=201).to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == (
        "16dc38b7c5183938331e4552b7e9003d5367be0bca3739454231eb6d40c213c4"
    )


def _pin_chain(m):
    """A fixed chain on m states with zero transitions, irreducible by its cycle."""
    i, j = np.indices((m, m))
    w = ((i * j + 2 * i + 3 * j) % (m + 2)).astype(float)
    w[np.arange(m), (np.arange(m) + 1) % m] += 1.0
    return MarkovChain(w / w.sum(axis=1, keepdims=True))


PIN_CHAINS = (STICKY, THREE, _pin_chain(4), _pin_chain(5), _pin_chain(6))


def _json_repr_sha256(ks):
    """sha256 of the reprs of the probes' JSON dicts over a grid, at the orders ``ks``.

    The CSV pins print 10 significant digits; the reprs of the JSON dicts
    print every bit.  The grid straddles the 256-position chunks, runs one,
    a few and many trajectories, and takes q on both sides of 1 and within
    SHANNON_TOL of it.
    """
    h = hashlib.sha256()
    for chain in PIN_CHAINS:
        for k in ks:
            for q in (0.3, 0.75, 1 - 1e-13, 1.0, 1.3):
                for n_max in (1, 255, 256, 257, 600):
                    for big_t in (1, 5, 200):
                        h.update(repr(smb_probe(chain, q, n_max, big_t, seed=17, k=k).to_json_dict()).encode())
    return h.hexdigest()


def test_probe_json_repr_pin():
    # pinned on the probe that allocated fresh arrays for every chunk
    assert _json_repr_sha256((1, 2)) == "0ad8d0ab7b30a51fc61a839815e8fccb429362afaca60ad6262a92159a5d2a98"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # k = 0, q > 1: exp and square overflow
def test_probe_json_repr_pin_order_zero():
    # pinned on the probe whose order-0 factors come from the one-step law
    # in its step table
    assert _json_repr_sha256((0,)) == "5ce95dd55c5107dc3d623bc38c5b78607adfbb0071986a8fa9534e758c1c4e08"


def test_order_zero_probe_evolves_the_laws_once(monkeypatch):
    # every block position has the one-step law of the stationary start,
    # so a probe over three chunks takes it once, not once per chunk
    calls = []
    laws = smb._laws
    monkeypatch.setattr(smb, "_laws", lambda *args: calls.append(args[2]) or laws(*args))
    smb_probe(THREE, 0.75, 600, 5, seed=3, k=0)
    assert calls == [1]


@pytest.mark.parametrize("chain", PIN_CHAINS[1:], ids=["three", "pin4", "pin5", "pin6"])
@pytest.mark.parametrize("q", [0.3, 0.75, 1.3])
def test_order_zero_block_of_one_is_its_own_approximation(chain, q):
    # a block of one symbol has one factor, the law of position 1, at every
    # order; the probe's order-0 factor is that same float, bit for bit, so
    # a table of the stationary law, a few ulps off it, fails here
    pt = smb_probe(chain, q, 1, 200, seed=5, k=0).points[0]
    assert pt.pk_mean == pt.block_mean
    assert pt.cond_c2_rate == 1.0
    assert pt.ratio2_mean == 1.0


def test_block_sd_is_finite_where_block_mean_is():
    # at q = 1.2 the per-symbol surprisals reach 1e293, so squaring them
    # overflows; the spread must not
    curve = smb_probe(STICKY, 1.2, 10_000, 100, seed=201)
    long = [pt for pt in curve.points if pt.n >= 8192]
    assert [pt.n for pt in long] == [8192, 10_000]
    for pt in long:
        assert 1e200 < pt.block_mean < math.inf
        assert 0.0 < pt.block_sd < math.inf
    # scaling by a power of two commutes with the spread exactly
    v = make_rng(0).random(50)
    with np.errstate(over="ignore"):
        assert (v * 2.0**1000).std() == math.inf
    assert smb._std(v * 2.0**1000) == v.std() * 2.0**1000
    assert smb._std(v) == v.std()


def test_probe_past_the_float_range_raises_no_warning():
    # the suite turns RuntimeWarnings into errors; at q > 1 on 64 states a
    # block's ln_q passes the float range, so block_mean is inf and
    # block_sd nan, and on a sparse chain k = 0's exp(lb - lk) overflows
    rng = make_rng(3)
    dense = rng.dirichlet(np.ones(64), size=64)
    sparse = rng.dirichlet(np.ones(64), size=64) * (rng.random((64, 64)) < 0.1)
    sparse[np.arange(64), rng.integers(0, 64, 64)] += 0.1  # every row keeps some mass
    sparse /= sparse.sum(axis=1, keepdims=True)
    last = smb_probe(MarkovChain(dense), 1.3, 700, 60, seed=1, k=0).points[-1]
    assert last.block_mean == math.inf and math.isnan(last.block_sd)
    last = smb_probe(MarkovChain(sparse), 1.3, 700, 60, seed=1, k=0).points[-1]
    assert math.isfinite(last.block_mean) and last.ratio2_mean == math.inf


class _RecordedDraws:
    """A generator stand-in that records the size of every draw."""

    def __init__(self, sizes, draw):
        self.sizes = sizes
        self.draw = draw

    def random(self, size=None, out=None):
        if out is None:
            self.sizes.append(size)
            return self.draw(size)
        self.sizes.append(out.size)
        out[...] = self.draw(out.size)
        return out


def test_probe_error_order(monkeypatch):
    sizes = []
    # every q-log lands above zero, so every surprisal escapes its ceiling
    monkeypatch.setattr("qit.smb.ln_q_from_log", lambda log_x, q: np.ones_like(log_x))
    # all-zero uniforms walk the flip chain into its zero transition 0 -> 0
    monkeypatch.setattr("qit.smb.make_rng", lambda seed, stream=0: _RecordedDraws(sizes, np.zeros))
    flip = MarkovChain([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ImpossibleTrajectoryError):
        smb_probe(flip, 0.75, 600, 3)
    # a possible walk reaches the ceiling check only after all its draws
    sizes.clear()
    monkeypatch.setattr(
        "qit.smb.make_rng", lambda seed, stream=0: _RecordedDraws(sizes, make_rng(seed, stream).random)
    )
    with pytest.raises(RuntimeError, match="ceiling"):
        smb_probe(STICKY, 0.75, 600, 3)
    assert sum(sizes) == 3 * 601


def test_probe_draws_two_chunks_per_generator_call(monkeypatch):
    # one call per trajectory draws its start state, then one every second
    # chunk draws that chunk and the next, on the same stream
    want = smb_probe(STICKY, 0.75, 4 * smb._CHUNK, 3, seed=5)
    sizes = []
    monkeypatch.setattr(
        "qit.smb.make_rng", lambda seed, stream=0: _RecordedDraws(sizes, make_rng(seed, stream).random)
    )
    got = smb_probe(STICKY, 0.75, 4 * smb._CHUNK, 3, seed=5)
    assert sorted(sizes) == [1] * 3 + [2 * smb._CHUNK] * 6
    assert repr(got.to_json_dict()) == repr(want.to_json_dict())


def test_probe_memory_does_not_grow_with_length():
    peaks = []
    for n_max in (20_000, 80_000):
        tracemalloc.start()
        try:
            smb_probe(STICKY, 0.75, n_max, 50, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]
    assert peaks[1] < 4 * 2**20


_NO_NUMPY_MA = """
import sys
from qit import MarkovChain, fuzz, markov_k_block_log_prob_q, sample_trajectory, second_law_report, smb_probe
from qit.maxent import MaxEntProblem, solve, verify_optimality
from qit.prob import make_rng
chain = MarkovChain([[0.9, 0.1], [0.2, 0.8]])
fuzz("dpi", 20, seed=1)
second_law_report(MarkovChain([[0.7, 0.3], [0.3, 0.7]], [0.9, 0.1]), 5, 0.5)
for k in (0, 1):
    smb_probe(chain, 0.75, 64, 4, seed=2, k=k)
verify_optimality(solve(MaxEntProblem([0.0, 1.0, 2.0], 0.05, 0.5)), 20, 3)  # drops level 2
symbols = sample_trajectory(chain, 40, make_rng(4)).symbols
for k in (0, 1, 2):
    markov_k_block_log_prob_q(chain, symbols, k, 0.5, empirical=True)
print("numpy.ma" in sys.modules)
"""


def test_the_package_work_never_imports_numpy_ma():
    # numpy.ma costs about 2 MB and 14 ms to import; np.setdiff1d pulled it
    # in once.  A fresh interpreter, since another test may have imported it
    src = os.path.dirname(os.path.dirname(smb.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _NO_NUMPY_MA], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"]
