"""Memory layout at the public boundary.

Every container stores a C-order copy of its input, so a Fortran copy, a
copy with permuted strides or a strided view of a table or a transition
gives the bits of its C-order copy in every public function.
"""

import dataclasses

import numpy as np
import pytest

from qit import (
    JointTable,
    MarkovChain,
    ProbVec,
    block_log_prob_q,
    conditional_mutual_q_information,
    entropy_rate_approximants,
    h_q_inf,
    h_q_k,
    identity_residual,
    is_doubly_stochastic,
    law_slack,
    markov,
    markov_k_block_log_prob_q,
    mutual_q_information,
    q_entropy_chain_terms,
    q_entropy_conditional,
    q_entropy_joint,
    random_doubly_stochastic,
    relative_q_entropy_conditional,
    sample_trajectory,
    second_law_report,
    smb_probe,
    stationary,
)
from qit.prob import conditional, make_rng, marginal

#: q values for every measure, and those inside [0, 1) for the laws and the second law.
QS = (0.0, 0.37, 0.5, 1.0, 1.3, 2.0)
QS_SUB1 = (0.0, 0.37, 0.5, 0.83)
#: Laws that take one table, by the ranks they take.
TABLE_LAWS = {"joint-chain": (2,), "cond-chain": (3,), "block-chain": (2, 3, 4), "dpi": (3,), "info-chain-rule": (3,)}


def _layouts(a):
    """``a`` as a C-order copy, a Fortran-order copy, a copy with its
    strides permuted (a transposed view at rank 2) and a strided view
    into a buffer twice as wide."""
    a = np.array(a, dtype=float)
    perm = np.roll(np.arange(a.ndim), 1)
    wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],))
    wide[..., ::2] = a
    out = [
        np.ascontiguousarray(a),
        np.asfortranarray(a),
        np.ascontiguousarray(a.transpose(perm)).transpose(np.argsort(perm)),
        wide[..., ::2],
    ]
    assert not any(x.flags.c_contiguous for x in out[1:])
    return out


def _bits(x):
    """``x`` with every float as its hex string and every array as its bytes."""
    if isinstance(x, ProbVec):
        x = x.p
    if isinstance(x, np.ndarray):
        return x.shape, x.dtype.str, np.ascontiguousarray(x).tobytes()
    if isinstance(x, float):
        return x.hex()
    if dataclasses.is_dataclass(x):
        x = dataclasses.asdict(x)
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    return x


def _same_bits(results):
    """Each layout's results have the bits of the C-order copy's."""
    want = _bits(results[0])
    for got in results[1:]:
        assert _bits(got) == want


def _tables(rank):
    """Seeded tables of one rank with a fifth of their cells zero."""
    rng = make_rng(30, rank)
    out = []
    for _ in range(10):
        shape = tuple(int(s) for s in rng.integers(2, (13, 8, 6)[rank - 2], size=rank))
        t = rng.standard_exponential(shape)
        t[rng.random(shape) < 0.2] = 0.0
        t.flat[0] += 1e-3  # some mass survives
        out.append(t / t.sum())
    return out


def _table_results(t, r):
    """Every public table function of the tables ``t`` and ``r`` (one shape)."""
    rank = t.ndim
    out = [
        [marginal(t, a) for a in range(rank)],
        [conditional(t, a) for a in range(rank)],
        conditional(t, tuple(range(rank - 1))),
        [JointTable(t).marginal(a) for a in range(rank)],
        [JointTable(t).marginal_array((a, rank - 1)) for a in range(rank - 1)],
    ]
    for q in QS:
        out += [
            q_entropy_joint(t, q),
            q_entropy_chain_terms(t, q),
            [q_entropy_conditional(t, a, q) for a in range(rank)],
            [relative_q_entropy_conditional(t, r, a, q) for a in range(rank)],
        ]
        if rank == 2:
            out.append(mutual_q_information(t, q))
        if rank == 3:
            out.append([conditional_mutual_q_information(t, q, a) for a in range(3)])
    for q in QS_SUB1:
        out.append([law_slack(law, t, q) for law, ranks in TABLE_LAWS.items() if rank in ranks])
        if rank == 2:
            out += [law_slack("rel-chain-rule", (t, r), q), identity_residual("rel-chain-rule", (t, r), q)]
        if rank == 3:
            out.append(identity_residual("info-chain-rule-n2", t, q))
    return out


@pytest.mark.parametrize("rank", (2, 3, 4))
def test_table_functions_take_the_bits_of_the_c_order_copy(rank):
    for t in _tables(rank):
        r = (t + np.full(t.shape, 1.0 / t.size)) / 2.0
        _same_bits([_table_results(*pair) for pair in zip(_layouts(t), _layouts(r))])


def _transitions():
    """Seeded transitions, m 2 to 29: doubly stochastic ones and ones with
    zero transitions, each with a seeded start."""
    rng = make_rng(31)
    out = []
    for m in (2, 3, 5, 8, 13, 21, 29):
        out.append((random_doubly_stochastic(m, rng), rng.dirichlet(np.ones(m))))
        r = rng.standard_exponential((m, m))
        r[rng.random((m, m)) < 0.3] = 0.0
        r[np.arange(m), rng.integers(m, size=m)] += 1e-3  # no row is all zero
        out.append((r / r.sum(axis=1, keepdims=True), rng.dirichlet(np.ones(m))))
    return out


def _chain_results(t, start):
    """Every public function of a transition ``t`` (bare and as a chain)."""
    chain = MarkovChain(t, start)
    symbols = sample_trajectory(chain, 300, make_rng(5))
    out = [
        chain.transition.flags.c_contiguous,
        chain.evolve(40),
        stationary(chain),
        stationary(t),
        is_doubly_stochastic(t),
        is_doubly_stochastic(chain),
        symbols,
    ]
    for q in QS_SUB1:
        markov._block_memo.clear()  # each layout steps its own chain
        out.append(second_law_report(chain, 30, q))
    for q in QS:
        out += [
            entropy_rate_approximants(chain, 12, q),
            [h_q_k(chain, k, q) for k in (0, 1, 2)],
            h_q_inf(chain, q),
            block_log_prob_q(chain, symbols, q),
            [markov_k_block_log_prob_q(chain, symbols, k, q) for k in (0, 1, 2)],
            [markov_k_block_log_prob_q(chain, symbols, k, q, empirical=True) for k in (0, 1, 2)],
        ]
    for k in (0, 1):
        out.append(smb_probe(chain, 0.75, 64, 4, seed=3, k=k))
    return out


def test_transition_functions_take_the_bits_of_the_c_order_copy(monkeypatch):
    monkeypatch.setattr(markov, "_block_memo", {})
    for t, start in _transitions():
        results = [_chain_results(x, start) for x in _layouts(t)]
        assert results[0][0] is True  # the chain stores a C-order copy
        _same_bits(results)
