"""One integer rule for every public count, order, length, seed, stream and
table axis, and one rule for the entropic index q and fuzz's float arguments."""

import math
import re

import numpy as np
import pytest

from qit.laws import fuzz
from qit.markov import (
    MarkovChain,
    entropy_rate_approximants,
    random_doubly_stochastic,
    second_law_report,
)
from qit.maxent import MaxEntProblem, solve, verify_optimality
from qit.measures import (
    conditional_mutual_q_information,
    q_entropy,
    q_entropy_conditional,
    q_entropy_max,
    relative_q_entropy_conditional,
)
from qit.prob import (
    JointTable,
    ProbVec,
    conditional,
    make_rng,
    marginal,
    random_dist,
    random_joint,
    random_markov_triple,
)
from qit.qcore import QParam, ln_q
from qit.smb import (
    Trajectory,
    h_q_k,
    markov_k_block_log_prob_q,
    sample_trajectory,
    smb_probe,
)

STICKY = MarkovChain([[0.9, 0.1], [0.2, 0.8]])
DOUBLY = MarkovChain([[0.7, 0.3], [0.3, 0.7]], [0.9, 0.1])
SOLUTION = solve(MaxEntProblem([0.0, 1.0, 2.0], 0.5, 0.5))
J3 = random_joint((2, 3, 2), make_rng(4))
R3 = random_joint((2, 3, 2), make_rng(5))

# (argument, call with the axis argument of the rank-3 table set to v, its name in messages)
AXIS_ARGUMENTS = [
    ("JointTable.marginal axis", lambda v: J3.marginal(v), "axis"),
    ("JointTable.marginal_array keep_axes", lambda v: J3.marginal_array(v), "axis"),
    ("JointTable.conditional given_axes", lambda v: J3.conditional(v), "given_axes"),
    ("prob.marginal axis", lambda v: marginal(J3, v), "axis"),
    ("prob.conditional given_axes", lambda v: conditional(J3, v), "given_axes"),
    ("q_entropy_conditional given_axes", lambda v: q_entropy_conditional(J3, v, 0.5), "given_axes"),
    (
        "relative_q_entropy_conditional given_axes",
        lambda v: relative_q_entropy_conditional(J3, R3, v, 0.5),
        "given_axes",
    ),
    (
        "conditional_mutual_q_information given_axis",
        lambda v: conditional_mutual_q_information(J3, 0.5, given_axis=v),
        "given_axis",
    ),
]

# (argument, call with the argument set to v, least value, message below it, a valid value)
INTEGER_ARGUMENTS = [
    ("fuzz trials", lambda v: fuzz("dpi", v, seed=3), 1, "trials must be >= 1", 3),
    ("fuzz seed", lambda v: fuzz("dpi", 3, seed=v), 0, "seed must be >= 0", 5),
    ("verify_optimality trials", lambda v: verify_optimality(SOLUTION, v), 1, "trials must be >= 1", 7),
    ("verify_optimality seed", lambda v: verify_optimality(SOLUTION, 7, v), 0, "seed must be >= 0", 5),
    ("MarkovChain.evolve steps", lambda v: STICKY.evolve(v), 0, "steps must be >= 0", 3),
    ("random_doubly_stochastic m", lambda v: random_doubly_stochastic(v, make_rng(1)), 1, "m must be >= 1", 3),
    ("random_dist m", lambda v: random_dist(v, make_rng(1)), 1, "m must be >= 1", 3),
    ("q_entropy_max m", lambda v: q_entropy_max(v, 0.5), 1, "m must be >= 1", 3),
    (
        "entropy_rate_approximants n",
        lambda v: entropy_rate_approximants(STICKY, v, 0.5),
        1,
        "block length must be >= 1",
        4,
    ),
    ("second_law_report steps", lambda v: second_law_report(DOUBLY, v, 0.5), 1, "steps must be >= 1", 3),
    ("make_rng seed", lambda v: make_rng(v), 0, "seed must be >= 0", 5),
    ("make_rng stream", lambda v: make_rng(5, v), 0, "stream must be >= 0", 2),
    (
        "random_markov_triple axis",
        lambda v: random_markov_triple((2, v, 2), make_rng(1)),
        1,
        "need three axes (x, y, z) of at least one outcome each",
        3,
    ),
    ("Trajectory m", lambda v: Trajectory([0, 1, 0], v), 1, "m must be >= 1", 2),
    ("sample_trajectory length", lambda v: sample_trajectory(STICKY, v, make_rng(2)), 1, "length must be >= 1", 9),
    (
        "markov_k_block_log_prob_q k",
        lambda v: markov_k_block_log_prob_q(STICKY, [0, 0, 1, 1, 0], v, 0.5, empirical=True),
        0,
        "order k must be >= 0",
        1,
    ),
    ("h_q_k k", lambda v: h_q_k(STICKY, v, 0.5), 0, "order k must be >= 0", 2),
    ("smb_probe n_max", lambda v: smb_probe(STICKY, 0.75, v, 3, seed=1), 1, "n_max must be >= 1", 8),
    ("smb_probe trajectories", lambda v: smb_probe(STICKY, 0.75, 8, v, seed=1), 1, "trajectories must be >= 1", 3),
    ("smb_probe k", lambda v: smb_probe(STICKY, 0.75, 8, 3, seed=1, k=v), 0, "order k must be >= 0", 2),
    ("smb_probe seed", lambda v: smb_probe(STICKY, 0.75, 8, 3, seed=v), 0, "seed must be >= 0", 5),
    (
        "random_joint axis length",
        lambda v: random_joint((2, v), make_rng(1)),
        1,
        "random_joint axis length must be >= 1",
        3,
    ),
] + [(name, call, 0, f"{what} must be >= 0", 1) for name, call, what in AXIS_ARGUMENTS]


def _bits(x):
    """A result as comparable bits: arrays by their bytes, generators by
    their next draws, the rest by repr (which tells an np.int64 field from
    a Python int)."""
    if isinstance(x, np.random.Generator):
        return x.random(4).tobytes()
    if isinstance(x, np.ndarray):
        return x.tobytes()
    if isinstance(x, ProbVec):
        return x.p.tobytes()
    if isinstance(x, JointTable):
        return x.t.tobytes()
    if isinstance(x, Trajectory):
        return x.symbols.tobytes(), repr(x.m)
    return repr(x)


@pytest.mark.parametrize(
    "call, least, message, good",
    [case[1:] for case in INTEGER_ARGUMENTS],
    ids=[case[0] for case in INTEGER_ARGUMENTS],
)
def test_public_integer_arguments_follow_one_rule(call, least, message, good):
    with pytest.raises(ValueError, match="integer"):
        call(True)
    with pytest.raises(TypeError):
        call(2.5)
    with pytest.raises(ValueError, match=re.escape(message)):
        call(least - 1)
    assert _bits(call(np.int64(good))) == _bits(call(good))


def test_seeds_and_axes_are_never_truncated():
    with pytest.raises(TypeError):
        fuzz("dpi", 3, seed=1.9)
    with pytest.raises(TypeError):
        make_rng(1.9)
    with pytest.raises(TypeError):
        random_markov_triple((2.7, 2, 2), make_rng(1))
    with pytest.raises(TypeError):
        q_entropy_max(3.0, 0.5)  # an integral float is not an integer either


@pytest.mark.parametrize(
    "call, what", [case[1:] for case in AXIS_ARGUMENTS], ids=[case[0] for case in AXIS_ARGUMENTS]
)
def test_axes_lie_below_the_rank_and_come_as_an_int_or_a_sequence(call, what):
    with pytest.raises(ValueError, match=re.escape(f"{what} 3 invalid for rank 3")):
        call(3)
    with pytest.raises(ValueError, match=re.escape(f"{what} () invalid for rank 3")):
        call(())
    assert _bits(call((np.int64(1),))) == _bits(call(1))


def test_a_tuple_of_numpy_axes_gives_the_bits_of_plain_ints():
    pair = (np.int64(0), np.int64(2))
    assert _bits(J3.marginal_array(pair)) == _bits(J3.marginal_array((0, 2)))
    assert _bits(J3.conditional(pair)) == _bits(J3.conditional((0, 2)))
    assert _bits(q_entropy_conditional(J3, pair, 0.5)) == _bits(q_entropy_conditional(J3, (0, 2), 0.5))
    with pytest.raises(ValueError, match=re.escape("axis (0, 7) invalid for rank 3")):
        J3.marginal_array((0, 7))


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda v: J3.marginal(v), "axis"),
        (lambda v: conditional_mutual_q_information(J3, 0.5, given_axis=v), "given_axis"),
    ],
    ids=["JointTable.marginal", "conditional_mutual_q_information"],
)
def test_a_one_axis_argument_takes_no_second_axis(call, what):
    with pytest.raises(ValueError, match=re.escape(f"{what} (0, 1) invalid for rank 3")):
        call((0, 1))
    assert _bits(call([2])) == _bits(call(2))


@pytest.mark.parametrize(
    "call",
    [lambda q: q_entropy([0.25, 0.75], q), lambda q: ln_q(0.3, q), lambda q: QParam(q).q],
    ids=["q_entropy", "ln_q", "QParam"],
)
def test_the_entropic_index_is_a_real_number(call):
    for flag in (True, np.True_):
        with pytest.raises(ValueError, match="entropic index"):
            call(flag)
    for text in ("0.5", b"0.5"):
        with pytest.raises(TypeError, match="entropic index"):
            call(text)
    assert _bits(call(np.float64(0.5))) == _bits(call(0.5))


# (argument, fuzz with that float argument set to v)
FUZZ_FLOAT_ARGUMENTS = [
    ("fuzz q-range low", lambda v: fuzz("joint-chain", 3, (v, 0.5), seed=2)),
    ("fuzz q-range high", lambda v: fuzz("joint-chain", 3, (0.1, v), seed=2)),
    ("fuzz tol", lambda v: fuzz("joint-chain", 3, seed=2, tol=v)),
]


@pytest.mark.parametrize(
    "call", [case[1] for case in FUZZ_FLOAT_ARGUMENTS], ids=[case[0] for case in FUZZ_FLOAT_ARGUMENTS]
)
def test_fuzz_float_arguments_take_the_rule_of_q(call):
    for flag in (True, False, np.True_):
        with pytest.raises(ValueError, match="real number"):
            call(flag)
    for text in ("0.3", b"0.3"):
        with pytest.raises(TypeError, match="real number"):
            call(text)
    assert _bits(call(np.float64(0.3))) == _bits(call(0.3))


def test_fuzz_q_range_is_a_pair():
    for q_range in (0.5, np.float64(0.5), (0.1,), (0.1, 0.2, 0.3)):
        with pytest.raises(ValueError, match=re.escape(f"q_range must be a pair (lo, hi), got {q_range!r}")):
            fuzz("joint-chain", 3, q_range)
    # an infinite bound is no bound, and a NaN bound keeps its own message
    assert fuzz("joint-chain", 3, (-math.inf, math.inf), seed=2) == fuzz("joint-chain", 3, seed=2)
    with pytest.raises(ValueError, match="q-range bounds must be numbers"):
        fuzz("joint-chain", 3, (math.nan, 0.5))
