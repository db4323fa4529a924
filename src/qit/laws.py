"""Inequality and identity verification for the deformed measures.

Every law is rewritten as a slack that must be nonnegative, so a single
predicate (``slack >= -tol``) decides a pass.  Identities are folded into
the same predicate by defining their slack as ``-|residual|`` and using the
tighter identity tolerance.  The sign conventions below follow from the
deformed product rule: for indices 0 <= q < 1 the logarithm of a product
of probabilities exceeds the sum of the logarithms (the cross terms are
nonnegative), hence joint entropies sit *below* the sum of their
conditional parts and each slack is the corresponding nonnegative
interaction term.

Law identifiers and their instance shapes:

=================  ==============================================  =========
law                instance                                        q range
=================  ==============================================  =========
joint-chain        rank-2 joint table                              [0, 1)
indep-superadd     pair of marginal distributions                  [0, 1)
cond-chain         rank-3 joint table (conditioning axis last)     [0, 1)
block-chain        rank-2..4 joint table                           [0, 1)
qln-sum            pair of nonnegative weight vectors              [0, 2]
dq-nonneg          pair of distributions of equal length           [0, 2]
max-bound          single distribution                             [0, 2]
dpi                rank-3 table whose middle axis separates        [0, 1)
info-chain-rule    rank-3 table, target variable on the last axis  [0, 1)
rel-chain-rule     pair of equal-shape rank-2 tables               [0, 1)
=================  ==============================================  =========

Instances are checked once, where they come in: ``law_slack`` and
``identity_residual`` apply the law's registry check (arity, rank, shape)
through the :mod:`qit.prob` containers.  Samplers and evaluators work on
bare arrays, so a fuzz campaign validates nothing it built itself.

Each law has one evaluator, which takes a ``(B, *shape)`` stack of
instances (a pair of stacks for pair laws) and a ``(B,)`` q array, and
handles zero cells.  The evaluators are built on the row-stack kernels of
:mod:`qit.measures`, which the public measures evaluate through as well.
``law_slack`` and ``identity_residual`` evaluate a stack of one row; each
row takes the same bits in a stack of any height.

``fuzz`` runs a seeded campaign of random instances for one law.  Every
trial draws from stream 0 of the master seed, in trial order (q first,
then the instance), so a report depends only on (law, trials, q-range,
seed, tol), and trial ``i`` is the ``i``-th draw from that stream.  q is
``lo + (hi - lo) * next_double(state)``, numpy's own formula for
``rng.uniform(lo, hi)``, with the same bits.  q and the integer draws
(axis lengths, a block-chain rank) come straight from the bit
generator's ``ctypes`` interface, without the Generator's per-call
wrapper or its lock (the campaign's generator is its own): an integer is
numpy's Lemire draw on ``next_uint32`` (``_axis``), which is
``rng.integers`` bit for bit, and ``next_double`` is ``rng.random()``.
Exponential draws next to each other in the stream may share one call,
since PCG64 gives the same numbers however such a run is split; an
integer draw is never moved across another draw, because PCG64 keeps the
spare half of a 64-bit output for the next 32-bit draw.

A trial's instance comes in two steps.  The law's raw draw (``draw``)
makes the draws above and leaves the unit exponentials as drawn, with the
finished instance's shapes as its key.  A chunk of draws is grouped by
that key, and each group is stacked and finished in one call
(``finish``): each row divided by its sum over all its cells, or for dpi
each factor row by its own sum and the factors multiplied
(``prob._markov_rows``); qln-sum keeps its weights as drawn.  Each row
takes the bits it takes finished alone, and ``LawSpec.sample`` is the
finish of a stack of one.  Then one evaluator call per group gives the
slacks, which are folded back in trial order.  So ``law_slack`` on the
report's ``worst_trial`` instance and ``worst_q`` gives its ``min_slack``
exactly.
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable

import numpy as np

from .measures import (
    _chain_terms_rows,
    _cmi_rows,
    _cond_entropy_rows,
    _divergence_rows,
    _entropy_rows,
    _mi_rows,
    _ratio,
    _rows,
)
from .prob import (
    JointTable,
    ProbVec,
    _conditional,
    _count,
    _csv_row,
    _flat_dirichlet_rows,
    _markov_factors,
    _markov_rows,
    make_rng,
)
from .qcore import _real, cross_term, ln_q_pos, pseudo_additivity_residual, q_value

#: Violation threshold for inequality laws.
TOL_INEQUALITY = 1e-9
#: Violation threshold for exact identities.
TOL_IDENTITY = 1e-10
#: Cells a fuzz campaign draws before it evaluates them; bounds its peak memory.
_FUZZ_CELLS = 1 << 15


class LawId(str, Enum):
    JOINT_CHAIN = "joint-chain"
    INDEP_SUPERADD = "indep-superadd"
    COND_CHAIN = "cond-chain"
    BLOCK_CHAIN = "block-chain"
    QLN_SUM = "qln-sum"
    DQ_NONNEG = "dq-nonneg"
    MAX_BOUND = "max-bound"
    DPI = "dpi"
    INFO_CHAIN_RULE = "info-chain-rule"
    REL_CHAIN_RULE = "rel-chain-rule"

    def __str__(self) -> str:  # keep CLI text clean
        return self.value


# ---------------------------------------------------------------------------
# evaluators, on (B, *shape) stacks of bare arrays with a (B,) q array
#
# One evaluator per law, built on the row-stack kernels of
# :mod:`qit.measures`, so each row takes the same bits in a stack of any
# height and a cell of zero weight adds an exact 0.


def _block_chain(t: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Sum of the chain terms H(X1) + H(X2|X1) + ... minus the joint entropy."""
    qc = q[:, None]
    return sum(_chain_terms_rows(t, qc)) - _entropy_rows(t, qc)


def _indep_superadd(pair, q: np.ndarray) -> np.ndarray:
    p, r = pair
    qc = q[:, None]
    return _entropy_rows(p, qc) + _entropy_rows(r, qc) - _entropy_rows(p[:, :, None] * r[:, None, :], qc)


def _cond_chain(t: np.ndarray, q: np.ndarray) -> np.ndarray:
    """H(X|Z) + H(Y|X,Z) - H(X,Y|Z) on tables (X, Y, Z)."""
    qc = q[:, None]
    return (
        _cond_entropy_rows(t.sum(axis=2), (1,), qc)
        + _cond_entropy_rows(t, (2,), qc)
        - _cond_entropy_rows(t, (1, 2), qc)
    )


def _qln_sum(pair, q: np.ndarray) -> np.ndarray:
    """sum r ln_q(r / s) - (sum r) ln_q(sum r / sum s) on free weights."""
    r, s = pair
    qc = q[:, None]
    rs = r.sum(axis=1, keepdims=True)
    lhs = _divergence_rows(r, r, s, qc)
    rhs = _divergence_rows(rs, rs, s.sum(axis=1, keepdims=True), qc)
    # rhs escapes to +inf only where every positive r meets s = 0, and lhs with it
    return lhs - np.where(np.isinf(lhs), 0.0, rhs)


def _dq_nonneg(pair, q: np.ndarray) -> np.ndarray:
    p, r = pair
    return _divergence_rows(p, p, r, q[:, None])


def _max_bound(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return -ln_q_pos(np.full(len(p), 1.0 / p.shape[1]), q) - _entropy_rows(p, q[:, None])


def _mi_chain_cross(t: np.ndarray, qc: np.ndarray) -> np.ndarray:
    """Cross term of I(X; Y,Z) = I(X; Z) + I(X; Y | Z) on tables (X, Y, Z):

    (1-q) * sum p ln_q[p(x,z)/(p(x)p(z))] ln_q[p(x,y|z)/(p(x|z)p(y|z))].
    """
    px = t.sum(axis=(2, 3))
    pz = t.sum(axis=(1, 2))
    pxz = t.sum(axis=2)
    pyz = t.sum(axis=1)
    a = _ratio(pxz[:, :, None, :], px[:, :, None, None] * pz[:, None, None, :], t, qc)[0]
    b = _ratio(t * pz[:, None, None, :], pxz[:, :, None, :] * pyz[:, None, :, :], t, qc)[0]
    return cross_term(_rows(t), a, b, qc)


def _dpi(t: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Deformed data-processing inequality on tables (X, Y, Z).

    Requires the middle axis to separate the outer two (as produced by
    ``random_markov_triple``); the slack then equals the conditional
    mutual information of X and Y given Z, which is nonnegative.
    """
    qc = q[:, None]
    return _mi_rows(t.sum(axis=3), qc) - _mi_rows(t.sum(axis=2), qc) - _mi_chain_cross(t, qc)


def _info_chain(t: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Mutual-information chain identity for two sources and one target.

    I(X1,X2; Y) = I(X1; Y) + I(X2; Y | X1)
                  + (1-q) * sum p ln_q(R1) ln_q(R2)

    with R1 = p(x1,y)/(p(x1)p(y)) and R2 = p(x2,y|x1)/(p(x2|x1)p(y|x1)).
    """
    qc = q[:, None]
    b, m1, m2, my = t.shape
    i_2_given_1 = _cmi_rows(np.moveaxis(t, 1, 3), qc)  # on the (X2, Y, X1) view
    i_joint = _mi_rows(t.reshape(b, m1 * m2, my), qc)
    # (Y, X2, X1) is the (X, Y, Z) layout of the dpi cross term
    return i_joint - _mi_rows(t.sum(axis=2), qc) - i_2_given_1 - _mi_chain_cross(t.transpose(0, 3, 2, 1), qc)


def _rel_chain(pair, q: np.ndarray) -> np.ndarray:
    """Chain identity for the divergence of two rank-2 tables.

    D(p(x,y) || r(x,y)) = D(p(x) || r(x)) + D(p(y|x) || r(y|x))
                          + (1-q) * sum p ln_q(pX/rX) ln_q(p(y|x)/r(y|x))

    Undefined (infinite) components propagate: the residual is +inf when
    absolute continuity fails.
    """
    p, r = pair
    qc = q[:, None]
    px = p.sum(axis=2)
    rx = r.sum(axis=2)
    p_cond = _conditional(p, (2,))
    r_cond = _conditional(r, (2,))
    lhs = _divergence_rows(p, p, r, qc)
    d_marg = _divergence_rows(px, px, rx, qc)
    d_cond = _divergence_rows(p, p_cond, r_cond, qc)
    ratio_x = _ratio(px[:, :, None], rx[:, :, None], p, qc)[0]
    cross = cross_term(_rows(p), ratio_x, _ratio(p_cond, r_cond, p, qc)[0], qc)
    ok = ~(np.isinf(lhs) | np.isinf(d_marg) | np.isinf(d_cond))
    residual = np.full(len(p), math.inf)
    residual[ok] = lhs[ok] - d_marg[ok] - d_cond[ok] - cross[ok]
    return residual


# ---------------------------------------------------------------------------
# law registry

@dataclass(frozen=True)
class _QRange:
    lo: float
    hi: float
    hi_closed: bool

    def contains(self, qv: float) -> bool:
        return self.lo <= qv and (qv <= self.hi if self.hi_closed else qv < self.hi)

    def describe(self) -> str:
        return f"[{self.lo:g}, {self.hi:g}{']' if self.hi_closed else ')'}"


_SUB1 = _QRange(0.0, 1.0, hi_closed=False)
_LE2 = _QRange(0.0, 2.0, hi_closed=True)


def _axis(rng, lo=2, hi=6):
    """An integer uniform on [lo, hi], ``int(rng.integers(lo, hi + 1))`` bit
    for bit, for ``n = hi - lo + 1 < 2**32``.

    This is numpy's own draw without the Generator's per-call wrapper:
    Lemire's method on the bit generator's ``next_uint32``, and no draw
    when ``n == 1``.
    """
    n = hi - lo + 1
    if n == 1:
        return lo
    c = rng.bit_generator.ctypes
    x = c.next_uint32(c.state) * n
    threshold = (0x100000000 - n) % n
    while x & 0xFFFFFFFF < threshold:
        x = c.next_uint32(c.state) * n
    return lo + (x >> 32)


# raw draws: rng -> (the instance's arrays of unit exponentials, the
# finished instance's shapes), which are its group key and its cells


def _draw_rank2(rng):
    shape = (_axis(rng), _axis(rng))
    return (rng.standard_exponential(shape),), (shape,)


def _draw_pair_dists(rng):
    p = rng.standard_exponential(_axis(rng))
    r = rng.standard_exponential(_axis(rng))
    return (p, r), (p.shape, r.shape)


def _draw_rank3(rng):
    shape = (_axis(rng, 2, 4), _axis(rng, 2, 4), _axis(rng, 2, 4))
    return (rng.standard_exponential(shape),), (shape,)


def _draw_block(rng):
    rank = _axis(rng, 2, 4)
    hi = 6 if rank == 2 else 3
    shape = tuple([_axis(rng, 2, hi) for _ in range(rank)])
    return (rng.standard_exponential(shape),), (shape,)


def _draw_pair(rng, hi):
    """Two arrays of one length in [2, hi] from one exponential call."""
    n = _axis(rng, 2, hi)
    e = rng.standard_exponential((2, n))
    return (e[0], e[1]), ((n,), (n,))


def _draw_dist(rng):
    e = rng.standard_exponential(_axis(rng, 2, 8))
    return (e,), (e.shape,)


def _draw_markov(rng):
    shape = (_axis(rng, 2, 4), _axis(rng, 2, 4), _axis(rng, 2, 4))
    return _markov_factors(shape, rng), (shape,)


def _draw_rel_pair(rng):
    # two calls, so each array owns its cells: one (2, ...) call would hold
    # a third array per instance, and this law's fuzz chunks already come
    # close to a campaign's peak memory
    shape = (_axis(rng, 2, 4), _axis(rng, 2, 4))
    return (rng.standard_exponential(shape), rng.standard_exponential(shape)), (shape, shape)


# stack finishes: the tuple of a group's stacked raw arrays -> the tuple of
# its instance stacks, one per array of the instance


def _normalized(stacks):
    return tuple([_flat_dirichlet_rows(s) for s in stacks])


def _markov(stacks):
    return (_markov_rows(*stacks),)


def _as_drawn(stacks):
    return stacks


@dataclass(frozen=True)
class LawSpec:
    law: LawId
    q_range: _QRange
    identity: bool
    arity: int  # an instance is one array, or a pair
    ranks: tuple  # accepted ranks: 1 is a distribution, 2 to 4 a joint table
    draw: Callable  # rng -> (raw arrays, finished shapes)
    finish: Callable  # tuple of raw (B, ...) stacks -> tuple of instance stacks
    # (stack or pair of stacks, (B,) q) -> (B,) slacks for inequalities, signed residuals for identities
    evaluate: Callable
    matched: bool = False  # the pair shares one shape
    normalized: bool = True  # False: rank-1 arrays are free nonnegative weights

    def sample(self, rng):
        """One finished instance of bare arrays: the finish of a stack of one draw."""
        arrays = self.finish(tuple([a[None] for a in self.draw(rng)[0]]))
        return arrays[0][0] if self.arity == 1 else tuple([a[0] for a in arrays])


_REGISTRY: dict[LawId, LawSpec] = {
    spec.law: spec
    for spec in [
        LawSpec(LawId.JOINT_CHAIN, _SUB1, False, 1, (2,), _draw_rank2, _normalized, _block_chain),
        LawSpec(LawId.INDEP_SUPERADD, _SUB1, False, 2, (1,), _draw_pair_dists, _normalized, _indep_superadd),
        LawSpec(LawId.COND_CHAIN, _SUB1, False, 1, (3,), _draw_rank3, _normalized, _cond_chain),
        LawSpec(LawId.BLOCK_CHAIN, _SUB1, False, 1, (2, 3, 4), _draw_block, _normalized, _block_chain),
        LawSpec(
            LawId.QLN_SUM, _LE2, False, 2, (1,), partial(_draw_pair, hi=8), _as_drawn, _qln_sum,
            matched=True, normalized=False,
        ),
        LawSpec(
            LawId.DQ_NONNEG, _LE2, False, 2, (1,), partial(_draw_pair, hi=6), _normalized, _dq_nonneg, matched=True
        ),
        LawSpec(LawId.MAX_BOUND, _LE2, False, 1, (1,), _draw_dist, _normalized, _max_bound),
        LawSpec(LawId.DPI, _SUB1, False, 1, (3,), _draw_markov, _markov, _dpi),
        LawSpec(LawId.INFO_CHAIN_RULE, _SUB1, True, 1, (3,), _draw_rank3, _normalized, _info_chain),
        LawSpec(LawId.REL_CHAIN_RULE, _SUB1, True, 2, (2,), _draw_rel_pair, _normalized, _rel_chain, matched=True),
    ]
}


def _value(spec: LawSpec, instance, qv: float) -> float:
    """``spec.evaluate`` of an outside instance, after the law's instance
    check, as a stack of one row, as a fuzz campaign evaluates it."""
    parts = (instance,) if spec.arity == 1 else tuple(instance)
    if len(parts) != spec.arity:
        raise ValueError(f"{spec.law} expects a pair of arrays")
    arrays = []
    for x in parts:
        arr = x.p if isinstance(x, ProbVec) else x.t if isinstance(x, JointTable) else np.asarray(x, dtype=float)
        if arr.ndim not in spec.ranks:
            raise ValueError(f"{spec.law} expects arrays of rank {spec.ranks}, got rank {arr.ndim}")
        if spec.normalized:
            arr = ProbVec.coerce(x).p if arr.ndim == 1 else JointTable.coerce(x).t
        elif arr.size == 0 or not np.isfinite(arr).all() or (arr < 0).any():
            raise ValueError(f"{spec.law} weights must be non-empty, finite and nonnegative")
        arrays.append(arr)
    if spec.matched and arrays[0].shape != arrays[1].shape:
        raise ValueError(f"{spec.law} expects two arrays of one shape")
    return _grouped_values(spec, [qv], [tuple(arrays)], [tuple(a.shape for a in arrays)])[0]


def identity_residual(identity: str, instance, q) -> float:
    """|LHS - RHS| of an exact identity.

    ``identity`` is one of ``pseudo-add`` (instance: pair of positive
    reals), ``info-chain-rule-n2`` (rank-3 table), or ``rel-chain-rule``
    (pair of rank-2 tables).
    """
    qv = q_value(q)
    if identity == "pseudo-add":
        x, y = instance
        return abs(float(pseudo_additivity_residual(x, y, qv)))
    law = {"info-chain-rule-n2": LawId.INFO_CHAIN_RULE, "rel-chain-rule": LawId.REL_CHAIN_RULE}.get(identity)
    if law is None:
        raise ValueError(f"unknown identity {identity!r}")
    return abs(_value(_REGISTRY[law], instance, qv))


def law_slack(law, instance, q) -> float:
    """Slack of one law on one instance; the law asserts slack >= 0.

    For identity laws the slack is ``-|residual|`` so the same
    nonnegativity predicate applies (at the identity tolerance).
    Raises ``ValueError`` when q lies outside the law's documented range
    or the instance fails the law's check: arity, rank, shape, and
    normalized nonnegative mass (nonnegative weights for ``qln-sum``).
    """
    lid = LawId(law)
    spec = _REGISTRY[lid]
    qv = q_value(q)
    if not spec.q_range.contains(qv):
        raise ValueError(
            f"law {lid.value} is only asserted for q in {spec.q_range.describe()}, got {qv:g}"
        )
    value = _value(spec, instance, qv)
    return -abs(value) if spec.identity else value


# ---------------------------------------------------------------------------
# fuzz campaigns

@dataclass(frozen=True)
class SlackReport:
    """Summary of one seeded fuzz campaign."""

    law: str
    trials: int
    min_slack: float
    mean_slack: float
    violations: int
    seed: int
    tol: float
    identity: bool
    q_lo: float
    q_hi: float
    q_mean: float
    worst_trial: int | None  # trial of the minimum slack; None if no slack is below +inf
    worst_q: float | None
    worst_shape: tuple | None  # shape of each array of that trial's instance

    CSV_HEADER = "law,trials,min_slack,mean_slack,violations,seed"

    def passed(self) -> bool:
        return self.violations == 0

    def to_csv_row(self) -> str:
        return _csv_row((self.law, self.trials, self.min_slack, self.mean_slack, self.violations, self.seed))

    def to_json_dict(self) -> dict:
        return {
            "law": self.law,
            "trials": self.trials,
            "min_slack": self.min_slack,
            "mean_slack": self.mean_slack,
            "violations": self.violations,
            "seed": self.seed,
            "tol": self.tol,
            "identity": self.identity,
            "q_range": [self.q_lo, self.q_hi],
            "q_mean": self.q_mean,
            "worst_trial": self.worst_trial,
            "worst_q": self.worst_q,
            "worst_shape": None if self.worst_shape is None else [list(shape) for shape in self.worst_shape],
        }


def fuzz(law, trials: int, q_range=None, seed: int = 0, *, tol=None) -> SlackReport:
    """Run a seeded random campaign for one law.

    Parameters
    ----------
    law : LawId or str
    trials : int
        Number of random instances (>= 1), of any integer type; a bool
        raises ValueError and a float TypeError (``prob._count``).
    q_range : (float, float), optional
        Sampling interval for q, a pair of real numbers under the type rule
        of the entropic index (a bool raises ValueError, a str or bytes
        TypeError); an infinite bound is no bound.  It is intersected with
        the law's validity range and must leave a non-empty interval.
        Defaults to the law's full range.  q is drawn uniformly from [lo, hi) as
        ``lo + (hi - lo) * next_double(state)``, with the bit generator's
        ``next_double``, which is ``rng.uniform(lo, hi)`` bit for bit.
    seed : int
        Master seed (>= 0, the same integer rule).  All trials draw from ``make_rng(seed)`` (stream 0) in
        trial order: each trial draws its q (unless the range is a single
        point), then its instance through the law's sampler.
    tol : float, optional
        Violation threshold, finite, under the same type rule; defaults to
        1e-9 for inequalities and 1e-10 for identities.
    """
    lid = LawId(law)
    spec = _REGISTRY[lid]
    trials = _count(trials, "trials")
    seed = _count(seed, "seed", 0)
    if tol is None:
        tol = TOL_IDENTITY if spec.identity else TOL_INEQUALITY
    tol = _real(tol, "tol")
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol!r}")

    if q_range is None:
        lo, hi = spec.q_range.lo, spec.q_range.hi
    else:
        try:
            lo, hi = q_range
        except (TypeError, ValueError):
            raise ValueError(f"q_range must be a pair (lo, hi), got {q_range!r}") from None
        lo, hi = _real(lo, "q-range bound"), _real(hi, "q-range bound")
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError(f"q-range bounds must be numbers, got {lo!r} and {hi!r}")
    lo = max(lo, spec.q_range.lo)
    hi = min(hi, spec.q_range.hi)
    if lo > hi or (lo == hi and not spec.q_range.contains(lo)):
        raise ValueError(
            f"q-range empty after intersecting with {spec.q_range.describe()} for {lid.value}"
        )

    rng = make_rng(seed)
    # q is rng.random() bit for bit, without the Generator's call and lock;
    # the campaign's generator is its own
    c = rng.bit_generator.ctypes
    next_double, state = c.next_double, c.state
    min_slack = math.inf
    total = 0.0
    violations = 0
    q_total = 0.0
    worst = (None, None, None)
    done = 0
    draw = spec.draw
    while done < trials:
        qs, raws, shapes, cells = [], [], [], 0
        while done + len(qs) < trials and cells < _FUZZ_CELLS:
            qs.append(lo if lo == hi else lo + (hi - lo) * next_double(state))
            raw, shape = draw(rng)
            raws.append(raw)
            shapes.append(shape)
            cells += sum(map(math.prod, shape))
        for i, value in enumerate(_grouped_values(spec, qs, raws, shapes, spec.finish)):
            slack = -abs(value) if spec.identity else value
            if slack < min_slack:
                min_slack = slack
                worst = (done + i, qs[i], shapes[i])
            total += slack
            if slack < -tol:
                violations += 1
            q_total += qs[i]
        done += len(qs)
    return SlackReport(
        law=lid.value,
        trials=trials,
        min_slack=float(min_slack),
        mean_slack=float(total / trials),
        violations=violations,
        seed=seed,
        tol=tol,
        identity=spec.identity,
        q_lo=lo,
        q_hi=hi,
        q_mean=q_total / trials,
        worst_trial=worst[0],
        worst_q=worst[1],
        worst_shape=worst[2],
    )


def _grouped_values(spec: LawSpec, qs: list, parts: list, shapes: list, finish=_as_drawn) -> list:
    """``spec.evaluate`` of each q and instance (a tuple of its arrays), in
    order, evaluated by one call per instance shape (``shapes[i]``, the
    tuple of the shapes of the finished ``parts[i]``).  Each group's
    stacked arrays go through ``finish`` first: a campaign's raw draws
    through ``spec.finish``."""
    groups = {}
    for i, key in enumerate(shapes):
        groups.setdefault(key, []).append(i)
    values = [0.0] * len(parts)
    for idx in groups.values():
        stacks = finish(tuple([np.stack(column) for column in zip(*(parts[i] for i in idx))]))
        batch = stacks[0] if spec.arity == 1 else stacks
        out = spec.evaluate(batch, np.array([qs[i] for i in idx])).tolist()
        for i, value in zip(idx, out):
            values[i] = value
    return values


def all_laws() -> list[LawId]:
    return list(_REGISTRY)
