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
handles zero cells.  ``law_slack`` and ``identity_residual`` evaluate a
stack of one row; each row takes the same bits in a stack of any height.

``fuzz`` runs a seeded campaign of random instances for one law.  Every
trial draws from stream 0 of the master seed, in trial order (q first,
then the instance), so a report depends only on (law, trials, q-range,
seed, tol), and trial ``i`` is the ``i``-th draw from that stream.  The
draws stay in that order; the evaluation is grouped by instance shape,
one evaluator call per stack of a chunk of draws, and the slacks are
folded back in trial order.  So ``law_slack`` on the report's
``worst_trial`` instance and ``worst_q`` gives its ``min_slack`` exactly.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .prob import JointTable, ProbVec, _conditional, _flat_dirichlet, _markov_triple, make_rng
from .qcore import SHANNON_TOL, cross_term, ln_q_pos, pseudo_additivity_residual, q_value

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
# One evaluator per law.  Every sum runs over the cells of a row in C
# order, so each row takes the same bits in a stack of any height; with
# every cell positive the rows equal the q-log sums over the compacted
# positive cells, bit for bit.  A cell of zero weight adds an exact 0: its
# q-log argument becomes 1.


def _rows(a: np.ndarray) -> np.ndarray:
    """(B, n) C-order copy or view of the cells of each row of ``a``."""
    return a.reshape(len(a), -1)


def _ratio(num, den, w: np.ndarray, qc: np.ndarray):
    """(B, n) rows of ``num / den`` where the weight ``w`` is positive, and
    the (B,) mask of rows that the ``den = 0`` escape leaves +inf.

    A cell of zero weight takes 1.  A positive weight over ``den = 0``
    takes +inf above q = 1 + SHANNON_TOL, where its q-log is the finite
    limit 1 / (q - 1), and 1 at and below it, where its row is marked:
    the escape rule of :func:`qit.measures.relative_q_entropy`.
    """
    pos = w > 0
    ok = pos & (den > 0)
    ratio = _rows(np.divide(num, den, out=np.ones(w.shape), where=ok))
    escaped = _rows(pos ^ ok)  # ok implies pos
    if not escaped.any():
        return ratio, escaped[:, 0]  # no row is marked
    above = qc > 1.0 + SHANNON_TOL
    ratio[escaped & above] = math.inf
    return ratio, (escaped & ~above).any(axis=-1)


def _entropy_rows(t: np.ndarray, qc: np.ndarray) -> np.ndarray:
    x = _rows(t)
    return -(x * ln_q_pos(np.where(x > 0, x, 1.0), qc)).sum(axis=-1)


def _divergence_rows(w: np.ndarray, num, den, qc: np.ndarray) -> np.ndarray:
    """Row sums of ``w ln_q(num / den)`` with the ``den = 0`` escape rule."""
    ratio, undefined = _ratio(num, den, w, qc)
    total = 0.0 + (_rows(w) * ln_q_pos(ratio, qc)).sum(axis=-1)
    total[undefined] = math.inf
    return total


def _mi_rows(t: np.ndarray, qc: np.ndarray) -> np.ndarray:
    return _divergence_rows(t, t, t.sum(axis=2)[:, :, None] * t.sum(axis=1)[:, None, :], qc)


def _block_chain(t: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Sum of the chain terms H(X1) + H(X2|X1) + ... minus the joint entropy."""
    qc = q[:, None]
    n = t.ndim - 1
    terms = []
    prev = None  # marginal of the first i axes
    for i in range(n):
        cur = t.sum(axis=tuple(range(i + 2, n + 1)))
        # H(X1), then the entropy of each newest axis given the whole prefix
        terms.append(_entropy_rows(cur, qc) if i == 0 else -_divergence_rows(cur, cur, prev[..., None], qc))
        prev = cur
    return sum(terms) - _entropy_rows(t, qc)


def _indep_superadd(pair, q: np.ndarray) -> np.ndarray:
    p, r = pair
    qc = q[:, None]
    return _entropy_rows(p, qc) + _entropy_rows(r, qc) - _entropy_rows(p[:, :, None] * r[:, None, :], qc)


def _cond_chain(t: np.ndarray, q: np.ndarray) -> np.ndarray:
    """H(X|Z) + H(Y|X,Z) - H(X,Y|Z) on tables (X, Y, Z)."""
    qc = q[:, None]

    def cond_entropy(a, other):
        return -_divergence_rows(a, a, a.sum(axis=other, keepdims=True), qc)

    return cond_entropy(t.sum(axis=2), (1,)) + cond_entropy(t, (2,)) - cond_entropy(t, (1, 2))


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
    return np.array(cross_term(_rows(t), a, b, qc))


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
    # I(X2; Y | X1) on the (X2, Y, X1) view
    c = np.moveaxis(t, 1, 3)
    pz = c.sum(axis=(1, 2))
    pxz = c.sum(axis=2)
    pyz = c.sum(axis=1)
    i_2_given_1 = _divergence_rows(c, c * pz[:, None, None, :], pxz[:, :, None, :] * pyz[:, None, :, :], qc)
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
    cross = np.array(cross_term(_rows(p), ratio_x, _ratio(p_cond, r_cond, p, qc)[0], qc))
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
    return int(rng.integers(lo, hi + 1))


def _sample_rank2(rng):
    return _flat_dirichlet((_axis(rng), _axis(rng)), rng)


def _sample_pair_dists(rng):
    return (_flat_dirichlet(_axis(rng), rng), _flat_dirichlet(_axis(rng), rng))


def _sample_rank3(rng):
    return _flat_dirichlet((_axis(rng, 2, 4), _axis(rng, 2, 4), _axis(rng, 2, 4)), rng)


def _sample_block(rng):
    rank = int(rng.integers(2, 5))
    hi = 6 if rank == 2 else 3
    return _flat_dirichlet(tuple(_axis(rng, 2, hi) for _ in range(rank)), rng)


def _sample_weights(rng):
    m = _axis(rng, 2, 8)
    return (rng.standard_exponential(m), rng.standard_exponential(m))


def _sample_same_length_dists(rng):
    m = _axis(rng)
    return (_flat_dirichlet(m, rng), _flat_dirichlet(m, rng))


def _sample_dist(rng):
    return _flat_dirichlet(_axis(rng, 2, 8), rng)


def _sample_markov(rng):
    return _markov_triple((_axis(rng, 2, 4), _axis(rng, 2, 4), _axis(rng, 2, 4)), rng)


def _sample_rel_pair(rng):
    shape = (_axis(rng, 2, 4), _axis(rng, 2, 4))
    return (_flat_dirichlet(shape, rng), _flat_dirichlet(shape, rng))


@dataclass(frozen=True)
class LawSpec:
    law: LawId
    q_range: _QRange
    identity: bool
    arity: int  # an instance is one array, or a pair
    ranks: tuple  # accepted ranks: 1 is a distribution, 2 to 4 a joint table
    sample: Callable  # rng -> instance of bare arrays
    # (stack or pair of stacks, (B,) q) -> (B,) slacks for inequalities, signed residuals for identities
    evaluate: Callable
    matched: bool = False  # the pair shares one shape
    normalized: bool = True  # False: rank-1 arrays are free nonnegative weights


_REGISTRY: dict[LawId, LawSpec] = {
    spec.law: spec
    for spec in [
        LawSpec(LawId.JOINT_CHAIN, _SUB1, False, 1, (2,), _sample_rank2, _block_chain),
        LawSpec(LawId.INDEP_SUPERADD, _SUB1, False, 2, (1,), _sample_pair_dists, _indep_superadd),
        LawSpec(LawId.COND_CHAIN, _SUB1, False, 1, (3,), _sample_rank3, _cond_chain),
        LawSpec(LawId.BLOCK_CHAIN, _SUB1, False, 1, (2, 3, 4), _sample_block, _block_chain),
        LawSpec(LawId.QLN_SUM, _LE2, False, 2, (1,), _sample_weights, _qln_sum, matched=True, normalized=False),
        LawSpec(LawId.DQ_NONNEG, _LE2, False, 2, (1,), _sample_same_length_dists, _dq_nonneg, matched=True),
        LawSpec(LawId.MAX_BOUND, _LE2, False, 1, (1,), _sample_dist, _max_bound),
        LawSpec(LawId.DPI, _SUB1, False, 1, (3,), _sample_markov, _dpi),
        LawSpec(LawId.INFO_CHAIN_RULE, _SUB1, True, 1, (3,), _sample_rank3, _info_chain),
        LawSpec(LawId.REL_CHAIN_RULE, _SUB1, True, 2, (2,), _sample_rel_pair, _rel_chain, matched=True),
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
    return _grouped_values(spec, [qv], [tuple(arrays)])[0]


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


def law_q_range(law) -> tuple[float, float, bool]:
    spec = _REGISTRY[LawId(law)]
    r = spec.q_range
    return (r.lo, r.hi, r.hi_closed)


def law_is_identity(law) -> bool:
    return _REGISTRY[LawId(law)].identity


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
        return ",".join(
            [
                self.law,
                str(self.trials),
                f"{self.min_slack:.10g}",
                f"{self.mean_slack:.10g}",
                str(self.violations),
                str(self.seed),
            ]
        )

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
        Number of random instances (>= 1).
    q_range : (float, float), optional
        Sampling interval for q; it is intersected with the law's validity
        range and must leave a non-empty interval.  Defaults to the law's
        full range.  q is drawn uniformly from [lo, hi).
    seed : int
        Master seed.  All trials draw from ``make_rng(seed)`` (stream 0) in
        trial order: each trial draws its q (unless the range is a single
        point), then its instance through the law's sampler.
    tol : float, optional
        Violation threshold; defaults to 1e-9 for inequalities and 1e-10
        for identities.
    """
    lid = LawId(law)
    spec = _REGISTRY[lid]
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if tol is None:
        tol = TOL_IDENTITY if spec.identity else TOL_INEQUALITY
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol!r}")

    lo, hi = (spec.q_range.lo, spec.q_range.hi) if q_range is None else map(float, q_range)
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError(f"q-range bounds must be numbers, got {lo!r} and {hi!r}")
    lo = max(lo, spec.q_range.lo)
    hi = min(hi, spec.q_range.hi)
    if lo > hi or (lo == hi and not spec.q_range.contains(lo)):
        raise ValueError(
            f"q-range empty after intersecting with {spec.q_range.describe()} for {lid.value}"
        )

    rng = make_rng(seed)
    min_slack = math.inf
    total = 0.0
    violations = 0
    q_total = 0.0
    worst = (None, None, None)
    done = 0
    while done < trials:
        qs, parts, cells = [], [], 0
        while done + len(qs) < trials and cells < _FUZZ_CELLS:
            qs.append(lo if lo == hi else float(rng.uniform(lo, hi)))
            instance = spec.sample(rng)
            parts.append((instance,) if spec.arity == 1 else instance)
            cells += sum(a.size for a in parts[-1])
        for i, value in enumerate(_grouped_values(spec, qs, parts)):
            slack = -abs(value) if spec.identity else value
            if slack < min_slack:
                min_slack = slack
                worst = (done + i, qs[i], tuple(a.shape for a in parts[i]))
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
        seed=int(seed),
        tol=float(tol),
        identity=spec.identity,
        q_lo=lo,
        q_hi=hi,
        q_mean=q_total / trials,
        worst_trial=worst[0],
        worst_q=worst[1],
        worst_shape=worst[2],
    )


def _grouped_values(spec: LawSpec, qs: list, parts: list) -> list:
    """``spec.evaluate`` of each q and instance (a tuple of its arrays), in
    order, evaluated by one call per instance shape."""
    groups = {}
    for i, arrays in enumerate(parts):
        groups.setdefault(tuple(a.shape for a in arrays), []).append(i)
    values = [0.0] * len(parts)
    for idx in groups.values():
        stacks = tuple(np.stack(column) for column in zip(*(parts[i] for i in idx)))
        batch = stacks[0] if spec.arity == 1 else stacks
        out = spec.evaluate(batch, np.array([qs[i] for i in idx])).tolist()
        for i, value in zip(idx, out):
            values[i] = value
    return values


def all_laws() -> list[LawId]:
    return list(_REGISTRY)
