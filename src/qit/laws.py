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

``fuzz`` runs a seeded campaign of random instances for one law.  Worker
partitioning is deterministic: worker ``w`` owns a contiguous chunk of the
trials and draws from stream ``w`` of the master seed, so a report depends
only on (law, trials, q-range, seed, tol, workers), never on scheduling.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .measures import _chain_terms_from_array, _conditional_entropy, _conditional_mutual_information
from .measures import _divergence, _entropy_from_array, _mutual_information, q_entropy_max
from .prob import JointTable, ProbVec, _conditional, _flat_dirichlet, _markov_triple, make_rng
from .qcore import cross_term, ln_q, pseudo_additivity_residual, q_value

#: Violation threshold for inequality laws.
TOL_INEQUALITY = 1e-9
#: Violation threshold for exact identities.
TOL_IDENTITY = 1e-10


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
# slack functions (inequalities), on bare arrays

def _slack_block_chain(t: np.ndarray, qv: float) -> float:
    return float(sum(_chain_terms_from_array(t, qv)) - _entropy_from_array(t, qv))


def _slack_indep_superadd(instance, qv: float) -> float:
    p, r = instance
    return _entropy_from_array(p, qv) + _entropy_from_array(r, qv) - _entropy_from_array(np.outer(p, r), qv)


def _slack_cond_chain(t: np.ndarray, qv: float) -> float:
    h_x_given_z = _conditional_entropy(t.sum(axis=1), (0,), qv)
    h_y_given_xz = _conditional_entropy(t, (1,), qv)
    h_xy_given_z = _conditional_entropy(t, (0, 1), qv)
    return float(h_x_given_z + h_y_given_xz - h_xy_given_z)


def _slack_qln_sum(instance, qv: float) -> float:
    r, s = instance
    rs = float(r.sum())
    ss = float(s.sum())
    if rs == 0:
        return 0.0
    lhs = _divergence(r, r, s, qv)  # +inf for q <= 1 where a positive r meets s = 0
    if lhs == math.inf:
        return math.inf
    # past the escape above, ss = 0 means q > 1, where ln_q(rs / 0) = 1 / (q - 1)
    rhs = rs / (qv - 1.0) if ss == 0 else rs * float(ln_q(rs / ss, qv))
    return lhs - rhs


def _slack_dq_nonneg(instance, qv: float) -> float:
    p, r = instance
    return _divergence(p, p, r, qv)


def _slack_max_bound(p: np.ndarray, qv: float) -> float:
    return q_entropy_max(p.size, qv) - _entropy_from_array(p, qv)


def _mi_chain_cross(t: np.ndarray, qv: float) -> float:
    """Cross term of I(X; Y,Z) = I(X; Z) + I(X; Y | Z) on a table (X, Y, Z):

    (1-q) * sum p ln_q[p(x,z)/(p(x)p(z))] ln_q[p(x,y|z)/(p(x|z)p(y|z))].
    """
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


def _slack_dpi(t: np.ndarray, qv: float) -> float:
    """Deformed data-processing inequality on a rank-3 table (X, Y, Z).

    Requires the middle axis to separate the outer two (as produced by
    ``random_markov_triple``); the slack then equals the conditional
    mutual information of X and Y given Z, which is nonnegative.
    """
    i_xy = _mutual_information(t.sum(axis=2), qv)
    i_xz = _mutual_information(t.sum(axis=1), qv)
    return float(i_xy - i_xz - _mi_chain_cross(t, qv))


# ---------------------------------------------------------------------------
# identity residuals, on bare arrays

def _residual_info_chain(t: np.ndarray, qv: float) -> float:
    """Mutual-information chain identity for two sources and one target.

    I(X1,X2; Y) = I(X1; Y) + I(X2; Y | X1)
                  + (1-q) * sum p ln_q(R1) ln_q(R2)

    with R1 = p(x1,y)/(p(x1)p(y)) and R2 = p(x2,y|x1)/(p(x2|x1)p(y|x1)).
    """
    m1, m2, my = t.shape
    i_joint = _mutual_information(t.reshape(m1 * m2, my), qv)
    i_1 = _mutual_information(t.sum(axis=1), qv)
    i_2_given_1 = _conditional_mutual_information(np.moveaxis(t, 0, 2), qv)
    # (Y, X2, X1) is the (X, Y, Z) layout of the dpi cross term
    return i_joint - i_1 - i_2_given_1 - _mi_chain_cross(t.transpose(2, 1, 0), qv)


def _residual_rel_chain(instance, qv: float) -> float:
    """Chain identity for the divergence of two rank-2 tables.

    D(p(x,y) || r(x,y)) = D(p(x) || r(x)) + D(p(y|x) || r(y|x))
                          + (1-q) * sum p ln_q(pX/rX) ln_q(p(y|x)/r(y|x))

    Undefined (infinite) components propagate: the residual is +inf when
    absolute continuity fails.
    """
    p, r = instance
    px = p.sum(axis=1)
    rx = r.sum(axis=1)
    p_cond = _conditional(p, (1,))
    r_cond = _conditional(r, (1,))
    lhs = _divergence(p.reshape(-1), p.reshape(-1), r.reshape(-1), qv)
    d_marg = _divergence(px, px, rx, qv)
    d_cond = _divergence(p, p_cond, r_cond, qv)
    if math.isinf(lhs) or math.isinf(d_marg) or math.isinf(d_cond):
        return math.inf
    mask = p > 0
    ratio_x = (px / rx)[mask.nonzero()[0]]
    return lhs - d_marg - d_cond - cross_term(p[mask], ratio_x, p_cond[mask] / r_cond[mask], qv)


# ---------------------------------------------------------------------------
# law registry

@dataclass(frozen=True)
class _QRange:
    lo: float
    hi: float
    hi_closed: bool

    def contains(self, qv: float) -> bool:
        if qv < self.lo:
            return False
        return qv <= self.hi if self.hi_closed else qv < self.hi

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
    evaluate: Callable  # slack for inequalities, signed residual for identities
    matched: bool = False  # the pair shares one shape
    normalized: bool = True  # False: rank-1 arrays are free nonnegative weights


_REGISTRY: dict[LawId, LawSpec] = {
    spec.law: spec
    for spec in [
        LawSpec(LawId.JOINT_CHAIN, _SUB1, False, 1, (2,), _sample_rank2, _slack_block_chain),
        LawSpec(LawId.INDEP_SUPERADD, _SUB1, False, 2, (1,), _sample_pair_dists, _slack_indep_superadd),
        LawSpec(LawId.COND_CHAIN, _SUB1, False, 1, (3,), _sample_rank3, _slack_cond_chain),
        LawSpec(LawId.BLOCK_CHAIN, _SUB1, False, 1, (2, 3, 4), _sample_block, _slack_block_chain),
        LawSpec(LawId.QLN_SUM, _LE2, False, 2, (1,), _sample_weights, _slack_qln_sum, matched=True, normalized=False),
        LawSpec(LawId.DQ_NONNEG, _LE2, False, 2, (1,), _sample_same_length_dists, _slack_dq_nonneg, matched=True),
        LawSpec(LawId.MAX_BOUND, _LE2, False, 1, (1,), _sample_dist, _slack_max_bound),
        LawSpec(LawId.DPI, _SUB1, False, 1, (3,), _sample_markov, _slack_dpi),
        LawSpec(LawId.INFO_CHAIN_RULE, _SUB1, True, 1, (3,), _sample_rank3, _residual_info_chain),
        LawSpec(LawId.REL_CHAIN_RULE, _SUB1, True, 2, (2,), _sample_rel_pair, _residual_rel_chain, matched=True),
    ]
}


def _instance_arrays(spec: LawSpec, instance):
    """Bare arrays of an outside instance, after the law's instance check."""
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
    return arrays[0] if spec.arity == 1 else tuple(arrays)


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
    spec = _REGISTRY[law]
    return abs(spec.evaluate(_instance_arrays(spec, instance), qv))


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
    value = spec.evaluate(_instance_arrays(spec, instance), qv)
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
    workers: int

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
            "workers": self.workers,
        }


def fuzz(law, trials: int, q_range=None, seed: int = 0, *, tol=None, workers: int = 1) -> SlackReport:
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
        Master seed; worker ``w`` draws from stream ``w``.
    tol : float, optional
        Violation threshold; defaults to 1e-9 for inequalities and 1e-10
        for identities.
    workers : int
        Number of deterministic trial partitions.  The report for a given
        worker count is bit-reproducible; changing the count changes which
        instances are drawn.
    """
    lid = LawId(law)
    spec = _REGISTRY[lid]
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if tol is None:
        tol = TOL_IDENTITY if spec.identity else TOL_INEQUALITY

    lo, hi = (spec.q_range.lo, spec.q_range.hi) if q_range is None else map(float, q_range)
    lo = max(lo, spec.q_range.lo)
    hi = min(hi, spec.q_range.hi)
    if lo > hi or (lo == hi and not spec.q_range.contains(lo)):
        raise ValueError(
            f"q-range empty after intersecting with {spec.q_range.describe()} for {lid.value}"
        )

    workers = min(workers, trials)
    base, extra = divmod(trials, workers)
    min_slack = math.inf
    total = 0.0
    violations = 0
    q_total = 0.0
    for w in range(workers):
        chunk = base + (1 if w < extra else 0)
        rng = make_rng(seed, stream=w)
        for _ in range(chunk):
            qv = lo if lo == hi else float(rng.uniform(lo, hi))
            value = spec.evaluate(spec.sample(rng), qv)
            slack = -abs(value) if spec.identity else value
            if slack < min_slack:
                min_slack = slack
            total += slack
            if slack < -tol:
                violations += 1
            q_total += qv
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
        workers=workers,
    )


def all_laws() -> list[LawId]:
    return list(_REGISTRY)
