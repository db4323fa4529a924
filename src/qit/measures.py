"""Deformed information measures on discrete distributions.

One entropy family serves every measure: ``q_entropy`` is the
plain-weighted ``-sum(p * ln_q(p)) = (1 - sum(p**(2-q))) / (1 - q)``, the
form of all chain rules, conditional measures and bounds in this package.
It is the Tsallis entropy of index ``2 - q``, so ``tsallis_entropy(p, q)``,
the power-weighted ``-sum(p**q * ln_q(p))``, is ``q_entropy(p, 2 - q)``.

Everything here observes the ``0 * ln_q(0) = 0`` convention: a cell of
zero mass takes the q-log argument 1 and adds an exact 0.  Relative
entropy returns ``+inf`` when the reference distribution misses mass that
the first distribution carries (for q <= 1); for q > 1 such cells
contribute their finite limit ``p_i / (q - 1)``.

Numeric results are plain floats.  Each public function coerces its
arguments to containers, checks their shapes and evaluates the bare
arrays as a stack of one row through the row-stack kernels below, which
:mod:`qit.laws`, :mod:`qit.markov` and :mod:`qit.maxent` call as well.
"""

import math

import numpy as np

from .prob import JointTable, ProbVec, _axes, _count, _other_axes
from .qcore import SHANNON_TOL, ln_q, ln_q_pos, q_value

# ---------------------------------------------------------------------------
# kernels, on (B, *shape) stacks of bare arrays with a float q or a (B, 1) q
# column
#
# Every sum runs over the cells of a row in C order, so each row takes the
# same bits in a stack of any height; with every cell positive the rows
# equal the q-log sums over the compacted positive cells, bit for bit.
# Negations are written ``0.0 - x``, so a zero entropy is +0, never -0.


def _rows(a: np.ndarray) -> np.ndarray:
    """(B, n) C-order copy or view of the cells of each row of ``a``."""
    return a.reshape(len(a), -1)


def _plogp(x: np.ndarray, q) -> np.ndarray:
    """Cells ``x ln_q x``, an exact 0 where x is 0."""
    return x * ln_q_pos(np.where(x > 0, x, 1.0), q)


def _entropy_rows(t: np.ndarray, q) -> np.ndarray:
    return 0.0 - _plogp(_rows(t), q).sum(axis=-1)


def _ratio(num, den, w: np.ndarray, q):
    """(B, n) rows of ``num / den`` where the weight ``w`` is positive, and
    the (B,) mask of rows that the ``den = 0`` escape leaves +inf.

    A cell of zero weight takes 1.  A positive weight over ``den = 0``
    takes +inf above q = 1 + SHANNON_TOL, where its q-log is the finite
    limit 1 / (q - 1), and 1 at and below it, where its row is marked.
    """
    pos = w > 0
    ok = pos & (den > 0)
    ratio = _rows(np.divide(num, den, out=np.ones(w.shape), where=ok))
    escaped = _rows(pos ^ ok)  # ok implies pos
    if not escaped.any():
        return ratio, escaped[:, 0]  # no row is marked
    above = q > 1.0 + SHANNON_TOL  # a bool, or a (B, 1) column of them
    ratio[escaped & above] = math.inf
    return ratio, (escaped & np.logical_not(above)).any(axis=-1)


def _divergence_rows(w: np.ndarray, num, den, q) -> np.ndarray:
    """Row sums of ``w ln_q(num / den)`` with the ``den = 0`` escape rule."""
    ratio, undefined = _ratio(num, den, w, q)
    total = 0.0 + (_rows(w) * ln_q_pos(ratio, q)).sum(axis=-1)
    total[undefined] = math.inf
    return total


def _cond_entropy_rows(t: np.ndarray, other: tuple, q) -> np.ndarray:
    """Entropy of the ``other`` axes given the rest: ``-sum t ln_q(t / t.sum(other))``."""
    return 0.0 - _divergence_rows(t, t, t.sum(axis=other, keepdims=True), q)


def _mi_rows(t: np.ndarray, q) -> np.ndarray:
    """Mutual information of the two axes of (B, X, Y) tables."""
    return _divergence_rows(t, t, t.sum(axis=2)[:, :, None] * t.sum(axis=1)[:, None, :], q)


def _cmi_rows(t: np.ndarray, q) -> np.ndarray:
    """Mutual information of X and Y given Z on (B, X, Y, Z) tables.

    p(x,y|z) / (p(x|z) p(y|z)) = p(x,y,z) p(z) / (p(x,z) p(y,z)).
    """
    pz = t.sum(axis=(1, 2))
    pxz = t.sum(axis=2)
    pyz = t.sum(axis=1)
    return _divergence_rows(t, t * pz[:, None, None, :], pxz[:, :, None, :] * pyz[:, None, :, :], q)


def _chain_terms_rows(t: np.ndarray, q) -> list:
    """(B,) rows of each chain term H(X1), H(X2|X1), H(X3|X2,X1), ...

    Each term conditions the newest axis on the prefix marginal before it.
    """
    n = t.ndim - 1
    terms = []
    prev = None  # marginal of the first i axes
    for i in range(n):
        cur = t.sum(axis=tuple(range(i + 2, n + 1)))
        terms.append(_entropy_rows(cur, q) if i == 0 else 0.0 - _divergence_rows(cur, cur, prev[..., None], q))
        prev = cur
    return terms


# ---------------------------------------------------------------------------
# public measures


def tsallis_entropy(p, q) -> float:
    """Power-weighted entropy ``-sum(p**q ln_q p) = (1 - sum(p**q)) / (q - 1)``.

    This is the paper's relation: the q-entropy of index ``2 - q`` is the
    Tsallis entropy of index q, so the value is ``q_entropy(p, 2 - q)``.
    """
    return q_entropy(p, 2.0 - q_value(q))


def q_entropy(p, q) -> float:
    """Plain-weighted entropy ``-sum(p ln_q p)``."""
    return float(_entropy_rows(ProbVec.coerce(p).p[None], q_value(q))[0])


def q_entropy_joint(j, q) -> float:
    """``q_entropy`` of a joint table taken as one flat distribution."""
    return float(_entropy_rows(JointTable.coerce(j).t[None], q_value(q))[0])


def q_entropy_conditional(j, given_axes, q) -> float:
    """Conditional entropy ``-sum p(cell) ln_q p(rest | given)``.

    ``given_axes`` may be a single axis or a tuple of axes; the remaining
    axes are treated jointly as the conditioned block.
    """
    qv = q_value(q)
    table = JointTable.coerce(j)
    other = tuple(a + 1 for a in _other_axes(table.rank, given_axes))
    return float(_cond_entropy_rows(table.t[None], other, qv)[0])


def relative_q_entropy(p, r, q) -> float:
    """Directed divergence ``sum p ln_q(p / r)``.

    Cells with ``p_i = 0`` contribute nothing.  Cells with ``p_i > 0`` and
    ``r_i = 0`` make the divergence ``+inf`` for q <= 1 and contribute the
    finite limit ``p_i / (q - 1)`` for q > 1.
    """
    qv = q_value(q)
    pa = ProbVec.coerce(p).p[None]
    ra = ProbVec.coerce(r).p[None]
    if pa.shape != ra.shape:
        raise ValueError("relative_q_entropy requires equal-length distributions")
    return float(_divergence_rows(pa, pa, ra, qv)[0])


def relative_q_entropy_conditional(pj, rj, given_axes, q) -> float:
    """Conditional divergence ``sum p(cell) ln_q(p(rest|given) / r(rest|given))``.

    Weighted by the first table's joint mass.  Same escape conventions as
    :func:`relative_q_entropy`, applied cellwise.
    """
    qv = q_value(q)
    pt = JointTable.coerce(pj)
    rt = JointTable.coerce(rj)
    if pt.shape != rt.shape:
        raise ValueError("conditional divergence requires equal-shape tables")
    num, den = pt.conditional(given_axes)[None], rt.conditional(given_axes)[None]
    return float(_divergence_rows(pt.t[None], num, den, qv)[0])


def mutual_q_information(j, q) -> float:
    """``sum p(x,y) ln_q[ p(x,y) / (p(x) p(y)) ]`` on a rank-2 table."""
    qv = q_value(q)
    table = JointTable.coerce(j)
    if table.rank != 2:
        raise ValueError("mutual_q_information expects a rank-2 table")
    return float(_mi_rows(table.t[None], qv)[0])


def conditional_mutual_q_information(j, q, given_axis: int = 2) -> float:
    """Mutual information between the two non-conditioned axes, given one axis.

    For a rank-3 table with axes (A, B, C) and ``given_axis = 2`` this is
    ``sum p(a,b,c) ln_q[ p(a,b|c) / (p(a|c) p(b|c)) ]``; the pair is always
    the remaining axes in ascending order.  Zero-probability conditioning
    slices contribute nothing.
    """
    qv = q_value(q)
    table = JointTable.coerce(j)
    if table.rank != 3:
        raise ValueError("conditional_mutual_q_information expects a rank-3 table")
    return float(_cmi_rows(np.moveaxis(table.t, _axes(given_axis, 3, "given_axis", one=True), 2)[None], qv)[0])


def q_entropy_max(m: int, q) -> float:
    """Tight upper bound for ``q_entropy`` on m outcomes: ``-ln_q(1/m)``.

    The bound is attained by the uniform distribution.  Only valid for
    q <= 2 (the convexity range of the divergence that proves it); larger
    q is rejected.
    """
    qv = q_value(q)
    m = _count(m, "m")
    if qv > 2.0:
        raise ValueError("q_entropy_max requires q <= 2")
    return float(-ln_q(1.0 / m, qv))


def q_entropy_chain_terms(j, q) -> list[float]:
    """Per-axis conditional entropies [H(X1), H(X2|X1), H(X3|X2,X1), ...].

    Computed from prefix marginals of the joint table, so the terms are
    meaningful for tables of any rank (2 to 4).
    """
    terms = _chain_terms_rows(JointTable.coerce(j).t[None], q_value(q))
    return [float(term[0]) for term in terms]
