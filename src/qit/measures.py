"""Deformed information measures on discrete distributions.

Two entropy families appear side by side:

* ``tsallis_entropy``: ``-sum(p**q * ln_q(p))``, the power-weighted form;
* ``q_entropy``: ``-sum(p * ln_q(p))``, the plain-weighted form used by all
  chain rules, conditional measures, and bounds in this package.

Everything here observes the ``0 * ln_q(0) = 0`` convention by summing over
cells of positive mass only.  Relative entropy returns ``+inf`` when the
reference distribution misses mass that the first distribution carries
(for q <= 1); for q > 1 such cells contribute their finite limit
``p_i / (q - 1)``.

Numeric results are plain floats.  Each public function coerces its
arguments to containers, checks their shapes and computes on the bare
arrays through the unchecked kernels ``_entropy_from_array`` and
``_divergence``.
"""

import math

import numpy as np

from .prob import JointTable, ProbVec, _other_axes
from .qcore import SHANNON_TOL, ln_q, ln_q_pos, q_value


def tsallis_entropy(p, q) -> float:
    """Power-weighted entropy ``-sum(p**q ln_q p)``."""
    qv = q_value(q)
    arr = ProbVec.coerce(p).p
    pos = arr[arr > 0]
    return float(-(np.power(pos, qv) * ln_q_pos(pos, qv)).sum())


def q_entropy(p, q) -> float:
    """Plain-weighted entropy ``-sum(p ln_q p)``."""
    return _entropy_from_array(ProbVec.coerce(p).p, q_value(q))


def _entropy_from_array(t: np.ndarray, qv: float) -> float:
    pos = t[t > 0]
    return float(-(pos * ln_q_pos(pos, qv)).sum())


def q_entropy_joint(j, q) -> float:
    """``q_entropy`` of a joint table taken as one flat distribution."""
    qv = q_value(q)
    return _entropy_from_array(JointTable.coerce(j).t, qv)


def q_entropy_conditional(j, given_axes, q) -> float:
    """Conditional entropy ``-sum p(cell) ln_q p(rest | given)``.

    ``given_axes`` may be a single axis or a tuple of axes; the remaining
    axes are treated jointly as the conditioned block.
    """
    qv = q_value(q)
    table = JointTable.coerce(j)
    t = table.t
    other = _other_axes(table.rank, given_axes)
    return -_divergence(t, t, np.broadcast_to(t.sum(axis=other, keepdims=True), t.shape), qv)


def relative_q_entropy(p, r, q) -> float:
    """Directed divergence ``sum p ln_q(p / r)``.

    Cells with ``p_i = 0`` contribute nothing.  Cells with ``p_i > 0`` and
    ``r_i = 0`` make the divergence ``+inf`` for q <= 1 and contribute the
    finite limit ``p_i / (q - 1)`` for q > 1.
    """
    qv = q_value(q)
    pa = ProbVec.coerce(p).p
    ra = ProbVec.coerce(r).p
    if pa.shape != ra.shape:
        raise ValueError("relative_q_entropy requires equal-length distributions")
    return _divergence(pa, pa, ra, qv)


def _divergence(w: np.ndarray, num: np.ndarray, den: np.ndarray, qv: float) -> float:
    """``sum_{w>0} w ln_q(num / den)`` with the escape rule for ``den = 0``."""
    mask = w > 0
    ok = mask & (den > 0)
    total = 0.0
    if np.count_nonzero(ok) < np.count_nonzero(mask):  # mass escapes where den = 0
        if qv <= 1.0 + SHANNON_TOL:
            return math.inf
        total += float(w[mask & ~ok].sum()) / (qv - 1.0)
    total += float((w[ok] * ln_q_pos(num[ok] / den[ok], qv)).sum())
    return total


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
    return _divergence(pt.t, pt.conditional(given_axes), rt.conditional(given_axes), qv)


def mutual_q_information(j, q) -> float:
    """``sum p(x,y) ln_q[ p(x,y) / (p(x) p(y)) ]`` on a rank-2 table."""
    qv = q_value(q)
    table = JointTable.coerce(j)
    if table.rank != 2:
        raise ValueError("mutual_q_information expects a rank-2 table")
    t = table.t
    return _divergence(t, t, np.outer(t.sum(axis=1), t.sum(axis=0)), qv)


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
    if not 0 <= given_axis < 3:
        raise ValueError("given_axis must be 0, 1, or 2")
    t = np.moveaxis(table.t, given_axis, 2)
    pz = t.sum(axis=(0, 1))
    pxz = t.sum(axis=1)
    pyz = t.sum(axis=0)
    # p(x,y|z) / (p(x|z) p(y|z)) = p(x,y,z) p(z) / (p(x,z) p(y,z))
    return _divergence(t, t * pz[None, None, :], pxz[:, None, :] * pyz[None, :, :], qv)


def q_entropy_max(m: int, q) -> float:
    """Tight upper bound for ``q_entropy`` on m outcomes: ``-ln_q(1/m)``.

    The bound is attained by the uniform distribution.  Only valid for
    q <= 2 (the convexity range of the divergence that proves it); larger
    q is rejected.
    """
    qv = q_value(q)
    if int(m) != m or m < 1:
        raise ValueError("m must be a positive integer")
    if qv > 2.0:
        raise ValueError("q_entropy_max requires q <= 2")
    return float(-ln_q(1.0 / int(m), qv))


def q_entropy_chain_terms(j, q) -> list[float]:
    """Per-axis conditional entropies [H(X1), H(X2|X1), H(X3|X2,X1), ...].

    Computed from prefix marginals of the joint table, so the terms are
    meaningful for tables of any rank (2 to 4).
    """
    t = JointTable.coerce(j).t
    qv = q_value(q)
    n = t.ndim
    terms = []
    prev = None  # marginal of the first i axes
    for i in range(n):
        cur = t.sum(axis=tuple(range(i + 1, n)))
        if i == 0:
            terms.append(_entropy_from_array(cur, qv))
        else:
            mask = cur > 0
            w = cur[mask]
            # conditional of the newest axis given the whole prefix
            ratio = w / prev[mask.nonzero()[:-1]]
            terms.append(float(-(w * ln_q_pos(ratio, qv)).sum()))
        prev = cur
    return terms
