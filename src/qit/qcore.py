"""Deformed logarithm and exponential kernel.

``ln_q`` and ``exp_q`` generalize the natural log/exp pair with a single
real index q; q = 1 recovers the classical pair (taken whenever
``|q - 1| <= SHANNON_TOL``).  The deformed logarithm of a product picks up
a cross term,

    ln_q(x * y) = ln_q(x) + ln_q(y) + (1 - q) * ln_q(x) * ln_q(y),

and every correction term appearing in the higher-level measures of this
package is an instance of that expansion.  ``cross_term`` is that
``(1 - q) * ln_q(x) * ln_q(y)`` summed against weights, and
``pseudo_additivity_residual`` evaluates both sides so tests and fuzz
campaigns can confirm the identity numerically.

``ln_q`` is the checked public kernel.  ``ln_q_pos`` and ``ln_q_from_log``
are its unchecked internal forms for positive arrays and for a given
natural log; every q-log in the package is evaluated by one of the three.
They compute ``expm1((1 - q) log x) / (1 - q)``, which keeps the digits
that ``x**(1-q) - 1`` cancels as q approaches the classical branch or x
approaches 1; ``ln_q_pos`` keeps the power form only where it cancels
nothing (see there).  Both run one body, ``_ln_q_body``, so the band test
and the expm1 form are written once: ``ln_q_pos`` writes ``log x`` into
its one output array and finishes it in place, for a float q or a q
column (one q per row of a stack), and ``ln_q_from_log`` is the tail of
that body without the power branch, filling one new array from the given
log.  A call holds one float array the size of its input (``ln_q_pos``
one bool mask too), so large tables of logs cost no temporaries.
``exp_q_inside`` is the unchecked ``exp_q``.

Conventions
-----------
* ``ln_q(0)`` is the one-sided limit: ``-1 / (1 - q)`` for q < 1 (finite)
  and ``-inf`` for q >= 1.
* Negative (or NaN) arguments raise :class:`~qit.errors.QDomainError`.
* ``exp_q(x)`` requires ``1 + (1 - q) * x > 0``; outside that region a
  :class:`~qit.errors.QDomainError` is raised carrying the boundary value.

All operations accept scalars or numpy arrays and apply elementwise.
Validity ranges for q are *not* enforced here; each downstream operation
documents and enforces the range in which its own guarantees hold.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import QDomainError

#: Half-width of the q-interval treated as the classical (Shannon) branch.
SHANNON_TOL = 1e-12


@dataclass(frozen=True)
class QParam:
    """Entropic index.

    A thin validated wrapper around the real index q.  Most functions in
    this package accept either a plain float or a ``QParam``.
    """

    q: float

    def __post_init__(self):
        object.__setattr__(self, "q", _finite_q(self.q))

    @property
    def is_shannon(self) -> bool:
        """True when q falls inside the classical branch."""
        return abs(self.q - 1.0) <= SHANNON_TOL


def _real(x, what: str) -> float:
    """``float(x)``; a bool raises ValueError and a str or bytes TypeError,
    each naming ``what``."""
    if isinstance(x, (bool, np.bool_)):
        raise ValueError(f"{what} must be a real number, got {x!r}")
    if isinstance(x, (str, bytes)):
        raise TypeError(f"{what} must be a real number, got {x!r}")
    return float(x)


def _finite_q(q) -> float:
    qv = _real(q, "entropic index")
    if not math.isfinite(qv):
        raise ValueError(f"entropic index must be finite, got {qv!r}")
    return qv


def q_value(q) -> float:
    """Return the float index from a ``QParam`` or a bare real."""
    return q.q if isinstance(q, QParam) else _finite_q(q)


def _as_checked_array(x, *, what: str):
    arr = np.asarray(x, dtype=float)
    if np.isnan(arr).any():
        raise QDomainError(f"{what} must not contain NaN")
    return arr


#: Exponents for which numpy's ``power`` given one scalar exponent takes
#: an exact operation (1/x, sqrt, x*x) that an exponent array does not.
_SCALAR_POWER_CASES = (-1.0, 0.5, 2.0)


def ln_q_pos(x, q):
    """Unchecked ``ln_q`` of a positive array x.

    expm1 scales the rounding of ``log x`` by ``y = (1 - q) log x``, which
    costs about y/3 ulps; cells with y above 4 take ``x**(1-q) - 1``
    instead, which cancels nothing there and keeps within an ulp.

    ``q`` is a float, or an array that broadcasts to the shape of ``x``
    such as a ``(B, 1)`` column for ``B`` rows of cells.  One body serves
    both: a float q's power cells take its one exponent as a scalar, and a
    column's take theirs as an array and redo the exponents of
    ``_SCALAR_POWER_CASES`` as scalars, so each cell takes the value a
    float call with its own q gives, bit for bit.  The result is the array
    that ``log x`` was written into, finished in place by
    :func:`_ln_q_body` (a numpy float for a 0-d x): one float array and
    one bool mask per call, and while the power cells are taken, two
    floats more per power cell for a float q, and for a column the
    exponent array and the redo's masks and copies besides.
    """
    # asarray: log of a 0-d x is a numpy float, which cannot be written
    return _ln_q_body(np.asarray(np.log(x)), q, x)


def ln_q_from_log(log_x, q: float):
    """Unchecked ``ln_q`` of x given ``log x`` for a float index q.

    The tail of :func:`ln_q_pos` with no power branch: the log is all
    there is, so every cell takes the expm1 form.  The result is one new
    float array (a numpy float for a scalar ``log_x``), a copy of the log
    that the product, expm1 and the division finish in place; ``log_x`` is
    never written, and the Shannon band returns it as it is.  Overflows to ``-inf`` (q > 1)
    where ``(1 - q) log x`` exceeds the float range; callers that expect it
    silence the warning themselves.
    """
    return _ln_q_body(log_x, q)


def _ln_q_body(log_x, q, x=None):
    """The one q-log body: ``expm1((1 - q) log x) / (1 - q)`` in one array.

    Given ``x``, ``log_x`` is the caller's own array of ``log x`` and is
    finished in place, with the power form on the cells where
    ``(1 - q) log x > 4``; without it, ``log_x`` is left as it is and a
    copy is finished instead.  Rows of a q column in the Shannon band keep
    ``log x``: the in-place ufuncs skip them through ``where=``.
    """
    eps = 1.0 - q
    off = abs(eps) > SHANNON_TOL
    n_off = np.count_nonzero(off)
    if x is None and not n_off:
        return log_x
    out = log_x if x is not None else np.array(log_x, dtype=float)
    if n_off:
        # off is a bool for a float q; a mask goes to the ufuncs only where the
        # band splits a column, as their masked loops are slower
        where = True if n_off == getattr(off, "size", 1) else off
        np.multiply(out, eps, out=out, where=where)
        if x is not None:
            big = out > 4.0
            if where is not True:
                big &= where
        np.expm1(out, out=out, where=where)
        if x is not None and np.count_nonzero(big):
            xb = np.broadcast_to(x, out.shape)[big]
            if isinstance(eps, np.ndarray):  # a q column: redo the scalar cases
                eb = np.broadcast_to(eps, out.shape)[big]
                pb = np.power(xb, eb)
                for e in _SCALAR_POWER_CASES:
                    hit = eb == e
                    if hit.any():
                        pb[hit] = np.power(xb[hit], e)
            else:
                pb = np.power(xb, eps)
            out[big] = np.subtract(pb, 1.0, out=pb)
        np.divide(out, eps, out=out, where=where)
    return out if out.ndim else out[()]


def cross_term(w, a, b, q):
    """Product-rule cross term ``(1-q) * sum w ln_q(a) ln_q(b)`` (unchecked).

    ``a`` and ``b`` are positive arrays that broadcast against the weights
    ``w``.  Every chain rule of the deformed measures differs from its
    classical form by one such term.  The sum runs over the last axis: a
    numpy float for 1-D operands, else an array with one value per row,
    as when ``w`` stacks several weight rows or ``b`` several second
    factors.  A q array is a column as in :func:`ln_q_pos`: one q per row,
    with a last axis of length 1 that the sum removes.
    """
    total = (w * ln_q_pos(a, q) * ln_q_pos(b, q)).sum(axis=-1)
    if isinstance(q, np.ndarray):
        q = q[..., 0]
    return (1.0 - q) * total


def ln_q(x, q):
    """Deformed logarithm ``(x**(1-q) - 1) / (1-q)``, computed via ``expm1``.

    See :func:`ln_q_pos` for the one range where the power form is used.

    Parameters
    ----------
    x : scalar or array_like
        Nonnegative argument(s).  Zeros map to the one-sided limit
        (finite for q < 1, ``-inf`` for q >= 1).
    q : float or QParam
        Entropic index; ``|q - 1| <= SHANNON_TOL`` selects ``log(x)``.

    Returns
    -------
    float or ndarray
    """
    qv = q_value(q)
    arr = _as_checked_array(x, what="ln_q argument")
    if (arr < 0).any():
        raise QDomainError("ln_q requires nonnegative arguments")
    with np.errstate(divide="ignore"):
        # log 0 = -inf sends expm1 to -1 for q < 1, and 0**(1-q) to +inf
        # for q > 1, so both zero conventions fall out of the kernel.
        out = ln_q_pos(arr.reshape(-1), qv).reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


def exp_q_inside(x, q: float):
    """Unchecked ``exp_q`` of an array x inside ``1 + (1 - q) x > 0``.

    ``log1p`` leaves that sum unrounded; the power form would amplify its
    rounding by ``1 / |1 - q|``.
    """
    eps = 1.0 - q
    if abs(eps) <= SHANNON_TOL:
        return np.exp(x)
    return np.exp(np.log1p(eps * x) / eps)


def exp_q(x, q):
    """Deformed exponential ``(1 + (1-q) x) ** (1/(1-q))``, inverse of ln_q.

    Raises
    ------
    QDomainError
        If ``1 + (1-q) x <= 0`` anywhere; the error carries the smallest
        boundary value encountered in its ``boundary`` attribute.
    """
    qv = q_value(q)
    arr = _as_checked_array(x, what="exp_q argument")
    eps = 1.0 - qv
    if abs(eps) > SHANNON_TOL:
        base = 1.0 + eps * arr
        if (base <= 0).any():
            raise QDomainError(
                f"exp_q argument outside domain: 1 + (1-q)x reached {base.min():.6g}",
                boundary=float(base.min()),
            )
    out = exp_q_inside(arr, qv)
    return float(out) if arr.ndim == 0 else out


def pseudo_additivity_residual(x, y, q):
    """Two-sided evaluation of the deformed product rule.

    Returns ``ln_q(x*y) - ln_q(x) - ln_q(y) - (1-q) ln_q(x) ln_q(y)``,
    which is zero in exact arithmetic for any positive x, y and any q.
    The returned value is the floating-point residual (not its absolute
    value), useful for checking both magnitude and sign behaviour.
    """
    qv = q_value(q)
    ax = _as_checked_array(x, what="pseudo-additivity argument")
    ay = _as_checked_array(y, what="pseudo-additivity argument")
    if (ax <= 0).any() or (ay <= 0).any():
        raise QDomainError("pseudo_additivity_residual requires strictly positive x, y")
    lx = ln_q(ax, qv)
    ly = ln_q(ay, qv)
    out = ln_q(ax * ay, qv) - lx - ly - (1.0 - qv) * np.asarray(lx) * np.asarray(ly)
    return float(out) if np.ndim(out) == 0 else out
