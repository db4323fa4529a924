"""50-digit mpmath references for the package's numbers.

Each function takes floats, evaluates them exactly as given at ``DPS``
significant digits, and returns an mpmath number, so a float result can be
measured in ulps of the true value (:func:`ulps`).  Unlike
``tests/reference.py``, which copies the package's own float forms bit for
bit, these carry no float rounding, so they measure the package's error.
"""

import math

import mpmath

#: Significant digits of every evaluation.
DPS = 50


def ln_q(x, q):
    """``ln_q x = (x**(1-q) - 1) / (1-q)`` of a float x > 0, ``log x`` at q = 1."""
    with mpmath.workdps(DPS):
        eps = 1 - mpmath.mpf(q)
        log_x = mpmath.log(mpmath.mpf(x))
        return log_x if eps == 0 else mpmath.expm1(eps * log_x) / eps


def q_entropy(p, q):
    """Plain-weighted entropy ``-sum p ln_q p`` over the positive cells of ``p``."""
    with mpmath.workdps(DPS):
        return -mpmath.fsum(mpmath.mpf(x) * ln_q(x, q) for x in p if x > 0)


def tsallis_entropy(p, q):
    """Power-weighted entropy ``-sum p**q ln_q p`` over the positive cells of ``p``."""
    with mpmath.workdps(DPS):
        return -mpmath.fsum(mpmath.mpf(x) ** mpmath.mpf(q) * ln_q(x, q) for x in p if x > 0)


def ulps(got: float, exact) -> float:
    """``|got - exact|`` in units of the last place of ``exact`` rounded to a float."""
    with mpmath.workdps(DPS):
        return float(abs(mpmath.mpf(got) - exact) / math.ulp(float(exact)))


def relative(got: float, exact) -> float:
    """``|got - exact| / |exact|``, and ``|got|`` where ``exact`` is 0."""
    with mpmath.workdps(DPS):
        err = abs(mpmath.mpf(got) - exact)
        return float(err / abs(exact) if exact else err)
