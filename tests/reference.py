"""Compacted reference kernels that the tests compare the package against.

Each sums over the cells of positive weight only, the ``0 ln_q 0 = 0``
convention taken literally, one instance at a time.  The package's
kernels instead add an exact 0 for every zero cell, in a row stack; on
all-positive inputs the two agree bit for bit, and zero cells only
regroup numpy's pairwise sums.  Their q-logs come from the float-only
``ln_q_pos`` here, not from the package's kernel; ``ln_q_from_log`` is the
given-log form as it was written before the two shared one body.

``laws`` and ``random_doubly_stochastic`` are the Markov state-law step
and Sinkhorn sampler written with one ``.sum`` call per reduction; the
package's bare-ufunc forms must give the same bits.

``SAMPLERS`` and ``uniform_q`` are the fuzz draws made one numpy call per
draw: a separate exponential call and normalization per flat-Dirichlet
factor (the Markov triple's rows joined by ``np.stack``), and q from
``rng.uniform``.  The package draws adjacent exponentials of one kind in
one call and q from ``rng.random()``; it must give the same arrays and
leave the generator in the same state.
"""

import math

import numpy as np

from qit.errors import ConvergenceError
from qit.markov import SINKHORN_TOL
from qit.qcore import SHANNON_TOL


def ln_q_pos(x, q: float):
    """``ln_q`` of a positive array x for a float q, in its float-only form.

    This is the float-q body that ``qcore.ln_q_pos`` grew from: numpy's
    power takes the one scalar exponent ``1 - q`` here, and the package's
    kernel, which serves q columns too, must give the same bits.
    """
    eps = 1.0 - q
    if abs(eps) <= SHANNON_TOL:
        return np.log(x)
    y = eps * np.log(x)
    out = np.expm1(y)
    if y.size and y.max() > 4.0:
        big = y > 4.0
        out[big] = np.power(x[big], eps) - 1.0
    return out / eps


def ln_q_from_log(log_x, q: float):
    """``ln_q`` of x given ``log x`` for a float q: the expm1 form in one new array.

    The form ``qcore.ln_q_from_log`` had before it became the tail of the
    package's one q-log body, which must give the same bits and types.
    """
    eps = 1.0 - q
    if abs(eps) <= SHANNON_TOL:
        return log_x
    out = np.asarray(eps * log_x)
    np.expm1(out, out=out)
    out /= eps
    return out if out.ndim else out[()]


def entropy(t: np.ndarray, qv: float) -> float:
    """``-sum_{t>0} t ln_q t``."""
    pos = t[t > 0]
    return float(-(pos * ln_q_pos(pos, qv)).sum())


def divergence(w: np.ndarray, num: np.ndarray, den: np.ndarray, qv: float) -> float:
    """``sum_{w>0} w ln_q(num / den)`` with the escape rule for ``den = 0``.

    Mass over ``den = 0`` makes the sum +inf at and below q = 1 + SHANNON_TOL
    and adds its finite limit ``w / (q - 1)`` above it.
    """
    mask = w > 0
    ok = mask & (den > 0)
    total = 0.0
    if np.count_nonzero(ok) < np.count_nonzero(mask):  # mass escapes where den = 0
        if qv <= 1.0 + SHANNON_TOL:
            return math.inf
        total += float(w[mask & ~ok].sum()) / (qv - 1.0)
    total += float((w[ok] * ln_q_pos(num[ok] / den[ok], qv)).sum())
    return total


def laws(psi: np.ndarray, r: np.ndarray, steps: int) -> np.ndarray:
    """State laws ``psi_0 .. psi_steps`` as rows, one ``.sum`` per reduction."""
    out = np.empty((steps + 1, psi.size))
    out[0] = psi
    for k in range(steps):
        out[k + 1] = (out[k][:, None] * r).sum(axis=0)
        out[k + 1] /= out[k + 1].sum()
    return out


def random_doubly_stochastic(m: int, rng: np.random.Generator, rounds: int) -> np.ndarray:
    """Sinkhorn scaling of symmetrized Dirichlet rows, every sum taken afresh."""
    a = rng.standard_exponential((m, m))
    a /= a.sum(axis=1, keepdims=True)
    s = (a + a.T) / 2.0
    for _ in range(rounds):
        s /= s.sum(axis=1, keepdims=True)
        s /= s.sum(axis=0, keepdims=True)
        dev = max(
            float(np.abs(s.sum(axis=1) - 1.0).max()),
            float(np.abs(s.sum(axis=0) - 1.0).max()),
        )
        if dev <= SINKHORN_TOL:
            break
    else:
        raise ConvergenceError(
            f"doubly stochastic scaling did not reach {SINKHORN_TOL:g} in {rounds} rounds",
            last=s,
            residuals=[dev],
        )
    s /= s.sum(axis=1, keepdims=True)
    return s


def uniform_q(rng: np.random.Generator, lo: float, hi: float) -> float:
    """A fuzz trial's q: one ``rng.uniform`` call."""
    return float(rng.uniform(lo, hi))


def _axis(rng, lo=2, hi=6):
    return int(rng.integers(lo, hi + 1))


def flat_dirichlet(shape, rng: np.random.Generator) -> np.ndarray:
    """Unit exponentials of one call over all cells, divided by their sum."""
    e = rng.standard_exponential(shape)
    return e / e.sum()


def markov_triple(shapes, rng: np.random.Generator) -> np.ndarray:
    """p(x) p(y|x) p(z|y), each factor row its own ``flat_dirichlet`` draw."""
    mx, my, mz = shapes
    px = flat_dirichlet(mx, rng)
    py_rows = np.stack([flat_dirichlet(my, rng) for _ in range(mx)])
    pz_rows = np.stack([flat_dirichlet(mz, rng) for _ in range(my)])
    return px[:, None, None] * py_rows[:, :, None] * pz_rows[None, :, :]


def _rank3(rng):
    return flat_dirichlet((_axis(rng, 2, 4), _axis(rng, 2, 4), _axis(rng, 2, 4)), rng)


def _block(rng):
    rank = int(rng.integers(2, 5))
    hi = 6 if rank == 2 else 3
    return flat_dirichlet(tuple(_axis(rng, 2, hi) for _ in range(rank)), rng)


def _weights(rng):
    m = _axis(rng, 2, 8)
    return (rng.standard_exponential(m), rng.standard_exponential(m))


def _same_length(rng):
    m = _axis(rng)
    return (flat_dirichlet(m, rng), flat_dirichlet(m, rng))


def _rel_pair(rng):
    shape = (_axis(rng, 2, 4), _axis(rng, 2, 4))
    return (flat_dirichlet(shape, rng), flat_dirichlet(shape, rng))


#: law -> rng -> instance (an array, or a pair of arrays)
SAMPLERS = {
    "joint-chain": lambda rng: flat_dirichlet((_axis(rng), _axis(rng)), rng),
    "indep-superadd": lambda rng: (flat_dirichlet(_axis(rng), rng), flat_dirichlet(_axis(rng), rng)),
    "cond-chain": _rank3,
    "block-chain": _block,
    "qln-sum": _weights,
    "dq-nonneg": _same_length,
    "max-bound": lambda rng: flat_dirichlet(_axis(rng, 2, 8), rng),
    "dpi": lambda rng: markov_triple((_axis(rng, 2, 4), _axis(rng, 2, 4), _axis(rng, 2, 4)), rng),
    "info-chain-rule": _rank3,
    "rel-chain-rule": _rel_pair,
}
