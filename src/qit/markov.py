"""Finite Markov chains: block entropies, entropy rates, second law.

A chain is a row-stochastic transition matrix plus an initial
distribution.  Two families of results live here:

* entropy-rate approximants — the block entropy over the first ``n``
  symbols divided by ``n``, and the average of the conditional
  (chain-rule) terms of the same block.  For deformation indices in
  [0, 1) the conditional average always dominates the block average; the
  gap is the accumulated interaction slack of the chain rule.  Both come
  from the state laws of ``_laws``, with no table of ``m**n`` blocks.

* a stepwise second-law report for doubly stochastic transitions.  Let
  ``psi`` be the state distribution, ``psi' = psi @ r`` its successor and
  ``J[i, j] = psi[i] r[i, j]`` the two-step joint.  With
  ``bracket = m**(1 - q)`` the exact decomposition

      delta_H * bracket  =  D_q(J || J~)  +  T_q,
      J~[i, j] = psi'[j] r[i, j],
      T_q = (1 - q) * sum_{J>0} J ln_q(psi'[j] m) ln_q(J / (psi'[j] r))

  holds for every q != 1 (and the q -> 1 limit).  When the transition is
  doubly stochastic, ``J~`` is itself a probability table, so the
  divergence — the slack ``delta_H * bracket - T_q`` — is nonnegative and
  the deformed entropy cannot decrease faster than the correction term
  allows.  The report takes the state laws from the one recursion
  ``_laws`` in blocks of steps and evaluates every piece on the block's
  ``(steps, m, m)`` stack of joints at once.  It flags whether the
  doubly-stochastic premise holds, and also carries an alternative
  correction term ``T_q_statement`` (same weights, second factor
  ``ln_q(J m)``), reported for comparison only: no law is asserted on it.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError
from .measures import _entropy_from_array
from .prob import NORM_TOL, ProbVec, _float_array, _validate_mass
from .qcore import SHANNON_TOL, cross_term, ln_q_pos, q_value

#: Sinkhorn scaling in ``random_doubly_stochastic``: row and column deviation bound, round cap.
SINKHORN_TOL, SINKHORN_ROUNDS = 1e-13, 100_000
#: Power iteration in ``stationary`` (reducible chains only): L1 residual bound, iteration cap.
STATIONARY_TOL, STATIONARY_ITERS = 1e-12, 1_000_000
#: Cells per block of ``second_law_report`` and ``MarkovChain.evolve``; their
#: memory is O(_STEP_CELLS).
_STEP_CELLS = 1 << 16


class MarkovChain:
    """Row-stochastic transition matrix with an initial distribution."""

    __slots__ = ("transition", "initial")

    def __init__(self, transition, initial=None):
        t = _float_array(transition, "transition matrix")
        if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] == 0:
            raise ValueError("transition matrix must be square and non-empty")
        # one pass over every row; only a bad matrix walks its rows, so the
        # error names the first bad row as a per-row check would
        if not ((t >= 0).all() and (np.abs(t.sum(axis=1) - 1.0) <= NORM_TOL).all()):
            for row in t:
                _validate_mass(row, "transition row")
        t.setflags(write=False)
        object.__setattr__(self, "transition", t)
        if initial is None:
            initial = ProbVec(np.full(t.shape[0], 1.0 / t.shape[0]))
        else:
            initial = ProbVec.coerce(initial)
        if len(initial) != t.shape[0]:
            raise ValueError("initial distribution length must match the state count")
        object.__setattr__(self, "initial", initial)

    def __setattr__(self, name, value):
        raise AttributeError("MarkovChain is immutable")

    @property
    def m(self) -> int:
        return self.transition.shape[0]

    def evolve(self, steps: int = 1, start=None) -> ProbVec:
        """State distribution after ``steps`` transitions.

        The laws are stepped in blocks of ``_STEP_CELLS`` cells and only
        the last is kept, so memory is O(_STEP_CELLS) whatever ``steps``.
        """
        if steps < 0:
            raise ValueError("steps must be >= 0")
        psi = (self.initial if start is None else ProbVec.coerce(start)).p
        block = max(1, _STEP_CELLS // psi.size)
        for done in range(0, steps, block):
            # a copy, so the block's laws are freed before the next block
            psi = _laws(psi, self.transition, min(block, steps - done))[-1].copy()
        return ProbVec(psi)

    def __repr__(self) -> str:
        return f"MarkovChain(m={self.m})"


def _laws(psi: np.ndarray, r: np.ndarray, steps: int) -> np.ndarray:
    """State laws ``psi_0 .. psi_steps`` as rows.

    ``psi_k`` is the column sums of the joint ``psi_{k-1}[:, None] * r``
    (the sums the second-law report weighs), renormalised to unit mass
    (floating-point hygiene over long horizons).
    """
    out = np.empty((steps + 1, psi.size))
    out[0] = psi
    for k in range(steps):
        out[k + 1] = (out[k][:, None] * r).sum(axis=0)
        out[k + 1] /= out[k + 1].sum()
    return out


def _chain_cells(psi: np.ndarray, r: np.ndarray, n: int, qv: float) -> np.ndarray:
    """``c[k, j] = sum_i psi_k[i] r[i, j] ln_q r[i, j]`` for ``k < n - 1``.

    The chain is order 1, so the chain-rule term of ``X_{k+2}`` conditions
    on ``X_{k+1}`` alone: it is ``-c[k].sum()``, whatever the length of
    the prefix.  Zero transitions give zero cells.
    """
    return _laws(psi, r, n - 1)[:-1] @ (r * ln_q_pos(np.where(r > 0, r, 1.0), qv))


def _chain_terms(psi: np.ndarray, r: np.ndarray, n: int, qv: float) -> list[float]:
    """Chain-rule terms ``[H_q(X_1), H_q(X_2 | X_1), ..]`` of the first ``n`` symbols."""
    return [_entropy_from_array(psi, qv)] + (-_chain_cells(psi, r, n, qv).sum(axis=1)).tolist()


def _block_entropy(psi: np.ndarray, r: np.ndarray, cells: np.ndarray, qv: float) -> float:
    """``H_q`` of the first ``len(cells) + 1`` symbols from their chain-rule cells.

    ``d[j]``, the sum of ``p ln_q p`` over the blocks that end in state j,
    steps by the product rule ``ln_q(p r) = r**(1-q) ln_q p + ln_q r``:
    ``d <- d @ r**(2-q) + cells[k]``, with ``r**(2-q)`` zero where r is
    (numpy's ``0**0`` is 1) and the exponent exactly 1 in the Shannon
    band, where ``ln_q`` is ``log``.  Every term has one sign, so nothing
    cancels.
    """
    on = r > 0
    rs = np.zeros_like(r)
    rs[on] = r[on] ** (1.0 if abs(1.0 - qv) <= SHANNON_TOL else 2.0 - qv)
    d = psi * ln_q_pos(np.where(psi > 0, psi, 1.0), qv)
    for row in cells:
        d = d @ rs + row
    return -float(d.sum())


def is_doubly_stochastic(r) -> bool:
    """True when both the rows and the columns of ``r`` sum to 1 within ``NORM_TOL``."""
    arr = r.transition if isinstance(r, MarkovChain) else _float_array(r, "transition matrix")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        return False
    if not np.isfinite(arr).all() or (arr < 0).any():
        return False
    return (
        float(np.abs(arr.sum(axis=1) - 1.0).max()) <= NORM_TOL
        and float(np.abs(arr.sum(axis=0) - 1.0).max()) <= NORM_TOL
    )


def random_doubly_stochastic(m: int, rng: np.random.Generator) -> np.ndarray:
    """Random doubly stochastic matrix: symmetrized Dirichlet rows, then
    alternating row/column normalization until both deviations fall
    below ``SINKHORN_TOL`` (entries are strictly positive, so the scaling always
    converges)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    a = rng.standard_exponential((m, m))
    a /= a.sum(axis=1, keepdims=True)
    s = (a + a.T) / 2.0
    for _ in range(SINKHORN_ROUNDS):
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
            f"doubly stochastic scaling did not reach {SINKHORN_TOL:g} in {SINKHORN_ROUNDS} rounds",
            last=s,
            residuals=[dev],
        )
    s /= s.sum(axis=1, keepdims=True)
    return s


def stationary(chain) -> ProbVec:
    """Stationary distribution by state reduction, or power iteration.

    The reduction is GTH elimination (Grassmann, Taksar & Heyman, 1985):
    it censors the states from the last one down, taking each state's exit
    mass as the sum of its transitions to the states left, so it only adds,
    multiplies and divides nonnegative numbers and needs no tolerance.
    When a step finds zero exit mass (a reducible chain) the law is
    iterated instead: ``psi <- (psi + psi @ r) / 2`` (the half-lazy chain,
    which shares stationary distributions with ``r`` but is never periodic)
    until ``||psi @ r - psi||_1 <= STATIONARY_TOL``, and the result depends
    on the starting distribution (the chain's own initial distribution, or
    uniform when a bare matrix is given).
    """
    if not isinstance(chain, MarkovChain):
        chain = MarkovChain(chain)
    r = chain.transition
    psi = _state_reduction(r)
    if psi is not None:
        return ProbVec(psi)
    psi = chain.initial.p.copy()
    residual = math.inf
    for _ in range(STATIONARY_ITERS):
        nxt = psi @ r
        residual = float(np.abs(nxt - psi).sum())
        if residual <= STATIONARY_TOL:
            psi /= psi.sum()
            return ProbVec(psi)
        psi = (psi + nxt) / 2.0
        psi /= psi.sum()
    raise ConvergenceError(
        f"power iteration residual {residual:.3e} above {STATIONARY_TOL:g} after {STATIONARY_ITERS} iterations",
        last=psi,
        residuals=[residual],
    )


def _state_reduction(r: np.ndarray):
    """GTH stationary law of ``r``; None when a step finds zero exit mass."""
    a = r.copy()
    m = len(a)
    for n in range(m - 1, 0, -1):
        exit_mass = a[n, :n].sum()
        if exit_mass <= 0.0:
            return None
        a[:n, n] /= exit_mass
        a[:n, :n] += a[:n, n, None] * a[n, :n]
    psi = np.zeros(m)
    psi[0] = 1.0
    for n in range(1, m):
        psi[n] = psi[:n] @ a[:n, n]
    return psi / psi.sum()


class RateApproximants(NamedTuple):
    block_rate: float
    cond_rate: float


def entropy_rate_approximants(chain: MarkovChain, n: int, q) -> RateApproximants:
    """Block-entropy rate and conditional-term rate over the first ``n`` symbols.

    ``block_rate`` is the joint entropy of the length-``n`` block divided
    by ``n``; ``cond_rate`` is the mean of the block's chain-rule terms
    (the first term is the entropy of the first symbol, unconditioned).
    For 0 <= q < 1, ``cond_rate >= block_rate``.  Any ``n`` takes
    O(n m**2) time.
    """
    if n < 1:
        raise ValueError("block length must be >= 1")
    qv = q_value(q)
    psi, r = chain.initial.p, chain.transition
    cells = _chain_cells(psi, r, n, qv)
    terms = [_entropy_from_array(psi, qv)] + (-cells.sum(axis=1)).tolist()
    return RateApproximants(block_rate=_block_entropy(psi, r, cells, qv) / n, cond_rate=float(sum(terms)) / n)


@dataclass(frozen=True)
class SecondLawRow:
    """One transition of the stepwise second-law decomposition.

    ``h_q`` is the entropy of the arrival distribution, ``delta_h`` its
    increase over the departure distribution, ``lhs = delta_h * m**(1-q)``
    and ``slack = lhs - t_q`` equals the divergence between the realized
    joint and its time-reversed reference — nonnegative whenever
    ``applicable`` (the transition is doubly stochastic) is true.
    """

    step: int
    h_q: float
    delta_h: float
    t_q: float
    lhs: float
    slack: float
    t_q_statement: float
    applicable: bool

    CSV_HEADER = "step,H_q,delta_H,T_q,lhs,slack"

    def to_csv_row(self) -> str:
        return ",".join(
            [str(self.step)]
            + [f"{v:.10g}" for v in (self.h_q, self.delta_h, self.t_q, self.lhs, self.slack)]
        )

    def to_json_dict(self) -> dict:
        return {
            "step": self.step,
            "h_q": self.h_q,
            "delta_h": self.delta_h,
            "t_q": self.t_q,
            "lhs": self.lhs,
            "slack": self.slack,
            "t_q_statement": self.t_q_statement,
            "applicable": self.applicable,
        }


def second_law_report(chain: MarkovChain, steps: int, q) -> list[SecondLawRow]:
    """Per-step second-law decomposition along the chain's trajectory.

    Asserted (slack >= 0) only for doubly stochastic transitions and
    0 <= q < 1; the report is computed for any chain in that q range and
    the ``applicable`` flag marks whether the premise holds.
    """
    qv = q_value(q)
    if not 0.0 <= qv < 1.0:
        raise ValueError(f"second-law report requires 0 <= q < 1, got {qv:g}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    r = chain.transition
    m = chain.m
    applicable = is_doubly_stochastic(chain)
    bracket = float(m) ** (1.0 - qv)
    block = max(1, _STEP_CELLS // m**2)
    rows = []
    psi = chain.initial.p
    for start in range(0, steps, block):
        laws = _laws(psi, r, min(block, steps - start))
        psi, nxt = laws[-1], laws[1:, None, :]
        # Zero cells get weight 0 and q-log arguments 1, so they add exact zeros;
        # from 8 cells on they regroup numpy's pairwise sums (last bits only).
        h = -(laws * ln_q_pos(np.where(laws > 0, laws, 1.0), qv)).sum(axis=-1)
        joint = laws[:-1, :, None] * r
        on = joint > 0
        w = joint.reshape(len(nxt), -1)
        ratio = np.where(on, joint, 1.0) / np.where(on, nxt * r, 1.0)
        t_q, t_q_stmt = cross_term(
            w,
            np.where(on, nxt * m, 1.0).reshape(w.shape),
            np.stack([ratio, np.where(on, joint * m, 1.0)]).reshape(2, *w.shape),
            qv,
        )
        rows += [
            SecondLawRow(start + i + 1, h_q, d, t, d * bracket, d * bracket - t, s / bracket, applicable)
            for i, (h_q, d, t, s) in enumerate(zip(h[1:].tolist(), np.diff(h).tolist(), t_q, t_q_stmt))
        ]
    return rows
