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
  ``(steps, m, m)`` stack of joints at once, in O(m**2 + _STEP_CELLS)
  memory at any length.  Only the q-logs depend on q; a block takes them
  in one pass over its flat array of arguments, and a one-block report
  keeps its block in a memo for the next q of its (chain, start, steps).
  The report flags whether the doubly-stochastic premise holds, with the
  transition's largest row- or column-sum error, and also carries an
  alternative correction term ``T_q_statement`` (same weights, second
  factor ``ln_q(J m)``), reported for comparison only: no law is
  asserted on it.

Every state law outside ``stationary`` comes from ``_laws``, which stops
stepping once a law repeats an earlier one byte for byte.  In floating
point most chains land on a fixed point or a short cycle within tens of
steps, and the rest of the block is copied from that cycle.
"""

import math
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError
from .measures import _entropy_rows, _plogp
from .prob import NORM_TOL, ProbVec, _count, _csv_row, _float_array, _validate_mass
from .qcore import SHANNON_TOL, ln_q_pos, q_value

#: Sinkhorn scaling in ``random_doubly_stochastic``: row and column deviation bound, round cap.
SINKHORN_TOL, SINKHORN_ROUNDS = 1e-13, 100_000
#: Power iteration in ``stationary`` (reducible chains only): L1 residual bound, iteration cap.
STATIONARY_TOL, STATIONARY_ITERS = 1e-12, 1_000_000
#: Cells per block of ``second_law_report``, ``evolve`` and smb's k = 0 laws;
#: a block is at least one step, so memory is O(m**2 + _STEP_CELLS).
_STEP_CELLS = 1 << 16
#: Most one-block second-law reports kept for later q, each of at most _STEP_CELLS joint cells.
_BLOCK_MEMO_CAP = 4
_block_memo: dict = {}


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
        m = t.shape[0]
        if initial is None:
            initial = ProbVec(np.full(m, 1.0 / m))
        object.__setattr__(self, "initial", _start_law(initial, m))

    def __setattr__(self, name, value):
        raise AttributeError("MarkovChain is immutable")

    @property
    def m(self) -> int:
        return self.transition.shape[0]

    def evolve(self, steps: int = 1, start=None) -> ProbVec:
        """State distribution after ``steps`` transitions.

        The laws are stepped in blocks of ``_STEP_CELLS`` cells and only
        the last is kept, so memory is O(m**2 + _STEP_CELLS) whatever ``steps``.
        """
        steps = _count(steps, "steps", 0)
        psi = (self.initial if start is None else _start_law(start, self.m)).p
        block = max(1, _STEP_CELLS // psi.size)
        for done in range(0, steps, block):
            # a copy, so the block's laws are freed before the next block
            psi = _laws(psi, self.transition, min(block, steps - done))[-1].copy()
        return ProbVec(psi)

    def __repr__(self) -> str:
        return f"MarkovChain(m={self.m})"


def _start_law(start, m: int) -> ProbVec:
    """``start`` as a distribution over the chain's ``m`` states."""
    start = ProbVec.coerce(start)
    if len(start) != m:
        raise ValueError("initial distribution length must match the state count")
    return start


def _laws(psi: np.ndarray, r: np.ndarray, steps: int) -> np.ndarray:
    """State laws ``psi_0 .. psi_steps`` as rows.

    ``psi_k`` is the column sums of the joint ``psi_{k-1}[:, None] * r``
    (the sums the second-law report weighs), renormalised to unit mass
    (floating-point hygiene over long horizons).

    A step is a function of the law's bytes and ``r``, so once ``psi_k``
    repeats an earlier law byte for byte the rest of the block is that
    cycle again, and it is copied rather than stepped.  Brent's cycle
    check (BIT 20, 1980) keeps one saved law and moves it ahead each time
    the distance to it reaches a power of two: it finds any period in
    O(1) memory, and a step compares one float before the bytes.
    """
    out = np.empty((steps + 1, psi.size))
    out[0] = psi
    # bare ufunc calls into one scratch joint: the same adds, in the same
    # order, as ``(psi[:, None] * r).sum(axis=0)`` and ``nxt.sum()``
    joint = np.empty_like(r)
    mark, span = 0, 1
    first, saved = out[0, 0], out[0].tobytes()
    for k, (col, nxt) in enumerate(zip(out[:-1, :, None], out[1:]), 1):
        np.multiply(col, r, joint)
        np.add.reduce(joint, 0, None, nxt)
        np.divide(nxt, np.add.reduce(nxt), nxt)
        if nxt[0] == first and nxt.tobytes() == saved:
            # rows mark .. k hold whole periods; each copy doubles them
            period, done = k - mark, k + 1
            while done <= steps:
                back = (done - mark) // period * period
                n = min(back, steps + 1 - done)
                out[done : done + n] = out[done - back : done - back + n]
                done += n
            break
        if k - mark == span:
            mark, span, first, saved = k, 2 * span, nxt[0], nxt.tobytes()
    return out


def _chain_cells(psi: np.ndarray, r: np.ndarray, n: int, qv: float) -> np.ndarray:
    """``c[k, j] = sum_i psi_k[i] r[i, j] ln_q r[i, j]`` for ``k < n - 1``.

    The chain is order 1, so the chain-rule term of ``X_{k+2}`` conditions
    on ``X_{k+1}`` alone: it is ``-c[k].sum()``, whatever the length of
    the prefix.  Zero transitions give zero cells.
    """
    return _laws(psi, r, n - 1)[:-1] @ _plogp(r, qv)


def _chain_terms(psi: np.ndarray, cells: np.ndarray, qv: float) -> list[float]:
    """Chain-rule terms ``[H_q(X_1), H_q(X_2 | X_1), ..]`` of the first
    ``len(cells) + 1`` symbols from their chain-rule cells."""
    return _entropy_rows(psi[None], qv).tolist() + (0.0 - cells.sum(axis=1)).tolist()


@np.errstate(over="ignore", invalid="ignore")  # q > 1: H_q grows past the float range
def _block_entropy(psi: np.ndarray, r: np.ndarray, cells: np.ndarray, qv: float) -> float:
    """``H_q`` of the first ``len(cells) + 1`` symbols from their chain-rule cells.

    ``d[j]``, the sum of ``p ln_q p`` over the blocks that end in state j,
    steps by the product rule ``ln_q(p r) = r**(1-q) ln_q p + ln_q r``:
    ``d <- d @ r**(2-q) + cells[k]``, with ``r**(2-q)`` zero where r is
    (numpy's ``0**0`` is 1) and the exponent exactly 1 in the Shannon
    band, where ``ln_q`` is ``log``.  Every term has one sign, so nothing
    cancels.  For q > 1 the value grows geometrically in the length and
    is inf once it passes the float range.
    """
    on = r > 0
    rs = np.zeros_like(r)
    rs[on] = r[on] ** (1.0 if abs(1.0 - qv) <= SHANNON_TOL else 2.0 - qv)
    d = _plogp(psi, qv)
    for row in cells:
        d = d @ rs + row
    h = 0.0 - float(d.sum())
    # past the float range d holds -inf, which a zero transition turns
    # into -inf * 0 = nan; the sum is beyond the range either way
    return math.inf if math.isnan(h) else h


def _sum_error(sums: np.ndarray) -> float:
    """Largest distance of a row or column sum in ``sums`` from 1."""
    return float(np.maximum.reduce(np.abs(sums - 1.0), None))


def _ds_deviation(r: np.ndarray) -> float:
    """Largest row-sum or column-sum error of a square matrix ``r``."""
    return max(_sum_error(np.add.reduce(r, 1)), _sum_error(np.add.reduce(r, 0)))


def is_doubly_stochastic(r) -> bool:
    """True when both the rows and the columns of ``r`` sum to 1 within ``NORM_TOL``."""
    arr = r.transition if isinstance(r, MarkovChain) else _float_array(r, "transition matrix")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        return False
    if not np.isfinite(arr).all() or (arr < 0).any():
        return False
    return _ds_deviation(arr) <= NORM_TOL


def random_doubly_stochastic(m: int, rng: np.random.Generator) -> np.ndarray:
    """Random doubly stochastic matrix: symmetrized Dirichlet rows, then
    alternating row/column normalization until both deviations fall
    below ``SINKHORN_TOL`` (entries are strictly positive, so the scaling always
    converges)."""
    m = _count(m, "m")
    a = rng.standard_exponential((m, m))
    a /= np.add.reduce(a, 1, keepdims=True)
    s = (a + a.T) / 2.0
    # one buffer of row and column sums; the row sums that a round checks
    # are the next round's (and the final) divisor
    sums = np.empty((2, m))
    rows, cols = sums[0, :, None], sums[1]
    np.add.reduce(s, 1, None, sums[0])
    for _ in range(SINKHORN_ROUNDS):
        s /= rows
        s /= np.add.reduce(s, 0, None, cols)
        np.add.reduce(s, 1, None, sums[0])
        np.add.reduce(s, 0, None, cols)
        dev = _sum_error(sums)
        if dev <= SINKHORN_TOL:
            break
    else:
        raise ConvergenceError(
            f"doubly stochastic scaling did not reach {SINKHORN_TOL:g} in {SINKHORN_ROUNDS} rounds",
            last=s,
            residuals=[dev],
        )
    s /= rows
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
    For 0 <= q < 1, ``cond_rate >= block_rate``.  For q > 1 the block
    entropy grows geometrically in ``n``, and ``block_rate`` is inf once
    it passes the float range.  Any ``n`` takes O(n m**2) time and
    O(n m) memory (48.8 MiB at n = 10**5, m = 32): the laws stay whole,
    since a matrix product of a block of few rows rounds differently.
    """
    n = _count(n, "block length")
    qv = q_value(q)
    psi, r = chain.initial.p, chain.transition
    cells = _chain_cells(psi, r, n, qv)
    cond_rate = float(sum(_chain_terms(psi, cells, qv))) / n
    return RateApproximants(block_rate=_block_entropy(psi, r, cells, qv) / n, cond_rate=cond_rate)


class SecondLawRow(NamedTuple):
    """One transition of the stepwise second-law decomposition.

    ``h_q`` is the entropy of the arrival distribution, ``delta_h`` its
    increase over the departure distribution, ``lhs = delta_h * m**(1-q)``
    and ``slack = lhs - t_q`` equals the divergence between the realized
    joint and its time-reversed reference — nonnegative whenever
    ``applicable`` (the transition is doubly stochastic) is true.
    ``ds_deviation`` is the transition's largest row-sum or column-sum
    error (JSON only); ``applicable`` holds it to ``NORM_TOL``, and is
    derived rather than stored, so a row keeps eight fields.
    """

    step: int
    h_q: float
    delta_h: float
    t_q: float
    lhs: float
    slack: float
    t_q_statement: float
    ds_deviation: float

    CSV_HEADER = "step,H_q,delta_H,T_q,lhs,slack"

    @property
    def applicable(self) -> bool:
        return self.ds_deviation <= NORM_TOL

    def to_csv_row(self) -> str:
        return _csv_row(self[:6])  # step .. slack, the CSV_HEADER fields

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "applicable": self.applicable}


def _law_block(psi: np.ndarray, r: np.ndarray, steps: int):
    """The q-free arrays of one block of ``steps`` second-law steps.

    Returns the laws ``psi_0 .. psi_steps``, the joints as ``(steps, m*m)``
    weight rows ``w``, one flat array ``args`` of the block's q-log
    arguments and ``_ds_deviation(r)``.  ``_arg_parts`` cuts ``args`` into
    the laws with their zeros set to 1 (for ``H_q``), the first cross-term
    factor ``a`` and the ``(2, steps, m*m)`` stack ``b`` of second factors
    (the reference ratio for ``T_q`` and ``J m`` for ``T_q_statement``);
    ``a`` and ``b`` are 1 on the joint's zero cells.  Nothing is kept, and
    the parts are filled in place for one q-log pass with no temporaries.
    """
    m = r.shape[0]
    laws = _laws(psi, r, steps)
    nxt = laws[1:, None, :]
    joint = laws[:-1, :, None] * r
    w = joint.reshape(steps, -1)
    args = np.empty(laws.size + 3 * w.size)
    p, a, b = _arg_parts(args, laws, w)
    a, b = a.reshape(joint.shape), b.reshape(2, *joint.shape)
    np.copyto(p, laws)
    np.multiply(nxt, m, a)
    np.multiply(nxt, r, b[0])
    on = joint > 0
    np.divide(joint, b[0], b[0], where=on)
    np.multiply(joint, m, b[1])
    # a positive joint has positive laws on both sides of each step
    if not on.all():
        off = ~on
        p[laws <= 0] = 1.0
        np.copyto(a, 1.0, where=off)
        np.copyto(b, 1.0, where=off)
    return laws, w, args, _ds_deviation(r)


def _kept_block(psi: np.ndarray, r: np.ndarray, steps: int):
    """``_law_block`` kept under the exact contents of ``r`` and ``psi`` and
    ``steps``; hits are read-only, and the least recently used goes past the cap."""
    key = (r.tobytes(), psi.tobytes(), steps)
    block = _block_memo.pop(key, None)
    if block is None:
        block = _law_block(psi, r, steps)
        for arr in block[:3]:
            arr.setflags(write=False)
        if len(_block_memo) >= _BLOCK_MEMO_CAP:
            del _block_memo[next(iter(_block_memo))]
    _block_memo[key] = block
    return block


def _arg_parts(flat: np.ndarray, laws: np.ndarray, w: np.ndarray):
    """Views of ``flat``, laid out as ``args`` of ``_law_block``: a part
    shaped as ``laws``, one shaped as ``w`` and a ``(2, *w.shape)`` stack."""
    i, j = laws.size, laws.size + w.size
    return flat[:i].reshape(laws.shape), flat[i:j].reshape(w.shape), flat[j:].reshape(2, *w.shape)


def _block_terms(laws: np.ndarray, w: np.ndarray, args: np.ndarray, qv: float):
    """``H_q`` of each law and the ``(2, steps)`` cross terms of a block.

    One q-log pass over ``args``, then the products and row sums of
    ``_entropy_rows`` and ``cross_term``, so the bits are theirs.  Zero
    cells add exact zeros; from 8 cells on they regroup numpy's pairwise
    sums (last bits only).  The logs die on return.
    """
    ln_p, ln_a, ln_b = _arg_parts(ln_q_pos(args, qv), laws, w)
    return 0.0 - (laws * ln_p).sum(axis=-1), (1.0 - qv) * (w * ln_a * ln_b).sum(axis=-1)


def second_law_report(chain: MarkovChain, steps: int, q) -> list[SecondLawRow]:
    """Per-step second-law decomposition along the chain's trajectory.

    Asserted (slack >= 0) only for doubly stochastic transitions and
    0 <= q < 1; the report is computed for any chain in that q range and
    the ``applicable`` flag marks whether the premise holds.

    Memory is O(m**2 + _STEP_CELLS): a block is at most ``_STEP_CELLS``
    joint cells, or one step.  Only a report of one block is kept for the
    next q of its (chain, start, steps), so a q-sweep of reports with
    ``steps * m * m <= _STEP_CELLS`` steps its chain once.
    """
    qv = q_value(q)
    if not 0.0 <= qv < 1.0:
        raise ValueError(f"second-law report requires 0 <= q < 1, got {qv:g}")
    steps = _count(steps, "steps")
    r, m = chain.transition, chain.m
    bracket = float(m) ** (1.0 - qv)
    block = max(1, _STEP_CELLS // m**2)
    law_block = _kept_block if steps * m * m <= _STEP_CELLS else _law_block
    rows = []
    psi = chain.initial.p
    for start in range(0, steps, block):
        laws, w, args, dev = law_block(psi, r, min(block, steps - start))
        psi = laws[-1]
        h, (t_q, t_q_stmt) = _block_terms(laws, w, args, qv)
        # elementwise array operations round as the scalar ones do
        delta = h[1:] - h[:-1]
        lhs = delta * bracket
        # tuple.__new__ makes each row as ``_make`` does, without its Python
        # frame; zip gives the eight fields
        rows.extend(
            map(
                tuple.__new__,
                repeat(SecondLawRow),
                zip(
                    range(start + 1, start + len(delta) + 1),
                    h[1:].tolist(),
                    delta.tolist(),
                    t_q.tolist(),
                    lhs.tolist(),
                    (lhs - t_q).tolist(),
                    (t_q_stmt / bracket).tolist(),
                    repeat(dev),
                ),
            )
        )
    return rows
