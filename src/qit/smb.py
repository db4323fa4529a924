"""Empirical per-symbol surprisal of Markov trajectories, deformed family.

For a trajectory block ``x_0 .. x_{n-1}`` with probability ``p`` the
per-symbol deformed surprisal is ``-ln_q(p) / n``.  For q < 1 the
deformed surprisal of ANY event is bounded by ``1 / (1 - q)``, so the
per-symbol value is hard-capped at ``1 / ((1 - q) n)`` no matter how the
trajectory behaves — the probe exists to measure what the statistic
actually does against that ceiling.

Everything is computed in log space: ``p`` itself underflows for blocks
beyond a few thousand symbols, but ``L = log p`` accumulates exactly, and

    ln_q(p) = (exp((1 - q) L) - 1) / (1 - q)

is evaluated from ``L`` directly by ``qcore.ln_q_from_log``, which keeps
the digits that subtraction would cancel; so is every factor q-log.  When
``(1 - q) L`` underflows the exponential, the surprisal lands exactly on
the q < 1 ceiling; the mathematical bound is strict, the floating-point
one is not, and the internal guard below is therefore non-strict on
purpose.

The decomposition reported per block splits ``-ln_q p`` into the sum of
per-factor surprisals (head term plus conditional terms) and a residual
cross term ``T3 = -t3_residual(factors)``, which is nonpositive for
q < 1 because deformed logs are superadditive over products of
probabilities.

Sampling discipline: trajectory ``t`` of a probe draws its uniforms from
stream ``t`` of the master seed, chunk by chunk as the probe scans time.
A generator yields the same stream however its draws are split, and the
probe and ``sample_trajectory`` drive the same walk (``_walk``), so probe
trajectory ``t`` is ``sample_trajectory`` of the chain started at its
stationary law, with ``n_max + 1`` symbols and the generator
``make_rng(seed, t)``.  The probe keeps only per-trajectory running sums
and the values at its grid lengths, so its memory is
O(trajectories * chunk), whatever the length.

The walk steps every trajectory at once, one position after another, by
inverse-CDF lookup.  A guide table and a bisection of its bucket find,
for every draw of a chunk at once, how many distinct cumulative columns
lie below it (Chen & Asau 1974), and each step is then one gather from a
table of next states (``_walk_table``, built once per probe) over row
views built once with the workspace.  The time scan writes into that one
workspace, so no chunk allocates an array of its size.  A table parallel
to the next states holds each step's three running-sum terms and a pad,
a 32-byte row (numpy gathers rows of 32 bytes on a fast copy path, not
of 24), so one gather a chunk lays every term in the rows of the sums,
which one in-order reduce per grid length in the chunk keeps, not a
running cumsum over every position.  Every order k reads its factors from
that table: a transition for k >= 1, and for k = 0 the law of the step's
next state, which is the one-step law of the stationary start at every
position.
"""

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ImpossibleTrajectoryError
from .markov import MarkovChain, _chain_cells, _chain_terms, _laws, stationary
from .prob import _count, _csv_row, make_rng
from .qcore import SHANNON_TOL, ln_q_from_log, ln_q_pos, q_value


#: Positions per chunk of the walk and of the probe's time scan; the
#: probe's memory is O(T * _CHUNK).
_CHUNK = 256
#: Largest guide of ``_walk_table``.  Distinct columns closer than
#: 1 / G share a bucket at any guide size G, so the doubling has to stop;
#: the bisection over a bucket then costs log2 of its count.  At 2**14
#: buckets (128 KiB), chains with Dirichlet(1) rows held at most 4
#: distinct columns in a bucket at m = 64 (3 passes, 20 chains) and 14
#: or 15 at m = 256 (4 passes, 5 chains).
_GUIDE_CAP = 1 << 14


def _cum_rows(p: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, the last one pinned to 1 so every draw lands."""
    c = np.cumsum(p, axis=-1)
    c[..., -1] = 1.0
    return c


def _advance(cum_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Next states from cumulative rows (k, m) and uniform draws (k,).

    The next state is the number of columns strictly below the draw; the
    last column is pinned to 1, never below a draw, so it is at most m - 1.
    """
    return (cum_rows < u[:, None]).sum(axis=1)


class _WalkTable(NamedTuple):
    """The walk's tables for one transition; see ``_walk_table``."""

    vals: np.ndarray  # the distinct cumulative columns, sorted, 1.0 among them
    flat: np.ndarray  # flat[j * m + s]: the next state from s past j values
    guide: np.ndarray  # guide[g]: the values below g / G, G = guide.size
    passes: int  # bisection passes after the guide: log2 of its largest bucket, rounded up


def _walk_table(rcum: np.ndarray) -> _WalkTable:
    """The walk's tables for the cumulative transition rows ``rcum``.

    The next state from s counts the inner columns of ``rcum[s]``
    strictly below the draw.  Every column is one of ``vals``, the
    distinct inner columns and 1.0, sorted, so it depends on the draw
    only through j, the number of ``vals`` below it: a draw passes tied
    columns all together or not at all.  ``flat[j * m + s]`` is that next
    state, the table ``nxt[j, s]`` row by row; it has m entries per
    distinct column, so at most m (m (m - 1) + 1).

    j comes from a guide table (Chen & Asau 1974; Devroye 1986,
    section III.2.4): a draw u lies in bucket ``floor(u G)`` of G equal
    buckets, G a power of two so that ``u G`` is exact, and ``guide[g]``
    values lie below the bucket's left edge ``g / G``.  Only the values
    inside the bucket remain, and ``passes`` bisection passes, enough
    for the most any bucket holds, end on j.  G doubles from 1 until no
    bucket holds two values or G reaches ``_GUIDE_CAP``.  1.0 is never
    below a draw, so j stops at or before it.
    """
    inner = rcum[:, :-1]
    cols = np.sort(np.append(inner, 1.0))
    vals = cols[np.append(True, cols[1:] != cols[:-1])]  # each distinct column once
    # a row's cumulative columns are sorted, so this counts those below vals[j]
    nxt = np.stack([row.searchsorted(vals) for row in inner], axis=1)
    size = 1
    while True:
        # edges[g] = g / G, exact; below[g]: the values below edge g
        below = vals.searchsorted(np.arange(size + 1) / size)
        most = int(np.diff(below).max())
        if most <= 1 or size == _GUIDE_CAP:
            break
        size *= 2
    return _WalkTable(vals, nxt.ravel(), below[:-1], most.bit_length())


class _WalkSpace(NamedTuple):
    """The walk's workspace for T trajectories and chunks of up to w positions."""

    syms: np.ndarray  # (w + 1, T): row 0 the state carried in, row i after step i
    kb: np.ndarray  # (w, T): step i's index ``j * m + syms[i]`` into ``flat``
    scratch: np.ndarray  # (w, T) floats: the values a pass tests
    passed: np.ndarray  # (w, T) bools: the draws past those values
    steps: list  # the row views (kb[i], syms[i], syms[i + 1]) of step i


def _walk_space(big_t: int, width: int) -> _WalkSpace:
    """A walk workspace whose step row views are built once, here."""
    syms = np.empty((width + 1, big_t), dtype=np.int64)
    kb = np.empty((width, big_t), dtype=np.int64)
    steps = [(kb[i], syms[i], syms[i + 1]) for i in range(width)]
    return _WalkSpace(syms, kb, np.empty((width, big_t)), np.empty((width, big_t), dtype=bool), steps)


def _walk(table: _WalkTable, u: np.ndarray, ws: _WalkSpace) -> np.ndarray:
    """Step T walks from the states ``ws.syms[0]`` (T,) by the uniforms ``u`` (T, c).

    Fills ``ws.syms[1 : c + 1]`` with the state after each step, as
    ``_advance`` takes it, and returns ``ws.syms[: c + 1]``.  ``table`` is
    ``_walk_table`` of the transition.  ``ws.kb[:c]`` is left holding
    step i's index ``j * m + syms[i]`` into ``table.flat``, so a table
    parallel to ``flat`` gives any function of the steps in one gather.

    All c * T counts j come first, from the guide and a branch-free
    bisection of each draw's bucket: pass p tests the value 2**p - 1
    places past j and, if the draw is above it, moves j 2**p on.  The
    positions cannot run in parallel, so a step costs numpy's per-call
    overhead; the table keeps it at two calls whatever m is, on row views
    the workspace built once.
    """
    vals, flat, guide, passes = table
    c = u.shape[1]
    m = flat.size // vals.size
    kb, below, passed = ws.kb[:c], ws.scratch[:c], ws.passed[:c]
    # the states the steps fill in last hold each draw's bucket, then the
    # values a pass tests: indices apart from ``kb``, so no take aliases
    at = ws.syms[1 : c + 1]
    ut = u.T
    np.multiply(ut, guide.size, out=below)  # exact: the guide size is a power of two
    np.copyto(at, below, casting="unsafe")  # truncation: floor of a nonnegative product
    # indices always lie in the tables, or past the end of ``vals``, whose
    # last value no draw passes; "clip" writes ``out`` unbuffered
    guide.take(at, out=kb, mode="clip")
    for p in range(passes - 1, 0, -1):
        np.add(kb, (1 << p) - 1, out=at)
        vals.take(at, out=below, mode="clip")
        np.less(below, ut, out=passed)
        np.multiply(passed, 1 << p, out=at)
        kb += at
    if passes:  # p = 0: the value at j itself
        vals.take(kb, out=below, mode="clip")
        np.less(below, ut, out=passed)
        kb += passed
    kb *= m  # offset of row j in ``flat``
    add, take = np.add, flat.take
    for k_row, s_row, s_next in ws.steps[:c]:
        add(k_row, s_row, k_row)
        take(k_row, None, s_next, "clip")
    return ws.syms[: c + 1]


@dataclass(frozen=True)
class Trajectory:
    """An observed state sequence over the alphabet {0, .., m-1}."""

    symbols: np.ndarray
    m: int

    def __init__(self, symbols, m):
        m = _count(m, "m")
        arr = np.asarray(symbols)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("a trajectory needs at least one symbol")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("trajectory symbols must be integers")
        arr = arr.astype(np.int64)
        if arr.min() < 0 or arr.max() >= m:
            raise ValueError("trajectory symbols must lie in [0, m)")
        arr.setflags(write=False)
        object.__setattr__(self, "symbols", arr)
        object.__setattr__(self, "m", m)

    def __len__(self) -> int:
        return int(self.symbols.size)


def sample_trajectory(chain: MarkovChain, length: int, rng: np.random.Generator) -> Trajectory:
    """Draw ``length`` symbols, one uniform per symbol.

    The uniforms are drawn chunk by chunk as the walk runs, ``_CHUNK``
    steps at a time (a generator yields the same stream however its
    draws are split), so beside the symbols its memory is O(_CHUNK) at
    any length.
    """
    length = _count(length, "length")
    out = np.empty(length, dtype=np.int64)
    out[0] = _advance(_cum_rows(chain.initial.p)[None, :], rng.random(1))[0]
    table = _walk_table(_cum_rows(chain.transition))
    ws = _walk_space(1, min(_CHUNK, length - 1))
    ws.syms[0] = out[0]
    for a in range(1, length, _CHUNK):
        c = min(_CHUNK, length - a)
        out[a : a + c] = _walk(table, rng.random((1, c)), ws)[1:, 0]
        ws.syms[0] = ws.syms[c]
    return Trajectory(out, chain.m)


def _coerce_symbols(symbols, m: int) -> np.ndarray:
    if isinstance(symbols, Trajectory):
        if symbols.m != m:
            raise ValueError(f"trajectory alphabet size {symbols.m} != chain size {m}")
        return symbols.symbols
    return Trajectory(symbols, m).symbols


def _ln_q_of_product(f: np.ndarray, qv: float, describe) -> float:
    """``ln_q`` of the product of the factors ``f``, from the sum of their logs.

    A zero factor raises ImpossibleTrajectoryError with ``describe(i)`` of
    the first one, ``i`` its index.
    """
    zero = np.flatnonzero(f <= 0.0)
    if zero.size:
        raise ImpossibleTrajectoryError(f"the chain assigns probability zero to {describe(zero[0])}")
    # cumsum adds the logs one at a time in block order, as a loop would
    return float(ln_q_from_log(np.cumsum(np.log(f))[-1], qv))


@np.errstate(over="ignore")  # q > 1: ln_q of a tiny p overflows to -inf
def block_log_prob_q(chain: MarkovChain, symbols, q) -> float:
    """``ln_q`` of the probability the chain assigns to the symbol block.

    The first symbol is weighted by the chain's initial distribution.
    Nonpositive for probability blocks; computed from the accumulated
    natural log so arbitrarily long blocks stay finite and exact.
    """
    qv = q_value(q)
    s = _coerce_symbols(symbols, chain.m)
    f = np.concatenate([chain.initial.p[s[:1]], chain.transition[s[:-1], s[1:]]])
    return _ln_q_of_product(f, qv, lambda i: f"transition {s[i - 1]} -> {s[i]}" if i else f"initial state {s[0]}")


@np.errstate(over="ignore")
def markov_k_block_log_prob_q(chain: MarkovChain, symbols, k: int, q, *, empirical: bool = False) -> float:
    """``ln_q`` of the order-``k`` approximation of the block probability.

    The approximation keeps the exact law of the first ``k`` symbols and
    conditions every later symbol on its ``k`` predecessors only.  With
    ``empirical=False`` those conditional laws come from the chain itself
    (for k >= 1 this reproduces ``block_log_prob_q`` exactly, because the
    chain is order 1); with ``empirical=True`` they are the plug-in
    frequencies counted inside the observed block, and the chain is used
    only for its alphabet size.  ``k = 0`` uses per-position marginals.
    """
    qv = q_value(q)
    k = _count(k, "order k", 0)
    if k >= 1 and not empirical:
        # order-1 truth: the exact head and every k-window conditional
        # reduce to one-step transition factors
        return block_log_prob_q(chain, symbols, qv)
    s = _coerce_symbols(symbols, chain.m)
    n = s.size
    if empirical:
        if n < k + 1:
            raise ValueError("empirical estimation needs a block longer than the order")
        # g: ids of the k-grams at positions 0 .. n - k; pair: ids of the
        # (k + 1)-grams at 0 .. n - k - 1, a k-gram id and its successor
        g = np.unique(sliding_window_view(s, k), axis=0, return_inverse=True)[1] if k else np.zeros(n + 1, np.int64)
        pair = g[:-1] * chain.m + s[k:]
        # head: share of the k-grams equal to the first; then each symbol's
        # count after its context over the context's successor count
        head = np.bincount(g)[g[0]] / g.size
        f = np.concatenate([[head], np.bincount(pair)[pair] / np.bincount(g[:-1])[g[:-1]]])
    else:
        f = _laws(chain.initial.p, chain.transition, n - 1)[np.arange(n), s]
    return _ln_q_of_product(f, qv, lambda i: f"symbol {s[i]} at position {i}")


@np.errstate(over="ignore")
def t3_residual(factors, q) -> float:
    """``ln_q(prod factors) - sum ln_q(factor)`` for positive factors.

    This is the cross term by which the deformed log of a product exceeds
    the sum of deformed logs; it is nonnegative when q < 1 and every
    factor lies in (0, 1].  Exactly zero at the classical index.
    """
    qv = q_value(q)
    f = np.asarray(factors, dtype=float)
    if f.ndim != 1 or f.size == 0:
        raise ValueError("factors must be a non-empty 1-D sequence")
    if not np.isfinite(f).all() or (f <= 0).any():
        raise ValueError("factors must be finite and strictly positive")
    return float(ln_q_from_log(float(np.log(f).sum()), qv)) - float(ln_q_pos(f, qv).sum())


def h_q_k(chain: MarkovChain, k: int, q) -> float:
    """Conditional-entropy rate approximant of order ``k``.

    The entropy of one more symbol given ``k`` predecessors, under the
    stationary law of the chain.  For an order-1 chain this is constant
    for all k >= 1; it is the chain-rule term of the pair law of the
    stationary start evolved ``k - 1`` steps, which costs O(k m^2) time
    and O(k m) memory on m states.
    """
    k = _count(k, "order k", 0)
    return _h_q_k(chain.transition, stationary(chain).p, k, q_value(q))


def h_q_inf(chain: MarkovChain, q) -> float:
    """Entropy rate ``H_q(X_2 | X_1)`` of the chain from its stationary law.

    Every order k >= 1 gives this value for an order-1 chain, so it is
    ``h_q_k(chain, 1, q)``, bit for bit.
    """
    return _h_q_k(chain.transition, stationary(chain).p, 1, q_value(q))


def _h_q_k(r: np.ndarray, st: np.ndarray, k: int, qv: float) -> float:
    """``h_q_k`` of order ``k`` for the transition ``r`` with stationary law ``st``."""
    return _chain_terms(st, _chain_cells(st, r, k + 1, qv), qv)[k]


@dataclass(frozen=True)
class SmbPoint:
    """Cross-trajectory statistics of one block length.

    For q > 1 the per-symbol value ``-ln_q(p) / n`` of a block of tiny
    probability p overflows to +inf; ``block_mean`` is then inf and
    ``block_sd`` nan, and ``ratio2_mean`` is inf where ``p / p_k``
    overflows.
    """

    n: int
    block_mean: float
    block_sd: float
    pk_mean: float
    t3_over_n_mean: float
    cond_c1_rate: float
    cond_c2_rate: float
    ratio1_mean: float
    ratio2_mean: float
    at_ceiling: float  # fraction of trajectories on the 1/((1-q)n) ceiling; 0 for q >= 1

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SmbCurve:
    """A full probe: one SmbPoint per grid length plus chain-level rates."""

    q: float
    k: int
    n_max: int
    trajectories: int
    seed: int
    h_q_k: float
    h_q_inf: float
    surprisal_sup: float  # sup of -ln_q(p) over events; inf for q >= 1
    flags: dict
    points: tuple

    CSV_HEADER = (
        "n,block_mean,block_sd,pk_mean,t3_over_n_mean,"
        "cond_c1_rate,cond_c2_rate,ratio1_mean,ratio2_mean,h_q_k,h_q_inf"
    )

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for pt in self.points:
            values = (
                pt.n,
                pt.block_mean,
                pt.block_sd,
                pt.pk_mean,
                pt.t3_over_n_mean,
                pt.cond_c1_rate,
                pt.cond_c2_rate,
                pt.ratio1_mean,
                pt.ratio2_mean,
                self.h_q_k,
                self.h_q_inf,
            )
            lines.append(_csv_row(values))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {**asdict(self), "points": [pt.to_json_dict() for pt in self.points]}


def _grid(n_max: int) -> list:
    ns = []
    p = 1
    while p <= n_max:
        ns.append(p)
        p *= 2
    if ns[-1] != n_max:
        ns.append(n_max)
    return ns


def _std(v: np.ndarray) -> float:
    """``v.std()`` taken on ``v`` scaled down by a power of two, so squares cannot overflow.

    The scaling is exact, so this equals ``v.std()`` bit for bit wherever
    that is finite.  Vectors below 1 in magnitude are left unscaled.
    """
    e = max(int(np.frexp(np.abs(v).max())[1]), 0)
    return float(np.ldexp(np.ldexp(v, -e).std(), e))


def smb_probe(chain: MarkovChain, q, n_max: int, trajectories: int, seed: int = 0, k: int = 1) -> SmbCurve:
    """Sample trajectories under the stationary start and track the
    per-symbol deformed surprisal across a power-of-two grid of lengths.

    Each trajectory carries one extra leading symbol (the pre-block
    state) so conditional-versus-marginal ratios are observable: blocks
    of length ``n`` are positions 1..n, the first block symbol follows
    the one-step evolution of the stationary start, and ``ratio1``
    compares its transition probability from the pre-block state with
    its marginal.  ``c1`` checks that the one-step conditional dominates
    the whole-block probability, ``c2`` that the block probability
    dominates its order-``k`` approximation; their rates are fractions of
    trajectories.  The order-0 approximation multiplies, at every block
    symbol, the law of position 1, which the stationary start gives every
    position.  Standard deviations are population (ddof = 0).

    ``t3_over_n_mean`` is the mean interaction residual of the
    factorization in use — the q-log of the product of its non-head
    factors minus the sum of their q-logs, same convention as
    :func:`t3_residual` — divided by the block length.  It is
    nonnegative for q < 1 and identically zero at q = 1.
    ``at_ceiling`` is the fraction of trajectories whose per-symbol value
    lies within 1e-12 relative of the 1/((1-q)n) ceiling (0 for q >= 1).
    Flags: ``c1_failed`` / ``c2_failed`` report whether the corresponding
    condition failed on any trajectory at any recorded length;
    ``t3_failed`` reports whether |t3/n| still exceeds 1e-3 at the
    largest length (the vanishing-interaction hypothesis looks false);
    ``bound_saturated`` reports that ``at_ceiling`` is positive at the
    largest length;
    ``pk_equals_block`` reports that the order-k approximation agreed
    with the exact block probability at every length;
    ``q_outside_theorem_range`` warns that q is outside (1/2, 1), where
    the convergence statement being probed does not apply.
    """
    qv = q_value(q)
    if qv < 0:
        raise ValueError("the probe requires q >= 0")
    n_max = _count(n_max, "n_max")
    big_t = _count(trajectories, "trajectories")
    k = _count(k, "order k", 0)
    seed = _count(seed, "seed", 0)

    st = stationary(chain).p
    r = chain.transition
    m = chain.m

    table = _walk_table(_cum_rows(r))
    with np.errstate(divide="ignore"):
        logr = np.log(r)
        # the one-step law of the stationary start: the law of the block's
        # head and, for the order-0 factors, of every block position
        logd1 = np.log(_laws(st, r, 1)[1])
    # parallel to ``flat``: the step's log-probability lflat[j * m + s] =
    # log r[s, flat[j * m + s]], its factor's log (the same at k >= 1; at
    # k = 0 the one-step law at the next state), the factor's q-log (-inf
    # where it overflows, taken or not) and a zero pad, 32 bytes a row to
    # gather
    lflat = logr[np.tile(np.arange(m), table.flat.size // m), table.flat]
    factor = logd1[table.flat] if k == 0 else lflat
    steps = np.zeros((lflat.size, 4))
    steps[:, 0] = lflat
    steps[:, 1] = factor
    with np.errstate(over="ignore"):
        steps[:, 2] = ln_q_from_log(factor, qv)

    # One scan over time in chunks of _CHUNK positions, laid out time-major
    # as (position, trajectory).  Per trajectory it carries the state, the
    # running block log-probability and the running log and q-log sums of
    # the factors, and keeps those sums only at the grid lengths.  Every
    # array of a chunk's (position, trajectory) size is allocated here, once,
    # and the steps write into it at every order.
    grid = _grid(n_max)
    at = {}  # n -> the three running sums at length n, a (3, T) array
    rngs = [make_rng(seed, stream=t) for t in range(big_t)]
    width = min(_CHUNK, n_max)
    u = np.empty((big_t, width))  # row t: the draws of trajectory t
    draws = [(g.random, u[t]) for t, g in enumerate(rngs)]
    ws = _walk_space(big_t, width)
    syms, kb = ws.syms, ws.kb
    # sums[i, t, j]: trajectory t's running sum at position a - 1 + i of the
    # block log-probability (j = 0), the factor logs (1), the factor q-logs
    # (2) and the pad (3); row 0 carries the sums so far, -0.0 at first
    # (-0.0 + x == x: an empty sum that changes no bits).  Reducing the rows
    # from the carry with initial -0.0 adds them one at a time in order, so
    # chunk after chunk this rounds as one cumsum over the whole sequence
    # would.  The columns stay innermost on purpose: numpy sums a reduced
    # axis pairwise when it is the innermost loop, as the rows would be
    # for a lone trajectory (T = 1), and pairwise sums round differently.
    sums = np.full((width + 1, big_t, 4), -0.0)
    acc = np.empty((big_t, 4))
    syms[0] = _advance(np.broadcast_to(_cum_rows(st), (big_t, m)), np.concatenate([g.random(1) for g in rngs]))
    for a in range(1, n_max + 1, _CHUNK):
        b = min(a + _CHUNK, n_max + 1)  # this chunk holds positions a .. b - 1
        c = b - a
        if c < width:  # the last chunk is short
            draws = [(rand, row[:c]) for rand, row in draws]
        for rand, row in draws:
            rand(out=row)
        _walk(table, u[:, :c], ws)  # syms[i]: position a - 1 + i
        terms = sums[1 : c + 1]
        steps.take(kb[:c], axis=0, out=terms, mode="clip")  # row i: the step x_{a+i-1} -> x_{a+i}
        if a == 1:  # the block's first factor is the marginal of position 1
            head_l = logd1[syms[1]]
            logr1 = terms[0, :, 0].copy()
            terms[0, :, 0] = head_l
        # the head block of the order-k factorization (positions 1..k; none
        # at k = 0) adds -0.0, no factor
        terms[: min(max(k + 1 - a, 0), c), :, 1:3] = -0.0

        # the running sums at the grid lengths inside the chunk, then at its
        # end; each reduce starts from the row the one before wrote
        start = 0
        for n in [n for n in grid if a <= n < b - 1] + [b - 1]:
            np.add.reduce(sums[start : n - a + 2], axis=0, out=acc, initial=-0.0)
            start = n - a + 1
            sums[start] = acc
            if n in grid:
                at[n] = acc[:, :3].T.copy()
        # a zero factor's -inf stays in every later running sum
        if not np.isfinite(acc[:, 0]).all():
            raise ImpossibleTrajectoryError("sampled a transition of probability zero")
        syms[0], sums[0] = syms[c], acc

    ratio1 = np.exp(logr1 - head_l)

    points = []
    # q > 1: ln_q of a tiny p overflows to -inf, so a statistic can be inf or
    # nan (see SmbPoint), and exp(lb - lk) can overflow to inf
    with np.errstate(over="ignore", invalid="ignore"):
        for n in grid:
            lb, fl, fq = at[n]
            lk = fl if k == 0 else lb  # order-1 truth: every k >= 1 approximation is exact
            vb = -ln_q_from_log(lb, qv) / n
            vk = -ln_q_from_log(lk, qv) / n
            t3 = ln_q_from_log(fl, qv) - fq if n > k else np.zeros(big_t)
            at_ceiling = 0.0
            if qv < 1.0 - SHANNON_TOL:
                cap = 1.0 / ((1.0 - qv) * n)
                if vb.min() < -1e-12 or vb.max() > cap * (1.0 + 1e-12):
                    raise RuntimeError("per-symbol surprisal escaped its ceiling")
                at_ceiling = float((vb >= cap * (1.0 - 1e-12)).mean())
            points.append(
                SmbPoint(
                    n=n,
                    block_mean=float(vb.mean()),
                    block_sd=_std(vb),
                    pk_mean=float(vk.mean()),
                    t3_over_n_mean=float(t3.mean() / n),
                    cond_c1_rate=float((logr1 >= lb).mean()),
                    cond_c2_rate=float((lb >= lk).mean()),
                    ratio1_mean=float(ratio1.mean()),
                    ratio2_mean=float(np.exp(lb - lk).mean()),
                    at_ceiling=at_ceiling,
                )
            )

    flags = {
        "c1_failed": bool(any(pt.cond_c1_rate < 1.0 for pt in points)),
        "c2_failed": bool(any(pt.cond_c2_rate < 1.0 for pt in points)),
        "t3_failed": bool(abs(points[-1].t3_over_n_mean) > 1e-3),
        "bound_saturated": points[-1].at_ceiling > 0.0,
        "pk_equals_block": bool(all(abs(pt.ratio2_mean - 1.0) <= 1e-12 for pt in points)),
        "q_outside_theorem_range": bool(not (0.5 < qv < 1.0 - SHANNON_TOL)),
    }
    return SmbCurve(
        q=qv,
        k=k,
        n_max=n_max,
        trajectories=big_t,
        seed=seed,
        h_q_k=_h_q_k(r, st, k, qv),
        h_q_inf=_h_q_k(r, st, 1, qv),
        surprisal_sup=(1.0 / (1.0 - qv) if qv < 1.0 - SHANNON_TOL else math.inf),
        flags=flags,
        points=tuple(points),
    )
