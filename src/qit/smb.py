"""Empirical per-symbol surprisal of Markov trajectories, deformed family.

For a trajectory block ``x_0 .. x_{n-1}`` with probability ``p`` the
per-symbol deformed surprisal is ``-ln_q(p) / n``.  For q < 1 the
deformed surprisal of ANY event is bounded by ``1 / (1 - q)``, so the
per-symbol value is hard-capped at ``1 / ((1 - q) n)`` no matter how the
trajectory behaves — the probe exists to measure what the statistic
actually does against that ceiling.

Everything is computed in log space: ``p`` itself underflows for blocks
beyond a few thousand symbols, but ``L = log p`` accumulates exactly, and

    ln_q(p) = expm1((1 - q) L) / (1 - q)

is evaluated from ``L`` directly by ``qcore.ln_q_from_log``.  When
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
inverse-CDF lookup; each step is one gather from a table of next states
(``_walk_table``), built once per probe.  The time scan writes into one
workspace allocated once per probe, so no chunk allocates an array of
its size.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConvergenceError, ImpossibleTrajectoryError
from .markov import MarkovChain, _chain_terms, _laws, stationary
from .prob import make_rng
from .qcore import SHANNON_TOL, ln_q_from_log, ln_q_pos, q_value


#: Positions per chunk of the probe's time scan; its memory is O(T * _CHUNK).
_CHUNK = 256
#: Draws per ``searchsorted`` call of ``_walk``; numpy allocates each
#: result (it takes no ``out``), so the calls stay small.
_SEARCH_CELLS = 1 << 13


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


def _walk_table(rcum: np.ndarray) -> tuple:
    """The walk's table ``(cols, flat)`` for the cumulative transition rows ``rcum``.

    The next state from s counts the inner columns of ``rcum[s]``
    strictly below the draw, so it depends on the draw only through k,
    the number of all m (m - 1) inner columns below it (``searchsorted``
    on the sorted ``cols``: tied columns sort together, and a draw passes
    all of them or none).  ``flat[k * m + s]`` is that next state: the
    table ``nxt[k, s]`` of m (m - 1) + 1 rows, row by row.
    """
    m = rcum.shape[0]
    inner = rcum[:, :-1].ravel()
    order = np.argsort(inner)
    cols = inner[order]
    # nxt[k, s]: how many of the k smallest inner columns lie in row s
    nxt = np.zeros((cols.size + 1, m), dtype=np.int64)
    nxt[np.arange(1, cols.size + 1), np.repeat(np.arange(m), m - 1)[order]] = 1
    return cols, nxt.cumsum(axis=0).ravel()


def _walk(table: tuple, u: np.ndarray, syms: np.ndarray, kb: np.ndarray) -> np.ndarray:
    """Step T walks from the states ``syms[0]`` (T,) by the uniforms ``u`` (T, c).

    Fills ``syms[1 : c + 1]`` with the state after each step, as
    ``_advance`` takes it, and returns ``syms[: c + 1]``.  ``table`` is
    ``_walk_table`` of the transition.  ``kb`` (c rows of T or more) is
    left holding step i's index ``k * m + syms[i]`` into ``flat``, so a
    table parallel to ``flat`` gives any function of the steps in one
    gather.  The positions cannot run in parallel, so a step costs
    numpy's per-call overhead; the table keeps it at two calls whatever
    m is.
    """
    cols, flat = table
    big_t, c = u.shape
    m = flat.size // (cols.size + 1)
    rows = max(1, _SEARCH_CELLS // max(c, 1))
    for t in range(0, big_t, rows):
        kb[:c, t : t + rows] = cols.searchsorted(u[t : t + rows]).T
    kb[:c] *= m  # offset of row k in ``flat``
    for i in range(c):
        kb[i] += syms[i]
        # indices always lie in the table; "clip" writes ``out`` unbuffered
        flat.take(kb[i], out=syms[i + 1], mode="clip")
    return syms[: c + 1]


@dataclass(frozen=True)
class Trajectory:
    """An observed state sequence over the alphabet {0, .., m-1}."""

    symbols: np.ndarray
    m: int

    def __init__(self, symbols, m):
        arr = np.asarray(symbols)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("a trajectory needs at least one symbol")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("trajectory symbols must be integers")
        arr = arr.astype(np.int64)
        if int(m) < 1 or arr.min() < 0 or arr.max() >= int(m):
            raise ValueError("trajectory symbols must lie in [0, m)")
        arr.setflags(write=False)
        object.__setattr__(self, "symbols", arr)
        object.__setattr__(self, "m", int(m))

    def __len__(self) -> int:
        return int(self.symbols.size)


def sample_trajectory(chain: MarkovChain, length: int, rng: np.random.Generator) -> Trajectory:
    """Draw ``length`` symbols, pre-drawing all uniforms in one block."""
    if length < 1:
        raise ValueError("length must be >= 1")
    u = rng.random(length)
    syms = np.empty((length, 1), dtype=np.int64)
    syms[0] = _advance(_cum_rows(chain.initial.p)[None, :], u[0:1])
    _walk(_walk_table(_cum_rows(chain.transition)), u[None, 1:], syms, np.empty_like(syms))
    return Trajectory(syms[:, 0], chain.m)


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
    if k < 0:
        raise ValueError("order k must be >= 0")
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
    stationary start evolved ``k - 1`` steps, so any k is cheap.
    """
    if k < 0:
        raise ValueError("order k must be >= 0")
    return _chain_terms(stationary(chain).p, chain.transition, k + 1, q_value(q))[k]


def h_q_inf(chain: MarkovChain, q, tol: float = 1e-10, k_max: int = 12) -> float:
    """First plateau of the ``h_q_k`` sequence.

    Returns ``h(k*)`` for the smallest ``k*`` with
    ``|h(k*) - h(k* + 1)| <= tol``, scanning from ``k* = 0``.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    return _h_q_inf(chain.transition, stationary(chain).p, q_value(q), tol, k_max)


def _h_q_inf(r: np.ndarray, st: np.ndarray, qv: float, tol: float = 1e-10, k_max: int = 12) -> float:
    """``h_q_inf`` of the transition ``r`` with stationary law ``st``."""
    h = _chain_terms(st, r, k_max + 2, qv)  # h[k] = h_q_k(k) for k <= k_max + 1
    for k in range(k_max + 1):
        if abs(h[k] - h[k + 1]) <= tol:
            return h[k]
    raise ConvergenceError(
        f"conditional-rate sequence did not plateau within k <= {k_max}",
        last=h[-1],
        residuals=[abs(h[-2] - h[-1])],
    )


@dataclass(frozen=True)
class SmbPoint:
    """Cross-trajectory statistics of one block length."""

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
        return {
            "n": self.n,
            "block_mean": self.block_mean,
            "block_sd": self.block_sd,
            "pk_mean": self.pk_mean,
            "t3_over_n_mean": self.t3_over_n_mean,
            "cond_c1_rate": self.cond_c1_rate,
            "cond_c2_rate": self.cond_c2_rate,
            "ratio1_mean": self.ratio1_mean,
            "ratio2_mean": self.ratio2_mean,
            "at_ceiling": self.at_ceiling,
        }


@dataclass(frozen=True)
class SmbCurve:
    """A full probe: one SmbPoint per grid length plus chain-level rates."""

    q: float
    k: int
    n_max: int
    trajectories: int
    seed: int
    points: tuple
    h_q_k: float
    h_q_inf: float
    surprisal_sup: float  # sup of -ln_q(p) over events; inf for q >= 1
    flags: dict

    CSV_HEADER = (
        "n,block_mean,block_sd,pk_mean,t3_over_n_mean,"
        "cond_c1_rate,cond_c2_rate,ratio1_mean,ratio2_mean,h_q_k,h_q_inf"
    )

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for pt in self.points:
            values = (
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
            lines.append(",".join([str(pt.n)] + [f"{v:.10g}" for v in values]))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "k": self.k,
            "n_max": self.n_max,
            "trajectories": self.trajectories,
            "seed": self.seed,
            "h_q_k": self.h_q_k,
            "h_q_inf": self.h_q_inf,
            "surprisal_sup": self.surprisal_sup,
            "flags": dict(self.flags),
            "points": [pt.to_json_dict() for pt in self.points],
        }


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
    trajectories.  Standard deviations are population (ddof = 0).

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
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if trajectories < 1:
        raise ValueError("trajectories must be >= 1")
    if k < 0:
        raise ValueError("order k must be >= 0")

    st = stationary(chain).p
    r = chain.transition
    m = chain.m
    big_t = trajectories

    cols, flat = table = _walk_table(_cum_rows(r))
    with np.errstate(divide="ignore"):
        logr = np.log(r)
        logd1 = np.log(_laws(st, r, 1)[1])
    # parallel to ``flat``: lflat[k * m + s] = log r[s, flat[k * m + s]],
    # the log-probability of the step from s the table takes at row k
    lflat = logr[np.tile(np.arange(m), cols.size + 1), flat]

    # One scan over time in chunks of _CHUNK positions, laid out time-major
    # as (position, trajectory).  Per trajectory it carries the state, the
    # running block log-probability and the running log and q-log sums of
    # the factors, and keeps those sums only at the grid lengths.  Every
    # array a chunk needs is allocated here, once: the steps write into it.
    grid = _grid(n_max)
    at = {}  # n -> (block, order-k, factor log, factor q-log) sums at length n
    rngs = [make_rng(seed, stream=t) for t in range(big_t)]
    width = min(_CHUNK, n_max)
    u = np.empty((big_t, width))  # row t: the draws of trajectory t
    syms = np.empty((width + 1, big_t), dtype=np.int64)  # row 0: the state carried in
    kb = np.empty((width, big_t), dtype=np.int64)  # the walk's table indices
    lcond = np.empty((width, big_t))
    # running sums of the block log-probability, factor logs and factor
    # q-logs; row 0 carries the sum so far, -0.0 at first (-0.0 + x == x:
    # an empty sum that changes no bits).  Each row adds one term to the
    # row before, so chunk after chunk this rounds as one cumsum over the
    # whole sequence would; adding the carry to the chunk's own cumsum
    # would not.
    blk, fcum, fqcum = np.full((3, width + 1, big_t), -0.0)
    syms[0] = _advance(np.broadcast_to(_cum_rows(st), (big_t, m)), np.concatenate([g.random(1) for g in rngs]))
    eps = 1.0 - qv
    d = st
    for a in range(1, n_max + 1, _CHUNK):
        b = min(a + _CHUNK, n_max + 1)  # this chunk holds positions a .. b - 1
        c = b - a
        for t, g in enumerate(rngs):
            g.random(out=u[t, :c])
        _walk(table, u[:, :c], syms, kb)  # syms[i]: position a - 1 + i
        lflat.take(kb[:c], out=lcond[:c], mode="clip")  # row i: log r[x_{a+i-1} -> x_{a+i}]
        blk[1 : c + 1] = lcond[:c]
        if a == 1:  # the block's first factor is the marginal of position 1
            head_l = logd1[syms[1]]
            logr1 = lcond[0].copy()
            blk[1] = head_l
        np.cumsum(blk[: c + 1], axis=0, out=blk[: c + 1])
        # a zero factor's -inf stays in every later running sum
        if not np.isfinite(blk[c]).all():
            raise ImpossibleTrajectoryError("sampled a transition of probability zero")

        if k == 0:
            # the k = 0 factorization multiplies per-position marginals and
            # has no conditioning head
            f0 = a
            laws = _laws(d, r, c)  # laws of positions a - 1 .. b - 1
            d = laws[-1]
            with np.errstate(divide="ignore"):
                loglaws = np.log(laws[1:])
            # row i: log of the law of position a + i at its symbol; the
            # block sums are taken, so lcond is free
            np.add(syms[1 : c + 1], (np.arange(c) * m)[:, None], out=kb[:c])
            fcols = loglaws.take(kb[:c], out=lcond[:c], mode="clip")
        else:
            # conditional factors of the order-k factorization, head block
            # (positions 1..k) excluded
            f0 = max(a, k + 1)
            fcols = lcond[f0 - a : c]
        # interaction residual over the factors: q-log of their running
        # product minus the running sum of their q-logs
        nf = len(fcols)
        fcum[1 : nf + 1] = fcols
        np.cumsum(fcum[: nf + 1], axis=0, out=fcum[: nf + 1])
        fql = fqcum[1 : nf + 1]
        if abs(eps) <= SHANNON_TOL:
            fql[...] = fcols
        else:  # ln_q_from_log's expm1 form, in place
            np.multiply(fcols, eps, out=fql)
            np.expm1(fql, out=fql)
            fql /= eps
        np.cumsum(fqcum[: nf + 1], axis=0, out=fqcum[: nf + 1])

        for n in grid:
            if a <= n < b:
                lb = blk[n - a + 1].copy()
                fl = fcum[n - f0 + 1].copy() if n > k else None
                fq = fqcum[n - f0 + 1].copy() if n > k else None
                # order-1 truth: every k >= 1 approximation is exact
                at[n] = (lb, fl if k == 0 else lb, fl, fq)
        syms[0], blk[0], fcum[0], fqcum[0] = syms[c], blk[c], fcum[nf], fqcum[nf]

    ratio1 = np.exp(logr1 - head_l)

    points = []
    for n in grid:
        lb, lk, fl, fq = at[n]
        with np.errstate(over="ignore"):  # q > 1: ln_q of a tiny p overflows to -inf
            vb = -ln_q_from_log(lb, qv) / n
            vk = -ln_q_from_log(lk, qv) / n
            if n > k:
                t3 = ln_q_from_log(fl, qv) - fq
            else:
                t3 = np.zeros(big_t)
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
        k=int(k),
        n_max=int(n_max),
        trajectories=big_t,
        seed=int(seed),
        points=tuple(points),
        h_q_k=_chain_terms(st, r, k + 1, qv)[k],
        h_q_inf=_h_q_inf(r, st, qv),
        surprisal_sup=(1.0 / (1.0 - qv) if qv < 1.0 - SHANNON_TOL else math.inf),
        flags=flags,
    )
