"""Discrete probability containers, seeded generators, and JSON parsing.

``ProbVec`` and ``JointTable`` are validated wrappers around numpy arrays.
Constructors never renormalize silently; use ``ProbVec.normalized`` when a
renormalization is intended.  Conditionals on zero-probability slices are
left as all-zero rows, and all downstream sums in this package weight by
the joint mass, so those undefined slices never contribute.

The containers are the package's one validation point: they are built
where data comes in from outside (public functions, the CLI) and for
public return values, and code behind that boundary passes bare arrays,
such as the masses that ``_flat_dirichlet`` draws.

Every public integer argument (a count, an order, a length, a seed or a
stream) passes the one rule of :func:`_count`: any integer type is taken
as a Python int, a bool raises ValueError, a non-integer (``2.5``, and
also ``3.0``) raises TypeError, and a value below the argument's least
value raises ValueError.  Nothing is truncated.  Every table axis argument
passes :func:`_axes`: one axis or a non-empty sequence of axes, each under
that rule with least 0 and below the table's rank, or a ValueError
``"given_axes 3 invalid for rank 3"``.  Every container stores a C-order
copy of its input, so no result depends on the caller's memory layout.

Randomness flows through :func:`make_rng`: identical ``(seed, stream)``
pairs reproduce identical draws across runs and platforms, because the
generator is pinned to PCG64 seeded via ``SeedSequence(seed, spawn_key=(stream,))``.
Seeds and streams are non-negative integers under that rule.
"""

import json
import math
import operator

import numpy as np

#: Largest tolerated |sum - 1| accepted by constructors.
NORM_TOL = 1e-9


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator for a (master seed, stream id) pair."""
    ss = np.random.SeedSequence(entropy=_count(seed, "seed", 0), spawn_key=(_count(stream, "stream", 0),))
    return np.random.Generator(np.random.PCG64(ss))


def _count(value, what: str, least: int = 1) -> int:
    """``value`` as a Python int of at least ``least``; ``what`` names it in errors.

    A bool raises ValueError, a non-integer TypeError (``operator.index``),
    and a value below ``least`` ValueError.
    """
    if isinstance(value, bool):
        raise ValueError(f"{what} must be an integer count, got {value!r}")
    value = operator.index(value)
    if value < least:
        raise ValueError(f"{what} must be >= {least}")
    return value


def _axes(value, rank: int, what: str, one: bool = False) -> tuple:
    """One axis or a non-empty sequence of them (of one axis if ``one``), each a
    :func:`_count` (least 0) below ``rank``."""
    axes = tuple(_count(a, what, 0) for a in ((value,) if np.ndim(value) == 0 else value))
    if not axes or max(axes) >= rank or (one and len(axes) > 1):
        raise ValueError(f"{what} {value!r} invalid for rank {rank}")
    return axes


def _csv_row(values) -> str:
    """One line of a CSV report: each float ``%.10g``, anything else ``str``."""
    return ",".join(f"{v:.10g}" if isinstance(v, float) else str(v) for v in values)


def _json_form(data, key: str, what: str) -> dict:
    """A container's parsed JSON as its object form: a bare array becomes
    ``{key: data}``; an object without ``key``, or any other value, raises
    ValueError."""
    if isinstance(data, list):
        return {key: data}
    if isinstance(data, dict) and key in data:
        return data
    raise ValueError(f'{what} JSON must be an array or an object with a "{key}" array, got {type(data).__name__}')


def _float_array(x, what: str) -> np.ndarray:
    """``np.array(x, dtype=float, order="C")``; non-numeric input raises ValueError naming ``what``."""
    try:
        return np.array(x, dtype=float, order="C")
    except TypeError as exc:
        raise ValueError(f"{what} must be numeric: {exc}") from None


def _validate_mass(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} entries must be finite")
    if (arr < 0).any():
        raise ValueError(f"{what} entries must be nonnegative, min was {arr.min():.6g}")
    total = float(arr.sum())
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError(
            f"{what} must sum to 1 within {NORM_TOL:g}; got {total!r} "
            f"(off by {total - 1.0:.3g})"
        )


class ProbVec:
    """A finite discrete distribution with optional outcome labels."""

    __slots__ = ("p", "labels")

    def __init__(self, p, labels=None):
        arr = _float_array(p, "ProbVec")
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("ProbVec expects a non-empty 1-D array")
        _validate_mass(arr, "ProbVec")
        if isinstance(labels, (str, bytes, bytearray)):
            raise TypeError(f"labels must be a sequence of outcome names, got {labels!r}")
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != arr.size:
                raise ValueError("labels length must match the distribution")
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("ProbVec is immutable")

    @classmethod
    def normalized(cls, values, labels=None) -> "ProbVec":
        """Explicitly rescale nonnegative weights to total mass one."""
        arr = _float_array(values, "ProbVec")
        total = arr.sum()
        if not np.isfinite(total) or total <= 0:
            raise ValueError("cannot normalize: total mass must be positive and finite")
        return cls(arr / total, labels)

    @classmethod
    def coerce(cls, x) -> "ProbVec":
        return x if isinstance(x, cls) else cls(x)

    def __len__(self) -> int:
        return int(self.p.size)

    def __repr__(self) -> str:
        return f"ProbVec({self.p.tolist()!r})"

    def to_json_dict(self) -> dict:
        d = {"p": self.p.tolist()}
        if self.labels is not None:
            d["labels"] = list(self.labels)
        return d

    @classmethod
    def from_json_dict(cls, d) -> "ProbVec":
        """From the object form ``{"p": [...], "labels": [...]}`` or a bare ``p`` array."""
        d = _json_form(d, "p", "distribution")
        labels = d.get("labels")
        if labels is not None and not isinstance(labels, list):
            raise ValueError(f'distribution JSON "labels" must be an array, got {type(labels).__name__}')
        return cls(d["p"], labels)

    @classmethod
    def from_json(cls, text: str) -> "ProbVec":
        return cls.from_json_dict(json.loads(text))


class JointTable:
    """A nonnegative joint-probability table of rank 2 to 4."""

    __slots__ = ("t",)

    def __init__(self, t):
        arr = _float_array(t, "JointTable")
        if arr.ndim < 2 or arr.ndim > 4:
            raise ValueError(f"JointTable supports rank 2..4, got rank {arr.ndim}")
        if min(arr.shape) == 0:
            raise ValueError("JointTable axes must be non-empty")
        _validate_mass(arr, "JointTable")
        arr.setflags(write=False)
        object.__setattr__(self, "t", arr)

    def __setattr__(self, name, value):
        raise AttributeError("JointTable is immutable")

    @classmethod
    def coerce(cls, x) -> "JointTable":
        return x if isinstance(x, cls) else cls(x)

    @property
    def shape(self):
        return self.t.shape

    @property
    def rank(self) -> int:
        return self.t.ndim

    def marginal(self, axis: int) -> ProbVec:
        """Distribution of the variable on ``axis`` (sum over the others)."""
        return ProbVec(self.marginal_array(_axes(axis, self.rank, "axis", one=True)))

    def marginal_array(self, keep_axes) -> np.ndarray:
        """Joint mass of a subset of axes, as a bare array (axis order kept)."""
        keep = _axes(keep_axes, self.rank, "axis")
        drop = tuple(a for a in range(self.rank) if a not in keep)
        return self.t.sum(axis=drop) if drop else self.t

    def conditional(self, given_axes) -> np.ndarray:
        """Conditional table p(rest | given).

        Slices whose conditioning marginal is zero are undefined; they are
        returned as all-zero blocks and must be excluded from downstream
        sums (every measure in this package weights by the joint mass, so
        that exclusion is automatic).
        """
        return _conditional(self.t, _other_axes(self.rank, given_axes))

    def __repr__(self) -> str:
        return f"JointTable(shape={self.shape})"

    def to_json_dict(self) -> dict:
        return {"table": self.t.tolist()}

    @classmethod
    def from_json_dict(cls, d) -> "JointTable":
        """From the object form ``{"table": [...]}`` or a bare nested array."""
        return cls(_json_form(d, "table", "joint-table")["table"])

    @classmethod
    def from_json(cls, text: str) -> "JointTable":
        return cls.from_json_dict(json.loads(text))


def _other_axes(rank: int, given_axes) -> tuple:
    """Axes left after conditioning a rank-``rank`` table on ``given_axes``."""
    given = _axes(given_axes, rank, "given_axes")
    other = tuple(a for a in range(rank) if a not in given)
    if not other:
        raise ValueError("conditioning on every axis leaves nothing to condition")
    return other


def _conditional(t: np.ndarray, other: tuple) -> np.ndarray:
    """``t`` divided by its sum over ``other``; zero where that sum is zero."""
    marg = t.sum(axis=other, keepdims=True)
    out = np.zeros_like(t)
    np.divide(t, marg, out=out, where=marg > 0)
    return out


def marginal(j, axis: int) -> ProbVec:
    return JointTable.coerce(j).marginal(axis)


def conditional(j, given_axes) -> np.ndarray:
    return JointTable.coerce(j).conditional(given_axes)


def product_dist(p, r) -> JointTable:
    """Rank-2 table of two independent marginals."""
    pv = ProbVec.coerce(p)
    rv = ProbVec.coerce(r)
    return JointTable(np.outer(pv.p, rv.p))


def _flat_dirichlet(shape, rng: np.random.Generator) -> np.ndarray:
    """Flat-Dirichlet draw over all cells: normalized unit exponentials."""
    return _flat_dirichlet_rows(rng.standard_exponential(shape)[None])[0]


def _flat_dirichlet_rows(e: np.ndarray) -> np.ndarray:
    """A ``(B, *shape)`` stack of unit exponentials, each row divided in
    place by its sum over all its cells: ``B`` flat-Dirichlet draws.

    A row's sum is ``np.add.reduce`` over its cells, the sum of the same
    row drawn alone, so a row takes the same bits in a stack of any height.
    """
    e /= np.add.reduce(e.reshape(len(e), -1), axis=1).reshape((-1,) + (1,) * (e.ndim - 1))
    return e


def _gather(tape: np.ndarray, at, shapes) -> tuple:
    """The C-order ``(B, *shape)`` stacks of arrays of ``shapes`` that lie
    one after another on the flat ``tape`` from each of the B positions
    ``at``: one fancy index per shape."""
    at = np.asarray(at)[:, None]
    stacks, offset = [], 0
    for shape in shapes:
        n = math.prod(shape)
        stacks.append(tape[at + np.arange(offset, offset + n)].reshape(len(at), *shape))
        offset += n
    return tuple(stacks)


def _markov_parts(shapes) -> tuple:
    """The shapes ``(mx,)``, ``(mx, my)`` and ``(my, mz)`` of the factors
    p(x), p(y|x) and p(z|y) of a ``(mx, my, mz)`` table, in the order of
    their per-factor draws: p(x), then the rows of p(y|x), then those of
    p(z|y), as one run of unit exponentials."""
    mx, my, mz = shapes
    return (mx,), (mx, my), (my, mz)


def _markov_rows(px: np.ndarray, py: np.ndarray, pz: np.ndarray) -> np.ndarray:
    """``(B, mx, my, mz)`` stack p(x) p(y|x) p(z|y) of ``(B, mx)``,
    ``(B, mx, my)`` and ``(B, my, mz)`` stacks of unit exponentials laid
    out by :func:`_markov_parts`.

    Each row of each factor is divided in place by its own sum over the
    last axis, so every factor takes the bits of a separate
    ``_flat_dirichlet`` draw, in a stack of any height.
    """
    for f in (px, py, pz):
        f /= np.add.reduce(f, axis=-1, keepdims=True)
    return px[:, :, None, None] * py[:, :, :, None] * pz[:, None, :, :]


def random_dist(m: int, rng: np.random.Generator) -> ProbVec:
    """Flat-Dirichlet draw: normalized independent unit exponentials."""
    return ProbVec(_flat_dirichlet(_count(m, "m"), rng))


def random_joint(shape, rng: np.random.Generator) -> JointTable:
    """Flat-Dirichlet draw over all cells of the given shape."""
    return JointTable(_flat_dirichlet(tuple(_count(s, "random_joint axis length") for s in shape), rng))


def random_markov_triple(shapes, rng: np.random.Generator) -> JointTable:
    """Rank-3 table built as p(x) p(y|x) p(z|y).

    The middle variable separates the outer two by construction, i.e.
    p(x,y,z) p(y) = p(x,y) p(y,z) holds cellwise up to roundoff.
    """
    dims = tuple(shapes)
    need = f"need three axes (x, y, z) of at least one outcome each, got {dims!r}"
    if len(dims) != 3:
        raise ValueError(need)
    parts = _markov_parts([_count(s, f"{need}; each axis") for s in dims])
    tape = rng.standard_exponential(sum(map(math.prod, parts)))
    return JointTable(_markov_rows(*_gather(tape, [0], parts))[0])
