"""Accuracy against the 50-digit mpmath references of ``tests/oracle.py``.

First slice: the entropy family.  The q-entropy ``-sum p ln_q p`` is the
Tsallis entropy of index 2 - q, so ``tsallis_entropy(p, q)`` is
``q_entropy(p, 2 - q)``.  The laws are Dirichlet(0.5) draws on 2 to 9
cells, a quarter of them with one zero cell.
"""

import numpy as np

import oracle
from qit import q_entropy, tsallis_entropy
from qit.prob import make_rng
from qit.qcore import SHANNON_TOL

#: q values every off-band grid holds ten times each; the rest are uniform on [0, 2].
FIXED_QS = (0.0, 0.5, 1.5, 2.0)


def _laws(rng, n):
    """``n`` Dirichlet(0.5) laws on 2 to 9 cells, a quarter with one cell set to 0."""
    out = []
    for _ in range(n):
        m = int(rng.integers(2, 10))
        p = rng.dirichlet(np.full(m, 0.5))
        if rng.random() < 0.25:
            p[rng.integers(m)] = 0.0
            p /= p.sum()
        out.append(p)
    return out


def test_entropies_are_within_3_ulps_off_the_shannon_band():
    rng = make_rng(40, 2)
    qs = list(FIXED_QS) * 10 + rng.uniform(0.0, 2.0, 460).tolist()
    for p, q in zip(_laws(rng, len(qs)), qs):
        h = tsallis_entropy(p, q)
        assert h == q_entropy(p, 2.0 - q)  # one body, bit for bit
        assert oracle.ulps(h, oracle.tsallis_entropy(p, q)) <= 3.0
        assert oracle.ulps(q_entropy(p, q), oracle.q_entropy(p, q)) <= 3.0


def test_entropies_inside_the_shannon_band_are_the_shannon_sum():
    # Inside |1 - q| <= SHANNON_TOL both forms return -sum p log p, which is
    # exact at q = 1 only.  Elsewhere in the band a cell is off by about
    # (1-q) p (log p)**2 / 2, so the sum by up to |1-q| max|log p| / 2
    # relative: 2.5e-12 at most on this grid.  ROADMAP item 8 step 2 (the
    # band switch) mends it; until then this is the bound.
    rng = make_rng(40, 3)
    qs = [1.0] * 10 + (1.0 + rng.uniform(-SHANNON_TOL, SHANNON_TOL, 90)).tolist()
    for p, q in zip(_laws(rng, len(qs)), qs):
        h = q_entropy(p, q)
        assert tsallis_entropy(p, 2.0 - q) == h
        band = abs(1.0 - q) * float(np.max(-np.log(p[p > 0]))) / 2.0
        assert oracle.relative(h, oracle.q_entropy(p, q)) <= band + 4 * np.finfo(float).eps
