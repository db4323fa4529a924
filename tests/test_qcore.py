"""Scalar deformed log/exp kernel."""

import ast
import math
import pathlib
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qit import QDomainError, QParam, SHANNON_TOL, exp_q, ln_q, pseudo_additivity_residual, q_value
from qit import qcore
from qit.measures import q_entropy
from qit.qcore import cross_term, ln_q_from_log, ln_q_pos
from qit.prob import make_rng

import reference

U = np.finfo(float).eps


def test_lnq_hand_values():
    assert ln_q(1.0, 0.5) == 0.0
    assert ln_q(4.0, 0.5) == pytest.approx(2.0, abs=1e-15)
    assert ln_q(0.5, 0.5) == pytest.approx(-0.5857864376269049, abs=1e-15)
    # (0.5**0.25 - 1) / 0.25, evaluated independently
    assert ln_q(0.5, 0.75) == pytest.approx(-0.636414338985142, abs=1e-15)
    assert ln_q(math.e, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert ln_q(math.e, 1.0 + 5e-13) == pytest.approx(1.0, abs=1e-12)


def test_expq_hand_values():
    assert exp_q(0.0, 0.5) == 1.0
    assert exp_q(2.0, 0.5) == pytest.approx(4.0, abs=1e-15)
    assert exp_q(-0.5857864376269049, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert exp_q(1.0, 1.0) == pytest.approx(math.e, abs=1e-15)


def test_lnq_zero_conventions():
    # finite one-sided limit below q = 1, divergent at and above it
    assert ln_q(0.0, 0.5) == -2.0
    assert ln_q(0.0, 0.25) == pytest.approx(-1.0 / 0.75, abs=1e-15)
    assert ln_q(0.0, 1.0) == -math.inf
    assert ln_q(0.0, 1.5) == -math.inf


def test_lnq_domain_errors():
    with pytest.raises(QDomainError):
        ln_q(-1e-9, 0.5)
    with pytest.raises(QDomainError):
        ln_q(float("nan"), 0.5)
    with pytest.raises(QDomainError):
        ln_q([0.2, -0.1], 0.5)


def test_expq_domain_error_carries_boundary():
    with pytest.raises(QDomainError) as exc:
        exp_q(-3.0, 0.5)
    assert exc.value.boundary == pytest.approx(-0.5)
    with pytest.raises(QDomainError):
        exp_q(2.0, 2.0)  # 1 + (1-q)x = -1


def test_qparam_validation():
    assert QParam(0.5).q == 0.5
    assert QParam(1.0 + 1e-13).is_shannon
    assert not QParam(1.0 + 1e-11).is_shannon
    with pytest.raises(ValueError):
        QParam(float("inf"))
    with pytest.raises(ValueError):
        QParam(float("nan"))
    assert q_value(QParam(0.75)) == 0.75
    assert q_value(2) == 2.0
    # QParam accepted anywhere a bare q is
    assert ln_q(4.0, QParam(0.5)) == pytest.approx(2.0, abs=1e-15)


def test_vectorized_matches_scalar():
    xs = np.array([0.1, 0.5, 1.0, 2.0, 7.3])
    for q in (0.25, 0.75, 1.0, 1.5):
        out = ln_q(xs, q)
        assert out.shape == xs.shape
        for i, x in enumerate(xs):
            assert out[i] == ln_q(float(x), q)
    ys = np.array([-0.4, 0.0, 0.3, 1.2])
    out = exp_q(ys, 0.5)
    for i, y in enumerate(ys):
        assert out[i] == exp_q(float(y), 0.5)


def test_pseudo_additivity_trivial_cases():
    # ln_q(1) = 0 kills both the linear and the cross term, exactly
    assert pseudo_additivity_residual(1.0, 3.7, 0.5) == 0.0
    assert pseudo_additivity_residual(0.5, 0.5, 0.75) == pytest.approx(0.0, abs=1e-12)
    assert pseudo_additivity_residual(2.0, 5.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(QDomainError):
        pseudo_additivity_residual(0.0, 1.0, 0.5)


@given(
    x=st.floats(min_value=1e-4, max_value=1e4),
    y=st.floats(min_value=1e-4, max_value=1e4),
    q=st.floats(min_value=0.0, max_value=2.0),
)
@settings(max_examples=300, deadline=None)
def test_pseudo_additivity_residual_small(x, y, q):
    r = pseudo_additivity_residual(x, y, q)
    assert abs(r) <= 1e-10 * (1.0 + abs(ln_q(x * y, q)))


@given(
    x=st.floats(min_value=1e-3, max_value=1e3),
    ratio=st.floats(min_value=1.01, max_value=100.0),
    q=st.floats(min_value=0.0, max_value=2.0),
)
@settings(max_examples=300, deadline=None)
def test_lnq_strictly_increasing(x, ratio, q):
    assert ln_q(x, q) < ln_q(x * ratio, q)


@given(t=st.floats(min_value=1e-6, max_value=1.0), q=st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=300, deadline=None)
def test_lnq_nonpositive_on_unit_interval(t, q):
    v = ln_q(t, q)
    assert v <= 0.0
    if t <= 1.0 - 1e-9:
        assert v < 0.0
    assert ln_q(1.0, q) == 0.0


def test_roundtrip_well_conditioned_q():
    # away from the domain boundary the roundtrip is essentially exact
    rng = make_rng(42)
    xs = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), size=1000))
    for q in (0.5, 0.75, 1.0, 1.5):
        for x in xs:
            x = float(x)
            assert abs(exp_q(ln_q(x, q), q) - x) / x <= 1e-12


def test_roundtrip_conditioned_bound_extreme_q():
    # reconstructing 1 + (1-q) ln_q(x) = x^(1-q) cancels ~x^|1-q| digits,
    # so the achievable relative error grows with that factor
    rng = make_rng(43)
    xs = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), size=1000))
    for q in (0.25, 2.0):
        for x in xs:
            x = float(x)
            cond = max(x, 1.0 / x) ** abs(1.0 - q)
            bound = max(1e-12, 100.0 * U * cond)
            assert abs(exp_q(ln_q(x, q), q) - x) / x <= bound


def test_shannon_limit_deviation():
    rng = make_rng(7)
    for q in (1.0 + 1e-4, 1.0 - 1e-4):
        # inside a moderate range the classical log is recovered to 1e-3
        for x in np.exp(rng.uniform(math.log(0.02), math.log(50.0), size=400)):
            assert abs(ln_q(float(x), q) - math.log(x)) <= 1e-3
        # over a wider range the deviation follows the second-order term
        # |1-q| ln(x)^2 / 2 and exceeds 1e-3 near the ends
        for x in np.exp(rng.uniform(math.log(0.01), math.log(100.0), size=400)):
            dev = abs(ln_q(float(x), q) - math.log(x))
            assert dev <= 0.51 * 1e-4 * math.log(x) ** 2 + 1e-12
    assert abs(ln_q(100.0, 1.0 + 1e-4) - math.log(100.0)) > 1e-3


def test_shannon_branch_is_exact_log():
    xs = [0.02, 0.5, 3.0, 77.0]
    for x in xs:
        assert ln_q(x, 1.0) == math.log(x)
        assert ln_q(x, 1.0 - 0.5 * SHANNON_TOL) == math.log(x)


def test_continuity_across_the_shannon_switch():
    # just outside the classical branch the deformed log must still agree
    # with the exact log to near machine precision, with no jump at the switch
    for q in (1.0 - 2e-12, 1.0 + 2e-12):
        assert abs(ln_q(0.3, q) / math.log(0.3) - 1.0) <= 1e-11
        assert abs(q_entropy([0.3, 0.7], q) - q_entropy([0.3, 0.7], 1.0)) <= 1e-11


def test_lnq_matches_high_precision_reference():
    # a 50-digit Decimal evaluation of (x**(1-q) - 1) / (1-q) as the oracle:
    # the kernel keeps a few ulps both where x**(1-q) is near 1 (expm1 form)
    # and where (1-q) log x is large (power form)
    rng = make_rng(5)
    xs = np.concatenate(
        [np.exp(rng.uniform(math.log(1e-8), math.log(1e8), 150)), 1.0 + rng.uniform(-1e-3, 1e-3, 50)]
    )
    for q in (0.0, 0.044, 0.3, 0.9, 1.0 - 1e-6, 1.0 + 1e-6, 1.5, 2.0):
        got = ln_q(xs, q)
        with localcontext() as ctx:
            ctx.prec = 50
            eps = Decimal(1) - Decimal(q)
            want = np.array([float(((Decimal(x).ln() * eps).exp() - 1) / eps) for x in xs])
        assert np.abs(got / want - 1.0).max() <= 2e-15, q


def test_q_column_matches_per_row_scalar_calls_bit_for_bit():
    # one q per row: rows in the Shannon band take log x, cells with
    # (1-q) log x > 4 the power form, and every row, and every float-q call,
    # equals the float-only reference; q = 2, 0.5 and -1 give the exponents
    # -1, 0.5 and 2 that numpy's power evaluates by an exact operation when
    # the exponent is one scalar
    rng = make_rng(12)
    qs = [1.0, 1.0 - 0.5 * SHANNON_TOL, 1.0 + 0.5 * SHANNON_TOL, 1.0 - SHANNON_TOL, 1.0 - 2e-12,
          1.0 + 2e-12, 0.0, 1e-9, 0.5, 0.999, 1.5, 2.0, -1.0, *rng.uniform(-1.0, 3.0, 12)]
    x = np.exp(rng.uniform(math.log(1e-12), math.log(1e12), (len(qs), 400)))
    q = np.array(qs)[:, None]
    got = ln_q_pos(x, q)
    assert ((1.0 - q) * np.log(x) > 4.0).sum() > 1000  # many cells in the power branch
    want = np.stack([reference.ln_q_pos(row, qv) for row, qv in zip(x, qs)])
    assert got.tobytes() == want.tobytes()
    assert np.stack([ln_q_pos(row, qv) for row, qv in zip(x, qs)]).tobytes() == want.tobytes()
    assert got[0].tobytes() == np.log(x[0]).tobytes()
    empty = np.empty((len(qs), 0))
    assert ln_q_pos(empty, q).shape == empty.shape
    for qv in qs:
        assert ln_q_pos(empty[0], qv).tobytes() == reference.ln_q_pos(empty[0], qv).tobytes() == b""
    w = rng.uniform(0.0, 1.0, x.shape)
    y = x[::-1].copy()
    want = [cross_term(wr, xr, yr, qv) for wr, xr, yr, qv in zip(w, x, y, qs)]
    assert np.array(cross_term(w, x, y, q)).tobytes() == np.array(want).tobytes()


# q on both sides of the Shannon band and at the exponents of
# _SCALAR_POWER_CASES (q = 2, 0.5 and -1)
_KERNEL_QS = (0.0, 0.5, 0.999, 1.0 - 1e-13, 1.0, 1.0 + 1e-13, 1.3, 1.5, 2.0, -1.0)


def _kernel_xs():
    """0, subnormal and zero-adjacent x, 1 and its neighbours, the float
    max and inf, and random draws with many cells past ``(1-q) log x = 4``."""
    rng = make_rng(37)
    tiny = np.finfo(float).tiny
    edges = [0.0, 5e-324, 1e-320, 1e-310, tiny, 2.0 * tiny, 1e-300, 1e-30, 1.0 - U, 1.0 - U / 2.0, 1.0,
             1.0 + U, 1e30, 1e300, np.finfo(float).max, math.inf]
    return np.concatenate([edges, rng.uniform(0.0, 1.0, 400) ** 30, np.exp(rng.uniform(-700.0, 700.0, 400))])


def test_ln_q_from_log_is_the_expm1_form_in_one_new_array():
    rng = make_rng(3)
    logs = [-0.7, np.float64(2.5), np.array(-3.0), rng.uniform(-40.0, 40.0, 50), rng.uniform(-40.0, 40.0, (6, 7))]
    with np.errstate(divide="ignore"):
        logs += [np.empty(0), np.log(_kernel_xs())]
    for log_x in logs:
        if isinstance(log_x, np.ndarray):
            log_x.flags.writeable = False  # a write would raise
    with np.errstate(over="ignore"):  # (1-q) log x past the float range at the edges
        for qv in (0.0, 0.3, 0.5, 0.999, 1.0 - 2e-12, 1.0 + 2e-12, 1.3, 1.5, 1.7, 2.0, -1.0):
            for log_x in logs:
                before = np.array(log_x, copy=True)
                got = ln_q_from_log(log_x, qv)
                want = np.expm1((1.0 - qv) * log_x) / (1.0 - qv)
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
                assert np.array_equal(log_x, before) and got is not log_x
                old = reference.ln_q_from_log(log_x, qv)
                assert type(got) is type(old) and np.asarray(got).tobytes() == np.asarray(old).tobytes()
    for qv in (1.0, 1.0 - 0.5 * SHANNON_TOL, 1.0 + 0.5 * SHANNON_TOL, 1.0 - 1e-13, 1.0 + 1e-13):
        for log_x in logs:
            assert ln_q_from_log(log_x, qv) is log_x
    # q > 1 and a very negative log: expm1 overflows, the q-log is -inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            got = ln_q_from_log(np.array([-800.0, -1.0]), 2.0)
    assert got[0] == -math.inf and math.isfinite(got[1])


def test_ln_q_pos_matches_the_float_reference_bit_for_bit():
    x = _kernel_xs()
    # log 0, expm1 and power overflow on cells the power form or the limits take
    with np.errstate(divide="ignore", over="ignore"):
        for q in _KERNEL_QS:
            assert ln_q_pos(x, q).tobytes() == reference.ln_q_pos(x, q).tobytes(), q
            assert ln_q_pos(np.empty(0), q).tobytes() == reference.ln_q_pos(np.empty(0), q).tobytes() == b""
            assert ln_q_pos(np.empty((3, 0)), q).shape == (3, 0)
            for xv in x[1:17]:  # a 0-d x gives a numpy float, on power cells too
                got = ln_q_pos(np.array(xv), q)
                assert type(got) is np.float64
                assert got.tobytes() == reference.ln_q_pos(np.array([xv]), q).tobytes()


def test_q_columns_that_mix_band_rows_match_the_float_reference_bit_for_bit():
    # band rows keep log x on every cell, those with log x > 4 included, and
    # the rows beside them take their own float-q values, power cells and all
    x = _kernel_xs()
    x = x[(x > 0.0) & (x < math.inf)]
    assert (np.log(x) > 4.0).any()
    columns = [
        [1.0, 0.5, 1.0 - 0.5 * SHANNON_TOL, 2.0, 1.0 + 1e-13, -1.0, 1.3, 1.0 - 1e-13, 0.0, 0.999],
        [0.0, 0.5, 0.999, 1.3, 1.5, 2.0, -1.0],  # no band row
        [1.0, 1.0 - 1e-13, 1.0 + 1e-13],  # band rows only
    ]
    with np.errstate(over="ignore"):
        for qs in columns:
            xs = np.tile(x, (len(qs), 1))
            want = np.stack([reference.ln_q_pos(row, qv) for row, qv in zip(xs, qs)])
            assert ln_q_pos(xs, np.array(qs)[:, None]).tobytes() == want.tobytes()
            # one q per cell, as the max-bound law passes a (B,) q with (B,) x
            assert ln_q_pos(xs[:, 7], np.array(qs)).tobytes() == want[:, 7].copy().tobytes()
    # the band rows take no product: an inf cell at q = 1 keeps log inf = inf
    # with no 0 * inf beside an off-band row
    got = ln_q_pos(np.array([[math.inf, 2.0], [math.inf, 2.0]]), np.array([[1.0], [1.5]]))
    assert got[0].tolist() == [math.inf, math.log(2.0)] and got[1, 0] == 2.0


def _traced_peak(f, *args):
    """Bytes newly allocated at the peak of ``f(*args)``, its result included."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ln_q_pos_holds_one_float_array_and_one_mask():
    n = 10**6
    x = make_rng(39).uniform(0.0, 1.0, n) ** 30
    for q in (0.0, 0.5, 0.999):  # (1-q) log x <= 0: no power cell
        assert _traced_peak(ln_q_pos, x, q) <= 9 * n + 4096 < 10 * 2**20
    # a power cell adds its x, exponent, power and power - 1 as floats and a
    # byte of its hit mask (33 bytes); at an exponent of _SCALAR_POWER_CASES
    # the scalar redo holds two floats more for a moment (41 bytes)
    with np.errstate(over="ignore"):
        for q in (1.3, 2.0):
            big = np.count_nonzero((1.0 - q) * np.log(x) > 4.0)
            assert big > n // 2
            assert _traced_peak(ln_q_pos, x, q) <= 9 * n + 41 * big + 4096


def test_ln_q_from_log_holds_one_float_array():
    n = 10**6
    log_x = np.log(make_rng(40).uniform(0.0, 1.0, n))
    for q in (0.0, 0.5, 2.0):
        assert _traced_peak(ln_q_from_log, log_x, q) <= 8 * n + 4096


def test_expm1_is_called_once_in_the_package():
    # the q-log form is written once: every other q-log goes through that call
    calls = []
    for path in sorted(pathlib.Path(qcore.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "expm1":
                calls.append(path.name)
    assert calls == ["qcore.py"]
