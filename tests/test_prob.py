"""Distribution containers, joint tables, and seeded generators."""

import json

import numpy as np
import pytest

from qit.prob import (
    JointTable,
    NORM_TOL,
    ProbVec,
    conditional,
    make_rng,
    marginal,
    product_dist,
    random_dist,
    random_joint,
    random_markov_triple,
)


def test_probvec_accepts_valid():
    v = ProbVec([0.25, 0.75])
    assert len(v) == 2
    assert v.p.tolist() == [0.25, 0.75]
    assert v.labels is None
    w = ProbVec([0.5, 0.5], labels=["a", "b"])
    assert w.labels == ("a", "b")


def test_probvec_rejects_bad_mass():
    with pytest.raises(ValueError):
        ProbVec([0.5, 0.4])  # sums to 0.9
    with pytest.raises(ValueError):
        ProbVec([1.2, -0.2])
    with pytest.raises(ValueError):
        ProbVec([])
    with pytest.raises(ValueError):
        ProbVec([[0.5, 0.5]])
    with pytest.raises(ValueError):
        ProbVec([0.5, 0.5], labels=["only-one"])


def test_probvec_immutable():
    v = ProbVec([0.25, 0.75])
    with pytest.raises(AttributeError):
        v.p = np.array([1.0])
    with pytest.raises(ValueError):
        v.p[0] = 0.9  # numpy write flag cleared


def test_joint_table_immutable():
    j = JointTable([[0.25, 0.25], [0.25, 0.25]])
    with pytest.raises(AttributeError, match="immutable"):
        j.t = np.eye(2) / 2
    with pytest.raises(ValueError):
        j.t[0, 0] = 0.5  # numpy write flag cleared


def test_probvec_normalized_and_coerce():
    v = ProbVec.normalized([2.0, 6.0])
    assert v.p.tolist() == [0.25, 0.75]
    with pytest.raises(ValueError):
        ProbVec.normalized([0.0, 0.0])
    with pytest.raises(ValueError, match="must be numeric"):
        ProbVec.normalized({"a": 1})
    u = ProbVec([0.1, 0.9])
    assert ProbVec.coerce(u) is u
    assert ProbVec.coerce([0.3, 0.7]).p.tolist() == [0.3, 0.7]


def test_probvec_json_roundtrip():
    v = ProbVec([0.2, 0.8], labels=["x", "y"])
    d = v.to_json_dict()
    w = ProbVec.from_json_dict(json.loads(json.dumps(d)))
    assert w.p.tolist() == v.p.tolist()
    assert w.labels == v.labels
    with pytest.raises(ValueError):
        ProbVec.from_json_dict({"q": [1.0]})
    u = ProbVec.from_json(json.dumps(d))
    assert u.p.tolist() == v.p.tolist() and u.labels == v.labels
    assert ProbVec.from_json('{"p": [0.5, 0.5]}').labels is None
    # labels are an array too: a string is not split into characters
    for labels in ("5", '"xy"', "{}"):
        with pytest.raises(ValueError, match='"labels" must be an array'):
            ProbVec.from_json(f'{{"p": [0.5, 0.5], "labels": {labels}}}')


def test_joint_table_rank_bounds():
    with pytest.raises(ValueError):
        JointTable([0.5, 0.5])  # rank 1
    with pytest.raises(ValueError):
        JointTable(np.full((2, 2, 2, 2, 2), 1 / 32))  # rank 5
    with pytest.raises(ValueError):
        JointTable([[0.5, 0.6], [0.2, 0.2]])  # sums to 1.5
    with pytest.raises(ValueError, match="axes must be non-empty"):
        JointTable(np.zeros((2, 0)))
    t = JointTable(np.full((2, 3, 2, 2), 1 / 24))
    assert t.rank == 4 and t.shape == (2, 3, 2, 2)


def test_marginal_hand_values():
    j = JointTable([[0.1, 0.2], [0.3, 0.4]])
    assert marginal(j, 0).p == pytest.approx([0.3, 0.7], abs=1e-15)
    assert marginal(j, 1).p == pytest.approx([0.4, 0.6], abs=1e-15)
    diag = JointTable([[0.5, 0.0], [0.0, 0.5]])
    assert marginal(diag, 0).p.tolist() == [0.5, 0.5]
    prod = product_dist([0.3, 0.7], [0.2, 0.8])
    assert marginal(prod, 1).p == pytest.approx([0.2, 0.8], abs=1e-15)


def test_conditional_hand_values():
    j = JointTable([[0.1, 0.2], [0.3, 0.4]])
    c = conditional(j, 0)  # p(col | row)
    assert c[0] == pytest.approx([1 / 3, 2 / 3], abs=1e-15)
    assert c[1] == pytest.approx([3 / 7, 4 / 7], abs=1e-15)
    diag = JointTable([[0.5, 0.0], [0.0, 0.5]])
    cd = conditional(diag, 0)
    assert cd.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_conditional_of_product_is_marginal():
    prod = product_dist([0.3, 0.7], [0.2, 0.8])
    c = conditional(prod, 0)
    for row in c:
        assert row == pytest.approx([0.2, 0.8], abs=1e-14)


def test_conditional_zero_slice_convention():
    j = JointTable([[0.5, 0.5], [0.0, 0.0]])
    c = conditional(j, 0)
    assert c[0].tolist() == [0.5, 0.5]
    assert c[1].tolist() == [0.0, 0.0]  # undefined slice returned as zeros
    with pytest.raises(ValueError):
        conditional(j, (0, 1))  # nothing left to condition


def test_marginal_array_keeps_axis_order():
    rng = make_rng(1)
    j = random_joint((2, 3, 4), rng)
    m02 = j.marginal_array((0, 2))
    assert m02.shape == (2, 4)
    assert np.allclose(m02, j.t.sum(axis=1), atol=0)


def test_joint_json_roundtrip():
    j = JointTable([[0.1, 0.2], [0.3, 0.4]])
    again = JointTable.from_json(json.dumps(j.to_json_dict()))
    assert again.t.tolist() == j.t.tolist()
    with pytest.raises(ValueError):
        JointTable.from_json_dict({"p": [0.5, 0.5]})


@pytest.mark.parametrize(
    "cls,key,array",
    [(ProbVec, "p", [0.25, 0.75]), (JointTable, "table", [[0.25, 0.25], [0.5, 0.0]])],
)
def test_container_json_reader(cls, key, array):
    # the object form and a bare array read alike
    for text in (json.dumps({key: array}), json.dumps(array)):
        assert cls.from_json(text).to_json_dict()[key] == array
        assert cls.from_json_dict(json.loads(text)).to_json_dict()[key] == array
    # any other JSON value is a ValueError naming the form, never a TypeError
    for text in ("5", '"p"', '"table"', "null", "true", '{"q": [1.0]}'):
        with pytest.raises(ValueError, match=f'an array or an object with a "{key}" array'):
            cls.from_json(text)
        with pytest.raises(ValueError, match=f'an array or an object with a "{key}" array'):
            cls.from_json_dict(json.loads(text))


def test_make_rng_reproducible():
    # frozen draws pin the generator family + stream derivation; a change
    # here silently breaks every seeded campaign
    assert make_rng(0).random() == pytest.approx(0.9429375528828794, abs=0)
    assert make_rng(0, 1).random() == pytest.approx(0.6771968569751019, abs=0)
    assert make_rng(7, 3).integers(0, 100, size=4).tolist() == [47, 98, 32, 6]
    a = make_rng(99, 5).random(8)
    b = make_rng(99, 5).random(8)
    assert a.tolist() == b.tolist()
    assert make_rng(99, 6).random() != a[0]


def test_random_dist_and_joint_are_valid_and_seeded():
    r1 = random_dist(5, make_rng(3))
    r2 = random_dist(5, make_rng(3))
    assert r1.p.tolist() == r2.p.tolist()
    assert r1.p.min() >= 0 and abs(r1.p.sum() - 1.0) <= NORM_TOL
    j = random_joint((3, 2, 2), make_rng(4))
    assert j.shape == (3, 2, 2)
    assert abs(j.t.sum() - 1.0) <= NORM_TOL


def test_markov_triple_middle_separates():
    # built as p(x) p(y|x) p(z|y): p(x,y,z) p(y) = p(x,y) p(y,z) cellwise
    rng = make_rng(11)
    for _ in range(20):
        j = random_markov_triple((3, 2, 4), rng)
        t = j.t
        py = t.sum(axis=(0, 2))
        pxy = t.sum(axis=2)
        pyz = t.sum(axis=0)
        lhs = t * py[None, :, None]
        rhs = pxy[:, :, None] * pyz[None, :, :]
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


@pytest.mark.parametrize("shapes", [(0, 2, 2), (2, 0, 2), (2, 2, 0), (2, 2), (2, 2, 2, 2), ()])
def test_markov_triple_rejects_bad_shapes(shapes):
    with pytest.raises(ValueError, match=r"three axes \(x, y, z\) of at least one outcome"):
        random_markov_triple(shapes, make_rng(1))


def test_markov_triple_of_single_outcomes():
    assert random_markov_triple((1, 1, 1), make_rng(1)).t.tolist() == [[[1.0]]]


def test_row_normalization_matches_one_dimensional_sums():
    # a stack of rows normalized by one reduction over the last axis takes
    # the bits of each row normalized alone; numpy's pairwise sum changes
    # form at 8 and 128 cells, so n runs past both
    rng = make_rng(5)
    for n in range(1, 301):
        for rows in range(1, 9):
            e = rng.standard_exponential((rows, n))
            alone = [row.copy() for row in e]
            e /= np.add.reduce(e, axis=-1, keepdims=True)
            for row, a in zip(e, alone):
                assert row.tobytes() == (a / np.add.reduce(a, axis=None)).tobytes()
