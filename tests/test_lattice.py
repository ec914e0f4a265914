import random
from fractions import Fraction

import pytest
from helpers import chain_model, forest_case, random_unimodular
from hypothesis import given, settings
from hypothesis import strategies as st

from noksurf import (
    CurveRecord,
    DivisorClass,
    InputError,
    QExt,
    SurfaceModel,
    dual_graph_components,
    is_model_ample,
    is_negative_definite,
    pair,
    pair_curve,
)
from noksurf.lattice import curve_products, gram_matrix, support_elimination
from noksurf.linalg import NotNegativeDefinite, inertia, solve
from noksurf.qext import as_exact

BL1 = SurfaceModel(
    2,
    [[1, 0], [0, -1]],
    [CurveRecord("E", (0, 1)), CurveRecord("H", (1, 0))],
    (2, -1),
)
P2 = SurfaceModel(1, [[1]], [CurveRecord("H", (1,))], (1,))
BL2 = SurfaceModel(
    3,
    [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
    [CurveRecord("E1", (0, 1, 0)), CurveRecord("E2", (0, 0, 1))],
    (3, -1, -1),
)
CHAIN = SurfaceModel(
    3,
    [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
    [CurveRecord("C1", (0, 1, -1)), CurveRecord("C2", (0, 0, 1))],
    (3, -2, -1),
)


def test_pair_examples():
    assert pair(BL1, DivisorClass((3, -1)), DivisorClass((0, 1))) == 1
    assert pair(P2, DivisorClass((1,)), DivisorClass((1,))) == 1
    assert pair(BL1, DivisorClass((2, -1)), DivisorClass((2, -1))) == 3


def test_pair_dimension_mismatch():
    with pytest.raises(InputError):
        pair(BL1, DivisorClass((1,)), DivisorClass((0, 1)))


@given(st.data())
@settings(max_examples=100)
def test_pair_symmetric_bilinear(data):
    coords = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    u = DivisorClass([data.draw(coords) for _ in range(3)])
    v = DivisorClass([data.draw(coords) for _ in range(3)])
    w = DivisorClass([data.draw(coords) for _ in range(3)])
    lam = data.draw(coords)
    assert pair(CHAIN, u, v) == pair(CHAIN, v, u)
    assert pair(CHAIN, u + w.scale(lam), v) == pair(CHAIN, u, v) + lam * pair(
        CHAIN, w, v
    )


def test_model_rejects_bad_inertia():
    with pytest.raises(InputError):
        SurfaceModel(2, [[1, 0], [0, 1]], [], (1, 0))
    with pytest.raises(InputError):
        SurfaceModel(2, [[-1, 0], [0, -1]], [], (1, 0))


def test_model_rejects_bad_witness():
    # witness must pair positively with every declared curve
    with pytest.raises(InputError):
        SurfaceModel(2, [[1, 0], [0, -1]], [CurveRecord("E", (0, 1))], (1, 0))
    with pytest.raises(InputError):
        SurfaceModel(2, [[1, 0], [0, -1]], [CurveRecord("E", (0, 1))], (0, -1))


@pytest.mark.parametrize("witness", [(2.1, -1), (True, -1), (2, False), ("2e3", -1), ("2", "-1/0")])
def test_model_rejects_an_inexact_witness(witness):
    # each coordinate goes through the class coordinate check: no float,
    # bool, exponent form or zero denominator becomes a rational silently
    with pytest.raises(InputError):
        SurfaceModel(2, [[1, 0], [0, -1]], [CurveRecord("E", (0, 1))], witness)


def test_model_takes_a_witness_in_the_rational_grammar():
    m = SurfaceModel(2, [[1, 0], [0, -1]], [CurveRecord("E", (0, 1))], ("5/2", "-1"))
    assert m.ample_witness == (Fraction(5, 2), -1)
    assert all(type(x) is Fraction for x in m.ample_witness)


def test_model_rejects_malformed_curves():
    with pytest.raises(InputError):
        SurfaceModel(2, [[1, 0], [0, -1]], [CurveRecord("Z", (0, 0))], (2, -1))
    with pytest.raises(InputError):
        SurfaceModel(
            2,
            [[1, 0], [0, -1]],
            [CurveRecord("E", (0, 1)), CurveRecord("E", (0, 1))],
            (2, -1),
        )


@pytest.mark.parametrize(
    "cls,message",
    [
        ((0, True), "must have an integer class"),
        ((True, 0), "must have an integer class"),
        ((0, 1.0), "must have an integer class"),
        # the zero class is reported before the entry types
        ((0, False), "has zero class"),
        ((0.0, 0), "has zero class"),
        ((0, Fraction(1)), "must have an integer class"),
    ],
)
def test_model_checks_class_entries(cls, message):
    with pytest.raises(InputError, match=f"^curve 'E' {message}$"):
        SurfaceModel(2, [[1, 0], [0, -1]], [CurveRecord("E", cls)], (2, -1))


@pytest.mark.parametrize("cls", [[0.7, 1], [0, Fraction(1)], [0, "1"], [0, True]])
def test_model_checks_entries_of_a_curve_given_as_a_pair(cls):
    # a (label, class) pair is checked as a CurveRecord is, not truncated
    with pytest.raises(InputError, match="^curve 'E' must have an integer class$"):
        SurfaceModel(2, [[1, 0], [0, -1]], [("E", cls)], [2, -1])


@pytest.mark.parametrize("entry", [True, 1.0, "1", Fraction(1)])
def test_model_checks_matrix_entries(entry):
    with pytest.raises(InputError, match="^intersection matrix entries must be integers$"):
        SurfaceModel(2, [[entry, 0], [0, -1]], [CurveRecord("E", (0, 1))], (2, -1))


def test_negative_definite_examples():
    assert is_negative_definite(BL1, ["E"])
    assert not is_negative_definite(BL1, ["H"])
    assert is_negative_definite(CHAIN, ["C1", "C2"])  # Gram [[-2,1],[1,-1]]
    assert is_negative_definite(BL1, [])


def test_negative_definite_unknown_label():
    with pytest.raises(InputError):
        is_negative_definite(BL1, ["nope"])


def test_dual_graph_components():
    assert dual_graph_components(BL2, ["E1", "E2"]) == [["E1"], ["E2"]]
    assert dual_graph_components(CHAIN, ["C1", "C2"]) == [["C1", "C2"]]
    assert dual_graph_components(CHAIN, []) == []
    chain, _ = chain_model(4)  # C1 - C2 - C3
    assert dual_graph_components(chain, ["C3", "C1", "C2"]) == [["C1", "C2", "C3"]]
    assert dual_graph_components(chain, ["C3", "C1"]) == [["C1"], ["C3"]]


def test_is_model_ample():
    assert is_model_ample(BL1, DivisorClass((2, -1)))
    assert not is_model_ample(BL1, DivisorClass((1, 0)))  # pairs 0 with E
    assert not is_model_ample(BL1, DivisorClass((1, -1)))  # square 0


def _double_sum(gram, u, v):
    total = 0
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            total = total + ui * gram[i][j] * vj
    return total


def _random_model(rng, n):
    """diag(1, -1, ..., -1) in the basis of a random unimodular U: G = U^T D U.

    The witness solves U w = e_0, so w.w = 1; curves are random integer
    classes, negated where needed to pair positively with w.
    """
    u = random_unimodular(rng, n)
    diag = [1] + [-1] * (n - 1)
    gram = [
        [sum(u[k][i] * diag[k] * u[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    witness = [int(x) for x in solve(u, [1] + [0] * (n - 1))]
    curves = []
    while len(curves) < n + 2:
        c = [rng.randint(-2, 2) for _ in range(n)]
        side = _double_sum(gram, witness, c)
        if side:
            cls = tuple(x if side > 0 else -x for x in c)
            curves.append(CurveRecord(f"C{len(curves)}", cls))
    return SurfaceModel(n, gram, curves, witness), gram


def _split(xs):
    """Rational classes x0, x1 with x = x0 + x1*sqrt(d) coordinatewise."""
    return (
        DivisorClass([x.p if isinstance(x, QExt) else x for x in xs]),
        DivisorClass([x.q if isinstance(x, QExt) else 0 for x in xs]),
    )


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_tables_match_double_sum(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    n = data.draw(st.integers(2, 6))
    model, gram = _random_model(rng, n)
    rat = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    if data.draw(st.booleans()):
        d = data.draw(st.sampled_from([2, 3, 5]))
        coord = st.builds(lambda p, q: QExt(p, q, d), rat, rat)
        root = QExt(0, 1, d)
    else:
        coord, root = rat, Fraction(0)
    v = [data.draw(coord) for _ in range(n)]
    u = [data.draw(st.one_of(rat, coord)) for _ in range(n)]
    # a class holds rationals only: a Q(sqrt d) vector x is paired as
    # x0 + x1*sqrt(d), with x0 and x1 rational classes
    v0, v1 = _split(v)
    u0, u1 = _split(u)
    fresh = [DivisorClass(u0.coords), DivisorClass(u1.coords)]
    for rec in model.curves:
        want = as_exact(_double_sum(gram, v, rec.cls))
        for pairing in (
            lambda x: pair_curve(model, x, rec.label),
            lambda x: pair(model, x, rec.cls),
        ):
            got = pairing(v0) + root * pairing(v1)
            assert got == want and type(got) is type(want)  # rational: a Fraction
    want = as_exact(_double_sum(gram, u, v))
    got = (
        pair(model, u0, v0)
        + root * (pair(model, u0, v1) + pair(model, u1, v0))
        + root * root * pair(model, u1, v1)
    )
    assert got == want and type(got) is type(want)
    # the integer form a pairing keeps is not part of the value
    for x, y in zip((u0, u1), fresh):
        assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
    labels = list(model.labels())
    products = [[_double_sum(gram, a.cls, b.cls) for b in model.curves] for a in model.curves]
    assert gram_matrix(model, labels) == products
    # the stored curve products: every nonzero C_k.C_l, and no zero entry
    for i, b in enumerate(labels):
        table = curve_products(model, b)
        assert 0 not in table.values()
        assert table == {a: products[k][i] for k, a in enumerate(labels) if products[k][i]}
    # components of the graph on the curves numbered in `keep`, with an edge
    # where the double sum is positive
    def components(keep):
        comps, seen = [], set()
        for i in sorted(keep):
            if i in seen:
                continue
            comp, stack = set(), [i]
            while stack:
                k = stack.pop()
                if k not in comp:
                    comp.add(k)
                    stack.extend(j for j in keep if j != k and products[k][j] > 0)
            seen |= comp
            comps.append([labels[k] for k in sorted(comp)])
        return comps

    assert dual_graph_components(model, labels) == components(range(len(labels)))
    keep = rng.sample(range(len(labels)), rng.randint(0, len(labels)))  # in shuffled order
    assert dual_graph_components(model, [labels[k] for k in keep]) == components(keep)


@pytest.mark.parametrize("label", ["nope", ["E"]])
def test_curve_tables_reject_unknown_label(label):
    # an unknown or unhashable label is an input error in every table lookup
    for lookup in (
        lambda: curve_products(BL1, label),
        lambda: BL1.class_of(label),
        lambda: gram_matrix(BL1, ["E", label]),
        lambda: dual_graph_components(BL1, ["E", label]),
        lambda: pair_curve(BL1, (1, 0), label),
    ):
        with pytest.raises(InputError, match="unknown curve label"):
            lookup()


@pytest.mark.parametrize("rho", [8, 16, 32])
def test_lazy_tables_match_dense_double_sum(rho):
    # the ranks of the benchmark's forest models: a fresh model holds no
    # product row, each lookup builds exactly its own row, and every product
    # row and dual row G.c_l equals the dense double sum
    m = forest_case(random.Random(rho), rho).model
    model = SurfaceModel(m.rank, m.gram, m.curves, m.ample_witness)
    assert model._products == {}
    gram, curves = model.gram, model.curves
    labels = list(model.labels())
    for c in curves:
        dual = [sum(gram[i][j] * c.cls[j] for j in range(rho)) for i in range(rho)]
        assert model._duals[c.label] == tuple((i, y) for i, y in enumerate(dual) if y)
    dense = [[_double_sum(gram, a.cls, b.cls) for b in curves] for a in curves]
    for i, b in enumerate(labels):
        row = curve_products(model, b)
        assert list(model._products) == labels[: i + 1]
        assert row == {a: dense[k][i] for k, a in enumerate(labels) if dense[k][i]}
        assert curve_products(model, b) is row
    assert gram_matrix(model, labels) == dense
    for label in ("nope", ["E"]):
        for lookup in (
            lambda: curve_products(model, label),
            lambda: gram_matrix(model, [labels[0], label]),
            lambda: dual_graph_components(model, [labels[0], label]),
        ):
            with pytest.raises(InputError, match="unknown curve label"):
                lookup()
    assert list(model._products) == labels


def test_class_of_is_the_declared_class_in_fractions():
    m = SurfaceModel(2, [[1, 0], [0, -1]], [CurveRecord("E", (0, 1))], (2, -1))
    cls = m.class_of("E")
    assert cls == DivisorClass((0, 1))
    assert all(type(x) is Fraction for x in cls.coords)


def test_arithmetic_results_stay_exact():
    v = DivisorClass((1, Fraction(1, 2)))
    assert v + (1, 1) == DivisorClass((2, Fraction(3, 2)))
    assert -v == DivisorClass((-1, Fraction(-1, 2)))
    # a class is rational: an irrational factor is an input error, and a
    # rational QExt factor gives Fraction coordinates
    with pytest.raises(InputError):
        v.scale(QExt(0, 1, 2))
    assert v.scale(QExt(2, 0, 0)).coords == (2, 1)
    assert all(type(x) is Fraction for x in v.scale(QExt(2, 0, 0)).coords)
    with pytest.raises(InputError):
        v.scale(0.5)
    with pytest.raises(InputError):
        DivisorClass((0.5, 1))


_COORD = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@given(
    st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=5),
    st.one_of(st.integers(-9, 9), _COORD),
)
@settings(max_examples=200, deadline=None)
def test_trusted_arithmetic_equals_the_validated_constructor(pairs, k):
    u = DivisorClass([a for a, _ in pairs])
    v = DivisorClass([b for _, b in pairs])
    for got, want in [
        (u + v, [a + b for a, b in pairs]),
        (u - v, [a - b for a, b in pairs]),
        (-u, [-a for a, _ in pairs]),
        (u.scale(k), [k * a for a, _ in pairs]),
        (k * u, [k * a for a, _ in pairs]),
    ]:
        ref = DivisorClass(want)
        assert got == ref and hash(got) == hash(ref)
        assert got.coords == ref.coords and all(type(x) is Fraction for x in got.coords)
        assert got._scaled() == ref._scaled()


def test_support_elimination_is_kept_per_support():
    m = SurfaceModel(
        3, [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        [CurveRecord("C1", (0, 1, -1)), CurveRecord("C2", (0, 0, 1)), CurveRecord("H", (1, 0, 0))],
        (3, -2, -1),
    )
    elim = support_elimination(m, ["C1", "C2"])
    assert support_elimination(m, ("C1", "C2")) is elim
    assert is_negative_definite(m, ["C1", "C2"])
    assert list(m._eliminations) == [("C1", "C2")]
    # a support that fails Sylvester's test is not kept, and fails again
    for _ in range(2):
        with pytest.raises(NotNegativeDefinite):
            support_elimination(m, ["C2", "H"])
        assert not is_negative_definite(m, ["H"])
    assert list(m._eliminations) == [("C1", "C2")]
    assert inertia(gram_matrix(m, ["C2", "H"])) == (1, 1, 0)


@pytest.mark.parametrize(
    "coord",
    [None, ["E"], "x", "1e1000", "1.5", " 3", "+3", "3/0"]
    + [pytest.param("1" * 4301, id="4301-digits"), pytest.param("1/" + "1" * 4301, id="4301-digit-den")],
)
def test_non_number_coordinate_is_an_input_error(coord):
    with pytest.raises(InputError, match="is not a number"):
        DivisorClass([coord, 1])


def test_qext_coordinate_is_an_input_error():
    with pytest.raises(InputError, match="is not a number"):
        DivisorClass([QExt(0, 1, 2), 1])
    with pytest.raises(InputError, match="is not a number"):
        SurfaceModel(2, [[1, 0], [0, -1]], [CurveRecord("E", (0, 1))], (QExt(2, 1, 2), -1))


def test_coordinate_strings_in_the_grammar():
    assert DivisorClass(["-3", "3/2", "1" * 4300]).coords == (-3, Fraction(3, 2), int("1" * 4300))
