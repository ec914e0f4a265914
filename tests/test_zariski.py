from fractions import Fraction
from itertools import combinations, permutations

import pytest

from helpers import corpus
from noksurf import (
    CurveRecord,
    DivisorClass,
    InputError,
    ModelError,
    SurfaceModel,
    pair,
    relative_negative_part,
    zariski_decompose,
)

BL1 = SurfaceModel(
    2, [[1, 0], [0, -1]], [CurveRecord("E", (0, 1))], (2, -1)
)
# rank 3 with an A2 block: C1.C1 = C2.C2 = -2, C1.C2 = 1
A2 = SurfaceModel(
    3,
    [[1, 0, 0], [0, -2, 1], [0, 1, -2]],
    [CurveRecord("C1", (0, 1, 0)), CurveRecord("C2", (0, 0, 1))],
    (3, -1, -1),
)


def test_blowup_example():
    dec = zariski_decompose(BL1, DivisorClass((1, 1)), ["E"])
    assert dec.support == ("E",)
    assert dec.coeffs["E"] == 1
    assert dec.positive_part == DivisorClass((1, 0))


def test_nef_case_empty_support():
    dec = zariski_decompose(BL1, DivisorClass((3, -1)), ["E"])
    assert dec.support == ()
    assert dec.positive_part == DivisorClass((3, -1))


def test_a2_chain_example():
    # D.C1 = -1, D.C2 = 0 solves to 2/3, 1/3
    d = DivisorClass((2, Fraction(2, 3), Fraction(1, 3)))
    assert pair(A2, d, A2.class_of("C1")) == -1
    assert pair(A2, d, A2.class_of("C2")) == 0
    dec = zariski_decompose(A2, d, ["C1", "C2"])
    assert dec.coeffs == {"C1": Fraction(2, 3), "C2": Fraction(1, 3)}
    assert dec.positive_part == DivisorClass((2, 0, 0))
    negative = DivisorClass((0, 0, 0))
    for l, a in dec.coeffs.items():
        negative = negative + A2.class_of(l).scale(a)
    assert negative == d - dec.positive_part


def test_inconsistent_candidates_raise():
    # declared "irreducible" curves meeting negatively: the Gram stays
    # negative definite but the solved coefficients go negative
    m = SurfaceModel(
        3,
        [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        [CurveRecord("C1", (0, 1, 0)), CurveRecord("C2", (0, 1, -1))],
        (3, -2, -1),
    )
    assert pair(m, m.class_of("C1"), m.class_of("C2")) == -1
    with pytest.raises(ModelError):
        zariski_decompose(m, DivisorClass((1, 3, 2)), ["C1", "C2"])


def test_nonnegative_definite_candidate_set():
    m = SurfaceModel(
        2, [[1, 0], [0, -1]], [CurveRecord("E", (0, 1)), CurveRecord("B", (1, -2))], (3, -1)
    )
    # B has square -3 but D.B < 0 with D.E < 0 makes the pair {E, B} indefinite?
    # Gram of {E, B} is [[-1, 2], [2, -3]] with determinant -1: not definite.
    d = DivisorClass((-2, 3))
    # the failing support is not kept: a repeated solve fails the same way
    for _ in range(2):
        with pytest.raises(ModelError) as err:
            zariski_decompose(m, d, ["E", "B"])
        assert str(err.value) == (
            "candidate set contains non-negative-definite support: "
            "['E', 'B'] has inertia (1, 1, 0)"
        )
        with pytest.raises(ModelError) as err:
            relative_negative_part(m, d, ["E", "B"])
        assert str(err.value) == "subset ['E', 'B'] is not negative definite (inertia (1, 1, 0))"
    assert ("E", "B") not in m._eliminations


def test_duplicate_candidates_rejected():
    with pytest.raises(InputError):
        zariski_decompose(BL1, DivisorClass((1, 1)), ["E", "E"])
    with pytest.raises(InputError):
        relative_negative_part(BL1, DivisorClass((1, 1)), ["E", "E"])


@pytest.mark.parametrize("solve", [zariski_decompose, relative_negative_part])
def test_unhashable_label_is_an_input_error(solve):
    with pytest.raises(InputError, match="unknown curve label"):
        solve(BL1, DivisorClass((1, 1)), [["E"]])


def test_relative_negative_part_examples():
    d = DivisorClass((2, Fraction(2, 3), Fraction(1, 3)))
    rel = relative_negative_part(A2, d, ["C1"])
    assert rel == {"C1": Fraction(1, 2)}
    full = zariski_decompose(A2, d, ["C1", "C2"])
    rel_full = relative_negative_part(A2, d, ["C1", "C2"])
    assert rel_full == full.coeffs
    assert relative_negative_part(A2, d, []) == {}


def test_relative_negative_part_singular():
    m = SurfaceModel(
        3,
        [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        [CurveRecord("E1", (0, 1, 0)), CurveRecord("E1b", (0, 1, 0))],
        (3, -1, -1),
    )
    with pytest.raises(ModelError) as err:
        relative_negative_part(m, DivisorClass((1, 0, 0)), ["E1", "E1b"])
    assert str(err.value) == "Gram matrix of ['E1', 'E1b'] is singular (inertia (0, 1, 1))"
    with pytest.raises(ModelError) as err:
        zariski_decompose(m, DivisorClass((3, 1, -1)), ["E1", "E1b"])
    assert str(err.value) == (
        "candidate set contains non-negative-definite support: "
        "['E1', 'E1b'] has inertia (0, 1, 1)"
    )


def _decomposable_cases():
    for case in corpus(seed=20240, count=60):
        if not case.model.curves:
            continue
        yield case


def test_corpus_certificates():
    for case in _decomposable_cases():
        dec = zariski_decompose(case.model, case.divisor, case.model.labels())
        p = dec.positive_part
        for l in dec.support:
            assert dec.coeffs[l] > 0
            assert pair(case.model, p, case.model.class_of(l)) == 0
        for l in case.model.labels():
            assert pair(case.model, p, case.model.class_of(l)) >= 0
        # idempotence
        again = zariski_decompose(case.model, p, case.model.labels())
        assert again.support == ()
        assert again.positive_part == p


def test_corpus_order_invariance():
    for case in list(_decomposable_cases())[:20]:
        labels = list(case.model.labels())
        base = zariski_decompose(case.model, case.divisor, labels)
        for perm in list(permutations(labels))[:6]:
            other = zariski_decompose(case.model, case.divisor, list(perm))
            assert other.support == base.support
            assert other.coeffs == base.coeffs
            assert other.positive_part == base.positive_part


def test_corpus_subset_monotonicity():
    # relative coefficients never exceed the full decomposition's; push the
    # ample class by the whole declared configuration to force big supports
    checked = 0
    for case in _decomposable_cases():
        scale = 1 + max(
            pair(case.model, case.divisor, case.model.class_of(l))
            for l in case.model.labels()
        )
        loaded = case.divisor
        for rec in case.model.curves:
            loaded = loaded + case.model.class_of(rec.label).scale(scale)
        for d in (case.divisor, loaded):
            try:
                dec = zariski_decompose(case.model, d, case.model.labels())
            except Exception:
                raise AssertionError(f"{case.name}: decomposition failed for {d}")
            support = list(dec.support)
            for r in range(len(support) + 1):
                for subset in combinations(support, r):
                    rel = relative_negative_part(case.model, d, list(subset))
                    for l, b in rel.items():
                        assert b <= dec.coeffs[l]
                        checked += 1
    assert checked > 100
