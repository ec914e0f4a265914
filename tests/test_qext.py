import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noksurf.errors import InputError
from noksurf.qext import QExt, as_exact, format_exact, sqrt_fraction

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)
radicands = st.sampled_from([0, 2, 3, 5, 6, 7, 10, 13])


def qexts(d):
    return st.builds(lambda p, q: QExt(p, q, d), rationals, rationals)


def test_normalization():
    assert QExt(Fraction(1, 2), 0, 5).d == 0
    assert QExt(1, 1, 1) == 2
    assert QExt(0, 2, 8) == QExt(0, 4, 2)  # sqrt(8) = 2 sqrt(2)
    assert QExt(3).q == 0 and QExt(3).d == 0
    assert QExt(3).p == 3


def test_sqrt_fraction():
    assert sqrt_fraction(Fraction(9, 4)) == Fraction(3, 2)
    assert type(sqrt_fraction(Fraction(9, 4))) is Fraction
    assert type(sqrt_fraction(0)) is Fraction
    r = sqrt_fraction(Fraction(1, 2))  # 1/2 * sqrt(2)
    assert r.q == Fraction(1, 2) and r.d == 2
    assert r * r == Fraction(1, 2)
    with pytest.raises(InputError):
        sqrt_fraction(Fraction(-1))


def test_fields_cannot_be_deleted_or_assigned():
    r = sqrt_fraction(2)
    for field in ("p", "q", "d"):
        value = getattr(r, field)
        with pytest.raises(AttributeError):
            delattr(r, field)
        with pytest.raises(AttributeError):
            setattr(r, field, value)
        assert getattr(r, field) is value
    assert (r.p, r.q, r.d) == (0, 1, 2) and r * r == 2


def test_mixed_radicands_rejected():
    a = QExt(0, 1, 2)
    b = QExt(0, 1, 3)
    with pytest.raises(InputError):
        a + b
    # rational values mix with anything
    assert QExt(1, 0, 2) + b == QExt(1, 1, 3)


def test_comparison_known_values():
    # sqrt(2) ~ 1.414...
    assert QExt(0, 1, 2) > Fraction(7, 5)
    assert QExt(0, 1, 2) < Fraction(3, 2)
    assert QExt(3, -2, 2) > 0  # 3 - 2.828 > 0
    assert QExt(2, -2, 2) < 0
    assert QExt(1, 1, 2) > QExt(2, 0, 2)


@given(d=radicands, data=st.data())
@settings(max_examples=200)
def test_ring_laws(d, data):
    a = data.draw(qexts(d))
    b = data.draw(qexts(d))
    c = data.draw(qexts(d))
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a + b == b + a
    assert (a - b) + b == a


def _parts(x):
    return (x.p, x.q) if isinstance(x, QExt) else (x, 0)


@given(d=radicands, data=st.data())
@settings(max_examples=200)
def test_rational_results_are_fractions(d, data):
    # a result is a QExt exactly when its sqrt(d) coefficient is nonzero
    a = data.draw(qexts(d) | rationals)
    b = data.draw(qexts(d) | rationals)
    (pa, qa), (pb, qb) = _parts(a), _parts(b)
    results = [(a + b, qa + qb), (a - b, qa - qb), (a * b, pa * qb + qa * pb), (-a, -qa)]
    if b != 0:
        results.append((a / b, qa * pb - pa * qb))
    if a != 0:
        results.append((b / a, qb * pa - pb * qa))
    for r, q in results:
        assert type(r) is (QExt if q != 0 else Fraction)


@given(d=radicands, data=st.data())
@settings(max_examples=200)
def test_conjugate_norm(d, data):
    a = data.draw(qexts(d))
    norm = a * QExt(a.p, -a.q, a.d)  # the conjugate
    assert norm == a.p * a.p - a.q * a.q * a.d


@given(d=radicands, data=st.data())
@settings(max_examples=200)
def test_trichotomy_and_division(d, data):
    a = data.draw(qexts(d))
    b = data.draw(qexts(d))
    signs = sum([(a < b), (a == b), (a > b)])
    assert signs == 1
    if b != 0:
        assert (a / b) * b == a


def exact_values(d):
    """A QExt of radicand d, or a rational as a QExt, Fraction or int."""
    return st.one_of(
        qexts(d),
        rationals.map(QExt),
        rationals,
        st.integers(-50, 50),
    )


@given(d=radicands, data=st.data())
@settings(max_examples=300)
def test_equality_by_components_agrees_with_the_order(d, data):
    # __eq__ compares components; _cmp takes the sign of the difference
    a = data.draw(qexts(d))
    b = data.draw(exact_values(d))
    if data.draw(st.booleans()):
        b = a * 2 - a  # an equal value, built by arithmetic
    assert (a == b) is (a._cmp(b) == 0)
    assert (b == a) is (a == b)
    assert (a != b) is (b != a) is (a._cmp(b) != 0)
    if a == b:
        assert hash(a) == hash(b)


@given(data=st.data())
@settings(max_examples=100)
def test_equality_rejects_mixed_radicands(data):
    a = data.draw(qexts(2).filter(lambda x: x.q != 0))
    b = data.draw(qexts(3).filter(lambda x: x.q != 0))
    for op in (operator.eq, operator.ne):
        with pytest.raises(InputError, match="mixed quadratic radicands"):
            op(a, b)


def test_sorting_mixed_types():
    vals = [QExt(0, 1, 2), Fraction(1), QExt(3), Fraction(-1, 2)]
    assert sorted(vals) == [Fraction(-1, 2), Fraction(1), QExt(0, 1, 2), QExt(3)]


def test_float_inputs_rejected():
    with pytest.raises(InputError):
        QExt(0.5)


def test_as_exact_downcasts():
    assert isinstance(as_exact(QExt(3, 0, 0)), Fraction)
    assert isinstance(as_exact(QExt(0, 1, 2)), QExt)


@pytest.mark.parametrize(
    "value,text",
    [
        (QExt(Fraction(3, 2)), "3/2"),
        (QExt(5), "5"),
        (QExt(Fraction(3, 2), Fraction(-1, 2), 5), "3/2-1/2*sqrt(5)"),
        (QExt(0, 1, 2), "1*sqrt(2)"),
        (QExt(0, -1, 2), "-1*sqrt(2)"),
        (QExt(-2, Fraction(1, 3), 7), "-2+1/3*sqrt(7)"),
    ],
)
def test_format_exact(value, text):
    assert format_exact(value) == text


def test_hash_consistent_with_fraction():
    assert hash(QExt(Fraction(3, 2))) == hash(Fraction(3, 2))
    assert QExt(Fraction(3, 2)) == Fraction(3, 2)


def test_rational_operands_skip_the_constructor(monkeypatch):
    # an int or Fraction operand is lifted to p + 0*sqrt(0) directly, with
    # the results of lifting it through QExt(r) first
    values = [QExt(1, 2, 3), QExt(Fraction(-1, 2), Fraction(1, 3), 3), QExt(0, -1, 7)]
    rationals = [Fraction(5, 7), 3, Fraction(-2), 0, Fraction(1, 2)]
    ops = [
        operator.add, operator.sub, operator.mul, operator.truediv,
        operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge,
    ]
    cases = [
        (op, a, r) for op in ops for a in values for r in rationals
        if r or op is not operator.truediv
    ]
    want = [(op(a, QExt(r)), op(QExt(r), a)) for op, a, r in cases]
    calls = []
    init = QExt.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QExt, "__init__", counting)
    got = [(op(a, r), op(r, a)) for op, a, r in cases]
    assert calls == []
    assert got == want
    assert [type(x) for pair in got for x in pair] == [type(x) for pair in want for x in pair]
