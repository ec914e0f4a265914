import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import charpoly_inertia, gauss_jordan, leading_minor_inertia, random_unimodular
from noksurf.errors import InputError
from noksurf.linalg import (
    NotNegativeDefinite,
    SingularSystem,
    eliminate_negative_definite,
    in_span,
    inertia,
    rank,
    solve,
    solve_eliminated,
    solve_many,
)


def test_solve_exact():
    # 2x + y = 5, x - y = 1  ->  x = 2, y = 1
    assert solve([[2, 1], [1, -1]], [5, 1]) == [2, 1]
    x = solve([[Fraction(1, 3)]], [1])
    assert x == [3]


def test_solve_singular():
    with pytest.raises(SingularSystem):
        solve([[1, 2], [2, 4]], [1, 1])


def test_solve_many_columns():
    cols = solve_many([[2, 0], [0, 4]], [[2, 4], [1, 0]])
    assert cols == [[1, 1], [Fraction(1, 2), 0]]


def test_inertia_examples():
    assert inertia([[1, 0], [0, -1]]) == (1, 1, 0)
    # leading principal minors -2, 3: two sign changes
    assert inertia([[-2, 1], [1, -2]]) == (0, 2, 0)
    assert inertia([[1]]) == (1, 0, 0)
    assert inertia([[0, 1], [1, 0]]) == (1, 1, 0)
    assert inertia([[0, 0], [0, 0]]) == (0, 0, 2)
    assert inertia([[1, 1], [1, 1]]) == (1, 0, 1)


def test_inertia_rejects_nonsymmetric():
    with pytest.raises(InputError):
        inertia([[0, 1], [2, 0]])


def test_inertia_matches_minor_oracle():
    rng = random.Random(3)
    hits = 0
    while hits < 60:
        n = rng.randrange(1, 5)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randrange(-4, 5)
        minors_ok = True
        for k in range(1, n + 1):
            sub = [row[:k] for row in m[:k]]
            if inertia(sub)[2] > 0:
                minors_ok = False
                break
        if not minors_ok:
            continue
        try:
            assert inertia(m) == leading_minor_inertia(m)
        except AssertionError:
            raise
        hits += 1


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=120)
def test_inertia_congruence_invariance(n, seed):
    rng = random.Random(seed)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randrange(-5, 6)
    s = random_unimodular(rng, n)
    st_m_s = [
        [
            sum(s[k][i] * m[k][l] * s[l][j] for k in range(n) for l in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    assert inertia(st_m_s) == inertia(m)


def test_rank_and_span():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([]) == 0
    assert in_span([[1, 0], [0, 1]], [3, 4])
    assert not in_span([[1, 1]], [1, 0])
    assert in_span([[2, 2]], [1, 1])


# -- differential oracle: fraction-free elimination vs plain Gauss-Jordan -----

_entry = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.builds(Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)),
)


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@st.composite
def _matrices(draw, symmetric):
    """Dense, rank-deficient, zero-diagonal (hyperbolic) and negative
    (semi)definite matrices up to 7x7."""
    n = draw(st.integers(min_value=1, max_value=7))
    kind = draw(st.sampled_from(["dense", "low-rank", "hyperbolic", "definite"]))

    def cells(r, c):
        return [[draw(_entry) for _ in range(c)] for _ in range(r)]

    if kind == "dense":
        m = cells(n, n)
    elif kind == "low-rank":
        r = draw(st.integers(min_value=0, max_value=n - 1))
        m = _product(cells(n, r), cells(r, n)) if r else [[0] * n for _ in range(n)]
    elif kind == "hyperbolic":
        m = cells(n, n)
        for i in range(n):
            m[i][i] = 0
    else:  # -(B B^T) - diag(e): definite when e > 0 or B is invertible
        b = cells(n, n)
        m = _product(b, [list(col) for col in zip(*b)])
        e = [draw(st.integers(min_value=0, max_value=2)) for _ in range(n)]
        m = [[-x - (e[i] if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(m)]
    if symmetric:
        m = [[m[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]
    return m


@given(_matrices(symmetric=False), st.data())
@settings(max_examples=200, deadline=None)
def test_rank_and_solve_match_gauss_jordan(m, data):
    n = len(m)
    cols = [[data.draw(_entry) for _ in range(n)] for _ in range(data.draw(st.integers(0, 2)))]
    r, sols = gauss_jordan(m, cols)
    assert rank(m) == r
    assert rank([row[: n - 1] for row in m]) == gauss_jordan([row[: n - 1] for row in m])[0]
    if sols is None:
        with pytest.raises(SingularSystem):
            solve_many(m, cols)
    else:
        assert solve_many(m, cols) == sols


@given(_matrices(symmetric=True), st.data())
@settings(max_examples=200, deadline=None)
def test_inertia_and_definite_solve_match_oracles(m, data):
    n = len(m)
    sig = inertia(m)
    assert sig == charpoly_inertia(m)
    cols = [[data.draw(_entry) for _ in range(n)] for _ in range(data.draw(st.integers(0, 2)))]
    if sig != (0, n, 0):
        with pytest.raises(NotNegativeDefinite):
            _definite_solve(*_over_one_denominator(m, cols))
    else:
        gram, sides = _over_one_denominator(m, cols)
        den, nums = _definite_solve(gram, sides)
        assert den > 0 and all(type(x) is int for col in nums for x in col)
        assert _over(den, nums) == gauss_jordan(m, cols)[1]
        assert (den, nums) == _augmented_bareiss(gram, sides)


def _over(den, nums):
    return [[Fraction(x, den) for x in col] for col in nums]


def _over_one_denominator(gram, columns):
    """The system gram*x = b for each b in `columns`, scaled to integers by
    the lcm of all its denominators; the solutions do not change."""
    den = lcm(*(Fraction(x).denominator for row in (*gram, *columns) for x in row))
    return [[int(x * den) for x in row] for row in gram], [[int(x * den) for x in c] for c in columns]


def _definite_solve(gram, columns):
    """An integer negative definite system eliminated afresh and every
    right-hand side replayed on it, as the support kernel solves."""
    return solve_eliminated(eliminate_negative_definite([list(row) for row in gram]), columns)


def test_solve_negative_definite_examples():
    assert _definite_solve([[-2, 1], [1, -2]], [[-1, 0], [3, 3]]) == (3, [[2, 1], [-9, -9]])
    assert _over(*_definite_solve([[-2, 1], [1, -2]], [[-1, 0], [3, 3]])) == [
        [Fraction(2, 3), Fraction(1, 3)],
        [-3, -3],
    ]
    # odd size: the determinant -4 is negative, the returned denominator is not
    assert _definite_solve([[-2, 1, 0], [1, -2, 1], [0, 1, -2]], [[1, 0, 0]]) == (
        4, [[-3, -2, -1]]
    )
    assert _definite_solve([], [[]]) == (1, [[]])
    for bad in ([[-1, 2], [2, -3]], [[-1, -1], [-1, -1]], [[0, 1], [1, 0]], [[1]]):
        with pytest.raises(NotNegativeDefinite):
            _definite_solve(bad, [[1] * len(bad)])


def _augmented_bareiss(gram, columns):
    """Reference: fraction-free elimination of the integer matrix augmented
    by its right-hand sides, all columns at once, then back substitution;
    (|det|, numerators) with the sign moved onto the numerators."""
    n = len(gram)
    m = [list(row) + [c[i] for c in columns] for i, row in enumerate(gram)]
    prev = 1
    for k in range(n):
        for r in range(k + 1, n):
            m[r] = m[r][: k + 1] + [
                (m[k][k] * x - m[r][k] * y) // prev for x, y in zip(m[r][k + 1 :], m[k][k + 1 :])
            ]
        prev = m[k][k]
    det = prev
    out = []
    for c in range(n, n + len(columns)):
        dx = [0] * n
        for i in range(n - 1, -1, -1):
            acc = det * m[i][c] - sum(m[i][l] * dx[l] for l in range(i + 1, n))
            dx[i] = acc // m[i][i]
        out.append([x if det > 0 else -x for x in dx])
    return abs(det), out


_INT = st.integers(min_value=-4, max_value=4)


@st.composite
def _integer_grams(draw):
    """-(B B^T) - diag(e), e in 0..2: negative definite when e > 0 or B is
    invertible, semidefinite (so rejected) otherwise."""
    n = draw(st.integers(min_value=1, max_value=7))
    b = [[draw(_INT) for _ in range(n)] for _ in range(n)]
    e = [draw(st.integers(min_value=0, max_value=2)) for _ in range(n)]
    return [
        [-sum(x * y for x, y in zip(b[i], b[j])) - (e[i] if i == j else 0) for j in range(n)]
        for i in range(n)
    ]


@given(_integer_grams(), st.data())
@settings(max_examples=200, deadline=None)
def test_replayed_solves_equal_fresh_ones(gram, data):
    # one elimination, replayed on several sets of integer right-hand sides,
    # gives what a fresh solve and a fresh augmented elimination give, and
    # stays as it was
    n = len(gram)
    try:
        m = eliminate_negative_definite([list(row) for row in gram])
    except NotNegativeDefinite:
        assert inertia(gram) != (0, n, 0)
        return
    assert inertia(gram) == (0, n, 0)
    kept = [list(row) for row in m]
    for _ in range(3):
        cols = [[data.draw(_INT) for _ in range(n)] for _ in range(data.draw(st.integers(0, 3)))]
        got = solve_eliminated(m, cols)
        assert got == _definite_solve(gram, cols) == _augmented_bareiss(gram, cols)
        assert m == kept


def _random_symmetric(rng, n, rational):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = rng.randrange(-4, 5)
            m[i][j] = m[j][i] = Fraction(x, rng.randrange(1, 7)) if rational else x
    return m


def _block_sum(rng, n, rational):
    """P^T (L B L) P for a block-diagonal B of small symmetric blocks, many with
    zero diagonals, a positive diagonal L and a permutation P.  Zero pivots
    make the elimination search for a diagonal pivot or make one by a
    row+column addition.  Returns the matrix and its inertia, the sum of the
    blocks' inertias by the characteristic polynomial (Sylvester's law)."""
    m = [[0] * n for _ in range(n)]
    sig = (0, 0, 0)
    start = 0
    while start < n:
        size = min(rng.randrange(1, 6), n - start)
        block = _random_symmetric(rng, size, False)
        for i in range(size):
            if rng.random() < 0.7:
                block[i][i] = 0
        sig = tuple(a + b for a, b in zip(sig, charpoly_inertia(block)))
        for i in range(size):
            m[start + i][start : start + size] = block[i]
        start += size
    scale = [Fraction(rng.randrange(1, 6), rng.randrange(1, 6)) if rational else 1 for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return [[scale[a] * m[a][b] * scale[b] for b in perm] for a in perm], sig


@pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
@pytest.mark.parametrize("n", [8, 16, 24, 32])
def test_inertia_matches_oracles_at_model_ranks(n, rational):
    rng = random.Random(100 * n + rational)
    while True:
        m = _random_symmetric(rng, n, rational)
        try:
            sig = leading_minor_inertia(m)
        except AssertionError:  # Jacobi's rule needs nonzero leading minors
            continue
        break
    assert inertia(m) == sig
    if n <= 16:
        # a zero diagonal: the first pivot comes from a row+column addition
        for i in range(n):
            m[i][i] = 0
        assert inertia(m) == charpoly_inertia(m)
    for _ in range(4):
        m, sig = _block_sum(rng, n, rational)
        assert inertia(m) == sig


_OFF_DIAGONAL = st.one_of(st.just(0), st.integers(-3, 3))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_inertia_with_a_zero_diagonal_matches_charpoly(data):
    # no diagonal pivot at the first step, so every matrix with a nonzero
    # entry reaches the row addition; zeros ahead of the first nonzero entry
    # and a later Schur complement with a zero diagonal reach it again
    n = data.draw(st.integers(2, 8), label="n")
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = data.draw(_OFF_DIAGONAL)
    assert inertia(m) == charpoly_inertia(m)


def test_inertia_leaves_its_input_alone():
    m = [[0, 1, 0], [1, 0, 2], [0, 2, -1]]
    copy = [row[:] for row in m]
    assert inertia(m) == (1, 2, 0)
    assert m == copy
