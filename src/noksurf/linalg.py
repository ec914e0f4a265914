"""Dense exact linear algebra over the rationals, fraction-free.

Systems here never exceed the Picard rank of a surface model.  Every routine
scales its rows to integers (a positive row scale keeps the rank, the
solutions and the signs of the leading minors) and runs the same
fraction-free elimination of Bareiss (Math. Comp. 22 (1968)): after k steps
each entry is a (k+1)-minor of the input, the update
(p*x - f*y) // prev is exact by Sylvester's identity, and the last pivot of
a square system is its determinant.  A negative definite matrix can be
eliminated once (`eliminate_negative_definite`) and each later right-hand
side replayed on it (`solve_eliminated`) by the same update.  Solutions come
back as integer numerators over one positive denominator; `solve_many` alone
turns them into Fractions.  No floating point is involved.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InputError


class SingularSystem(Exception):
    """Internal signal; callers translate into a domain error."""


class NotNegativeDefinite(Exception):
    """Internal signal from eliminate_negative_definite; callers compute the
    inertia to say why."""


def _denominator(values) -> int:
    """The lcm of the denominators of the rationals in `values`."""
    den = 1
    for x in values:
        if type(x) is not int:
            den = lcm(den, x.denominator)
    return den


def _scaled(values, den: int) -> list[int]:
    return [x.numerator * (den // x.denominator) for x in values]


def _integer_row(values) -> list[int]:
    return _scaled(values, _denominator(values))


def _eliminate(m: list[list[int]], k: int, col: int, prev: int) -> int:
    """Clear column `col` below row k with the pivot m[k][col]; returns it.

    `prev` is the previous pivot (1 at the first step).  Only the columns
    right of `col` are updated: no caller reads the others below row k again.
    """
    top = m[k][col + 1 :]
    p = m[k][col]
    for r in range(k + 1, len(m)):
        row = m[r]
        f = row[col]
        if f:
            row[col + 1 :] = [(p * x - f * y) // prev for x, y in zip(row[col + 1 :], top)]
        elif p != prev:
            row[col + 1 :] = [p * x // prev for x in row[col + 1 :]]
    return p


def _augmented(a, columns) -> list[list[int]]:
    n = len(a)
    for row in a:
        if len(row) != n:
            raise InputError("coefficient matrix is not square")
    return [_integer_row([*row, *(c[i] for c in columns)]) for i, row in enumerate(a)]


def _back_substitute(m: list[list[int]], det: int, columns) -> tuple[int, list[list[int]]]:
    """Solutions of the triangular system in `m`, one per eliminated
    right-hand side in `columns`, as (|det|, integer numerators over it).

    Row i reads m_ii x_i + sum_{l>i} m_il x_l = b_i; the unknowns det*x_i are
    integers by Cramer's rule, so each division is exact.
    """
    n = len(m)
    out = []
    for b in columns:
        dx = [0] * n
        for i in range(n - 1, -1, -1):
            row = m[i]
            acc = det * b[i]
            for l in range(i + 1, n):
                acc -= row[l] * dx[l]
            dx[i] = acc // row[i]
        out.append([-x for x in dx] if det < 0 else dx)
    return abs(det), out


def solve_many(a, columns) -> list[list[Fraction]]:
    """Solve a*x = b for each right-hand side in `columns` (exact).

    Raises SingularSystem when the matrix is singular.
    """
    columns = [list(c) for c in columns]
    m = _augmented(a, columns)
    n = len(m)
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            raise SingularSystem
        m[k], m[piv] = m[piv], m[k]
        prev = _eliminate(m, k, k, prev)
    sides = [[row[c] for row in m] for c in range(n, n + len(columns))]
    den, nums = _back_substitute(m, prev, sides)
    return [[Fraction(x, den) for x in col] for col in nums]


def solve(a, b) -> list[Fraction]:
    return solve_many(a, [b])[0]


def eliminate_negative_definite(m: list[list[int]]) -> list[list[int]]:
    """Eliminate the square integer matrix `m` in place, without pivoting,
    checking Sylvester's criterion on the way: (-1)^k d_k > 0 for every
    leading minor d_k, each of which is a pivot.  `m` is symmetric up to a
    positive scale of each row, which keeps the signs of the minors.

    Raises NotNegativeDefinite as soon as a minor fails.  Returns `m`: on
    and right of the diagonal, row k is the pivot row of step k; below it,
    m[r][k] is the multiplier row r had at step k, which `_eliminate` leaves
    there.  Together they are all `solve_eliminated` needs.
    """
    prev = 1
    for k in range(len(m)):
        p = m[k][k]
        if (p if k % 2 else -p) <= 0:
            raise NotNegativeDefinite
        prev = _eliminate(m, k, k, prev)
    return m


def solve_eliminated(m: list[list[int]], columns) -> tuple[int, list[list[int]]]:
    """Solve against integer right-hand sides with a matrix eliminated by
    `eliminate_negative_definite`, which is not changed: each side runs the
    update (p*x - f*y) // prev of `_eliminate` with the kept pivots and
    multipliers, as if it were one more column of the elimination, and is
    back-substituted.  Returns (den, numerators), equal to those of
    eliminating the augmented matrix afresh: den > 0 is |det| of `m` and
    x_i = numerators[c][i] / den for column c, every numerator an integer.
    """
    n = len(m)
    sides = []
    for col in columns:
        b = list(col)
        prev = 1
        for k in range(n - 1):
            p, y = m[k][k], b[k]
            for r in range(k + 1, n):
                b[r] = (p * b[r] - m[r][k] * y) // prev
            prev = p
        sides.append(b)
    return _back_substitute(m, m[-1][-1] if n else 1, sides)


def require_symmetric(q):
    n = len(q)
    for row in q:
        if len(row) != n:
            raise InputError("matrix is not square")
    if all(map(tuple.__eq__, map(tuple, q), zip(*q))):
        return q
    for i in range(n):
        for j in range(i):
            if q[i][j] != q[j][i]:
                raise InputError(f"matrix is not symmetric at ({i},{j})")
    return q


def inertia(q) -> tuple[int, int, int]:
    """Sylvester inertia (n_plus, n_minus, n_zero) by symmetric elimination.

    An integer matrix is copied, a rational one scaled by one positive lcm.
    Diagonal pivots are used where available, (k, k) first.  The trailing
    block is always prev times the Schur complement of what was eliminated,
    prev being the last pivot, so each pivot has the sign of m[k][k] * prev;
    while that complement S is symmetric, the pivots count its inertia
    (Haynsworth: a pivot and its Schur complement add up).

    When S has a zero diagonal, row j is added to row i for the first
    nonzero t = S[i][j], i < j, in row order: one side of a congruence only,
    so S turns unsymmetric for one step.  The pivot at i is S[j][i] = t, and
    the next step pivots at j: the rows of S before i are zero, and so are
    S[i][r] = S[r][i] for i < r < j, so after the pivot at i the diagonal is
    zero up to j, where it is -t.  Those two pivots leave
    S[r][c] - (S[r][i] S[j][c] + S[r][j] S[i][c])/t, the Schur complement of
    the principal block [[0, t], [t, 0]] at i, j, which is symmetric again,
    and their signs, one of each, are that block's inertia.  The row order
    matters: with another nonzero S[i][j], the next pivot may not be j.
    """
    n = len(require_symmetric(q))
    if all(set(map(type, row)) <= {int} for row in q):
        m = [list(row) for row in q]
    else:
        den = _denominator(x for row in q for x in row)
        m = [_scaled(row, den) for row in q]
    pos = neg = zer = 0
    prev = 1
    for k in range(n):
        piv = k if m[k][k] else next((i for i in range(k + 1, n) if m[i][i]), None)
        if piv is None:
            spot = next(
                ((i, j) for i in range(k, n) for j in range(i + 1, n) if m[i][j]),
                None,
            )
            if spot is None:
                zer += n - k
                break
            i, j = spot
            m[i] = [x + y for x, y in zip(m[i], m[j])]
            piv = i
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            for row in m:
                row[k], row[piv] = row[piv], row[k]
        if (m[k][k] > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        # a pivot with nothing to its right splits off as a 1x1 block: the
        # trailing block keeps its scale prev and needs no update
        if any(m[k][k + 1 :]):
            prev = _eliminate(m, k, k, prev)
    return pos, neg, zer


def _echelon(rows) -> list[tuple[int, list[int], int]]:
    """Fraction-free echelon form of a rational matrix, skipping columns
    without a pivot: one (column, pivot row, previous pivot) per step."""
    m = [_integer_row(row) for row in rows]
    steps = []
    prev = 1
    for col in range(len(m[0]) if m else 0):
        r = len(steps)
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        steps.append((col, m[r], prev))
        prev = _eliminate(m, r, col, prev)
        if r + 1 == len(m):
            break
    return steps


def rank(rows) -> int:
    """Rank of a rational matrix."""
    return len(_echelon(rows))


def span_test(vectors):
    """Predicate: does a vector lie in the rational span of `vectors`?

    The vectors are eliminated once.  A query runs the same Bareiss steps
    on its vector, as if it were one more row below them: it lies in the
    span exactly when it would take no pivot, that is when every entry
    outside the pivot columns is cleared.
    """
    steps = _echelon(vectors)
    pivots = {col for col, _, _ in steps}

    def contains(v) -> bool:
        v = _integer_row(v)
        for col, row, prev in steps:
            _eliminate([row, v], 0, col, prev)
        return not any(x for c, x in enumerate(v) if c not in pivots)

    return contains


def in_span(vectors, v) -> bool:
    """True when v lies in the rational span of `vectors`."""
    return span_test(vectors)(v)
