"""Values in a real quadratic extension Q(sqrt(d)), with exact comparison.

A value is stored as p + q*sqrt(d) with p, q rational and d a square-free
integer >= 0.  Rational values normalize to d == 0, so mixing a rational with
any extension element is always fine; combining two genuinely irrational
values with different radicands raises InputError, since a single ray
computation only ever produces one radicand.

One convention holds for every exact value the package computes: it is a
Fraction, or a QExt with q != 0.  Arithmetic and sqrt_fraction return a
Fraction whenever the result is rational, so no caller has to normalize.
"""
from __future__ import annotations

from fractions import Fraction
from math import sqrt as _float_sqrt

from .errors import InputError
from .intmath import squarefree_part

_ZERO = Fraction(0)


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise InputError("boolean is not a number")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        raise InputError("floating point values are not allowed in exact arithmetic")
    raise TypeError(f"cannot interpret {x!r} as a rational")


class QExt:
    """p + q*sqrt(d), exact.  Immutable; hashes consistently with Fraction."""

    __slots__ = ("p", "q", "d")

    def __init__(self, p=0, q=0, d: int = 0):
        p = _to_fraction(p)
        q = _to_fraction(q)
        if not isinstance(d, int) or isinstance(d, bool) or d < 0:
            raise InputError(f"radicand must be a nonnegative integer, got {d!r}")
        if q != 0 and d > 1:
            s, d0 = squarefree_part(d)
            if s != 1:
                q *= s
                d = d0
        if d == 1:
            p += q
            q = Fraction(0)
        if q == 0 or d == 0:  # q*sqrt(0) is 0
            q = Fraction(0)
            d = 0
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "d", d)

    @classmethod
    def _of(cls, p: Fraction, q: Fraction, d: int):
        """An arithmetic result: p, q rational and d from _join, so already
        square-free and never 1; skips the factoring in __init__.  A
        rational result is returned as the Fraction p."""
        if q == 0 or d == 0:
            return p
        out = object.__new__(cls)
        object.__setattr__(out, "p", p)
        object.__setattr__(out, "q", q)
        object.__setattr__(out, "d", d)
        return out

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("QExt is immutable")

    __delattr__ = __setattr__

    # -- coercion ----------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, QExt):
            return x
        if isinstance(x, bool):
            return NotImplemented
        if isinstance(x, (int, Fraction)):  # p = x, q = 0, d = 0
            out = object.__new__(QExt)
            object.__setattr__(out, "p", _to_fraction(x))
            object.__setattr__(out, "q", _ZERO)
            object.__setattr__(out, "d", 0)
            return out
        return NotImplemented

    def _join(self, other: "QExt") -> int:
        if self.d == 0:
            return other.d
        if other.d == 0 or other.d == self.d:
            return self.d
        raise InputError(
            f"mixed quadratic radicands sqrt({self.d}) and sqrt({other.d})"
        )

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QExt._of(self.p + o.p, self.q + o.q, self._join(o))

    __radd__ = __add__

    def __neg__(self):
        return QExt._of(-self.p, -self.q, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QExt._of(self.p - o.p, self.q - o.q, self._join(o))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._join(o)
        return QExt._of(
            self.p * o.p + self.q * o.q * d,
            self.p * o.q + self.q * o.p,
            d,
        )

    __rmul__ = __mul__

    def _inverse(self):
        # d square-free (never 1), so the norm vanishes only for 0 itself
        norm = self.p * self.p - self.q * self.q * self.d
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        return QExt._of(self.p / norm, -self.q / norm, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        self._join(o)
        return self * o._inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self._inverse()

    # -- order -------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign, via comparing p*p with q*q*d when the terms compete."""
        if self.q == 0:
            return (self.p > 0) - (self.p < 0)
        if self.p == 0:
            return 1 if self.q > 0 else -1
        if self.p > 0 and self.q > 0:
            return 1
        if self.p < 0 and self.q < 0:
            return -1
        t = self.p * self.p - self.q * self.q * self.d
        s = (t > 0) - (t < 0)
        return s if self.p > 0 else -s

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        diff = self - o
        if type(diff) is Fraction:
            return (diff > 0) - (diff < 0)
        return diff.sign()

    def __eq__(self, other):
        # p + q*sqrt(d) is canonical (d square-free, q == 0 exactly when
        # d == 0), so equal values have equal components
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        self._join(o)
        return self.q == o.q and self.p == o.p

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __hash__(self):
        if self.q == 0:
            return hash(self.p)
        return hash((self.p, self.q, self.d))

    def __bool__(self):
        return self.sign() != 0

    # -- display only ------------------------------------------------------

    def __float__(self):
        return float(self.p) + float(self.q) * _float_sqrt(self.d)

    def __repr__(self):
        return f"QExt({self})"

    def __str__(self):
        return format_exact(self)


def sqrt_fraction(x):
    """Exact square root of a nonnegative rational: a Fraction for a perfect
    square, else a QExt."""
    x = _to_fraction(x)
    if x < 0:
        raise InputError("square root of a negative rational")
    s, d = squarefree_part(x.numerator * x.denominator)
    root = Fraction(s, x.denominator)
    return root if d == 1 else QExt._of(Fraction(0), root, d)


def as_exact(x):
    """Normalize an int/Fraction/QExt, collapsing rational QExt to Fraction."""
    if isinstance(x, QExt):
        return x.p if x.q == 0 else x
    return _to_fraction(x)


def format_exact(x) -> str:
    """Render a value exactly: "p/q" for rationals, "p+q*sqrt(d)" otherwise."""
    if type(x) is Fraction:
        return str(x)
    x = as_exact(x)
    if isinstance(x, Fraction):
        return str(x)
    root = f"{abs(x.q)}*sqrt({x.d})"
    if x.p == 0:
        return root if x.q > 0 else "-" + root
    joiner = "+" if x.q > 0 else "-"
    return f"{x.p}{joiner}{root}"
