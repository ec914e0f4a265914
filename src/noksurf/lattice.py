"""Neron-Severi lattice model: classes, intersection pairing, dual graphs.

A SurfaceModel is pure lattice data: an integer intersection form of
signature (1, rho-1), a list of classes declared to be irreducible curves,
and one class asserted ample.  Everything downstream is relative to these
declarations.
"""
from __future__ import annotations

import re
from fractions import Fraction
from itertools import compress
from math import lcm

from . import linalg
from .errors import InputError
from .record import Record

inertia = linalg.inertia  # exact Sylvester inertia of a symmetric matrix

# CPython's default limit on converting a decimal string (and so a JSON
# integer) to an int
MAX_DIGITS = 4300
_RATIONAL = re.compile(rf"-?[0-9]{{1,{MAX_DIGITS}}}(?:/[0-9]{{1,{MAX_DIGITS}}})?")


def rational_string(text: str) -> Fraction:
    """The rational a string `-?digits(/digits)?` spells, at most MAX_DIGITS
    digits a side; ValueError for any other string, ZeroDivisionError for a
    zero denominator."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"not a rational: {text[:40]!r}")
    return Fraction(text)


def _coord(x):
    if type(x) is Fraction:
        return x
    if isinstance(x, bool) or isinstance(x, float):
        raise InputError(f"coordinate {x!r} is not exact")
    try:
        return rational_string(x) if isinstance(x, str) else Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise InputError(f"coordinate {x!r:.60} is not a number") from None


class DivisorClass(Record):
    """A class in NS(S) with rational coordinates, kept as Fractions."""

    __slots__ = ("coords", "_ints")
    _compared = ("coords",)

    def __init__(self, coords):
        object.__setattr__(self, "coords", tuple(_coord(x) for x in coords))

    @classmethod
    def _of(cls, coords: tuple) -> DivisorClass:
        """A class from a tuple of Fractions, such as an arithmetic result:
        skips the coordinate checks of __init__."""
        out = object.__new__(cls)
        object.__setattr__(out, "coords", coords)
        return out

    def __len__(self):
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __add__(self, other):
        other = as_divisor(other, len(self))
        return DivisorClass._of(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        other = as_divisor(other, len(self))
        return DivisorClass._of(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return DivisorClass._of(tuple(-a for a in self.coords))

    def scale(self, k):
        if type(k) is int or type(k) is Fraction:
            return DivisorClass._of(tuple(k * a for a in self.coords))
        return DivisorClass(k * a for a in self.coords)

    def __rmul__(self, k):
        return self.scale(k)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coords)

    def _scaled(self):
        """(integer numerators, one positive common denominator), kept in
        the _ints slot on first use."""
        try:
            return self._ints
        except AttributeError:
            den = lcm(*(x.denominator for x in self.coords))
            c = tuple(x.numerator * (den // x.denominator) for x in self.coords)
            object.__setattr__(self, "_ints", (c, den))
            return c, den


def as_divisor(v, rank: int | None = None) -> DivisorClass:
    d = v if isinstance(v, DivisorClass) else DivisorClass(v)
    if rank is not None and len(d) != rank:
        raise InputError(f"class has {len(d)} coordinates, expected {rank}")
    return d


class CurveRecord(Record):
    """A declared curve: its label and its integer class."""

    __slots__ = ("label", "cls")

    def __init__(self, label: str, cls: tuple[int, ...]):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "cls", cls)


class SurfaceModel(Record):
    """Lattice data: the fields rank, gram, curves and ample_witness, and
    integer tables built from them."""

    __slots__ = (
        "rank", "gram", "curves", "ample_witness", "_rows", "_duals", "_sparse", "_having",
        "_products", "_classes", "_eliminations", "_divisor_sides", "_index", "_witness",
    )
    _compared = __slots__[:4]  # the fields

    def __init__(self, rank, gram, curves, ample_witness, *, _typed=False):
        """`_typed`: docio has checked, with their document paths, that every
        entry is an int (not a bool) and every label a str."""
        if not isinstance(rank, int) or rank < 1:
            raise InputError("rank must be a positive integer")
        g = tuple(map(tuple, gram))
        if len(g) != rank or any(len(row) != rank for row in g):
            raise InputError("intersection matrix must be rank x rank")
        if not _typed and not all(set(map(type, row)) <= {int} for row in g):
            if any(not isinstance(x, int) or isinstance(x, bool) for row in g for x in row):
                raise InputError("intersection matrix entries must be integers")
        sig = linalg.inertia(g)
        if sig != (1, rank - 1, 0):
            raise InputError(
                f"intersection form has inertia {sig}, expected (1, {rank - 1}, 0)"
            )
        # Integer tables, in time linear in the document; not fields, so
        # ==, hash and repr ignore them.  _rows[i]: nonzero (j, G_ij); _sparse[l]:
        # nonzero (j, c_l_j); _duals[l]: nonzero (i, (G.c_l)_i), the sum of
        # c_l_j * _rows[j]; _having[j]: (k, c_k_j) for every curve k with a
        # nonzero coordinate j; _index[l]: declaration order.  _products[l]
        # ({k: C_k.C_l} over the nonzero products, see curve_products),
        # _classes[l] (see class_of) and _eliminations[labels] (see
        # support_elimination) are built on first use, and so is raywalk's
        # _divisor_sides (see raywalk._divisor_side).  One pass per curve
        # checks it and fills every table.
        rows = tuple(tuple(compress(enumerate(row), row)) for row in g)
        recs = []
        index = {}
        sparse = {}
        duals = {}
        having = [[] for _ in range(rank)]
        for c in curves:
            if not isinstance(c, CurveRecord):
                c = CurveRecord(str(c[0]), tuple(c[1]))
            label, cls = c.label, c.cls
            if label in index:
                raise InputError(f"duplicate curve label {label!r}")
            if len(cls) != rank:
                raise InputError(f"curve {label!r} has a class of wrong length")
            if not _typed and not set(map(type, cls)) <= {int}:
                # the zero class is reported before the entry types
                if all(x == 0 for x in cls):
                    raise InputError(f"curve {label!r} has zero class")
                if any(not isinstance(x, int) or isinstance(x, bool) for x in cls):
                    raise InputError(f"curve {label!r} must have an integer class")
            nonzero = tuple(compress(enumerate(cls), cls))
            if not nonzero:
                raise InputError(f"curve {label!r} has zero class")
            index[label] = len(recs)
            recs.append(c)
            sparse[label] = nonzero
            acc = {}
            for j, x in nonzero:
                having[j].append((label, x))
                for i, y in rows[j]:  # G is symmetric: G_ij = G_ji
                    acc[i] = acc.get(i, 0) + x * y
            duals[label] = tuple(sorted(compress(acc.items(), acc.values())))
        # the witness as a class, so its integer form is built once
        w = DivisorClass(ample_witness)
        if len(w) != rank:
            raise InputError("ample witness has wrong length")
        for name, value in dict(
            rank=rank, gram=g, curves=tuple(recs), ample_witness=w.coords,
            _rows=rows, _duals=duals, _sparse=sparse, _having=having,
            _products={}, _classes={}, _eliminations={}, _divisor_sides={},
            _index=index, _witness=w,
        ).items():
            object.__setattr__(self, name, value)
        if pair(self, w, w) <= 0:
            raise InputError("ample witness has nonpositive self-intersection")
        _, w_c = curve_pairings(self, w, self._index)
        for c in recs:
            if w_c[c.label] <= 0:
                raise InputError(
                    f"ample witness does not pair positively with curve {c.label!r}"
                )

    # -- lookups -----------------------------------------------------------

    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.curves)

    def curve(self, label: str) -> CurveRecord:
        return self.curves[self.declaration_index(label)]

    def class_of(self, label: str) -> DivisorClass:
        try:
            return self._classes[label]
        except (KeyError, TypeError):  # first use, or an unknown label
            cls = self._classes[label] = DivisorClass(self.curve(label).cls)
            return cls

    def declaration_index(self, label: str) -> int:
        return _lookup(self._index, label)


def _lookup(table: dict, label):
    try:
        return table[label]
    except (KeyError, TypeError):  # TypeError: an unhashable label
        raise InputError(f"unknown curve label {label!r}") from None


def pair(model: SurfaceModel, u, v):
    """Intersection product u.v through the model's bilinear form, summed
    over the integer numerators of both classes."""
    u, du = as_divisor(u, model.rank)._scaled()
    v, dv = as_divisor(v, model.rank)._scaled()
    rows = model._rows
    total = 0
    for i, ui in enumerate(u):
        if ui:
            acc = 0
            for j, g in rows[i]:
                acc += g * v[j]
            total += ui * acc
    return Fraction(total, du * dv)


def pair_curve(model: SurfaceModel, v, label: str):
    """Intersection product v.C_l with a declared curve, from the dual row G.c_l."""
    den, nums = curve_pairings(model, v, (label,))
    return Fraction(nums[label], den)


def curve_pairings(model: SurfaceModel, v, labels) -> tuple[int, dict]:
    """(den, {l: den*v.C_l}) for the listed curves: v's integer numerators
    over their common denominator, dotted with each dual row G.c_l."""
    v, den = as_divisor(v, model.rank)._scaled()
    out = {}
    for l in labels:
        total = 0
        for j, g in _lookup(model._duals, l):
            total += g * v[j]
        out[l] = total
    return den, out


def sorted_labels(model: SurfaceModel, labels, what: str) -> list[str]:
    """The labels in declaration order; an unknown, unhashable or repeated
    label is an InputError."""
    out = sorted(labels, key=model.declaration_index)
    if len(set(out)) != len(out):
        raise InputError(f"{what} labels must be pairwise distinct")
    return out


def subtract_curves(model: SurfaceModel, v, terms, den: int) -> DivisorClass:
    """v - (sum x_l*C_l)/den over the (label, x_l) pairs in `terms`, den > 0,
    in one pass over the curves' integer classes; with integer x_l every
    sum is a Python int over the one denominator."""
    acc, dv = as_divisor(v, model.rank)._scaled()
    acc = [a * den for a in acc]
    for label, x in terms:
        if x:
            x *= dv
            for j, c in _lookup(model._sparse, label):
                acc[j] -= x * c
    return DivisorClass._of(tuple(Fraction(a, dv * den) for a in acc))


def curve_products(model: SurfaceModel, label: str) -> dict[str, int]:
    """{k: C_k.C_label} for every declared curve k with a nonzero product,
    summed from the dual row G.c_label on first use and kept."""
    try:
        return model._products[label]
    except (KeyError, TypeError):  # first use, or an unknown label
        pass
    acc = {}
    having = model._having
    for i, y in _lookup(model._duals, label):
        for k, x in having[i]:
            acc[k] = acc.get(k, 0) + x * y
    row = model._products[label] = {k: x for k, x in acc.items() if x}
    return row


def gram_matrix(model: SurfaceModel, labels) -> list[list[int]]:
    labels = list(labels)
    rows = [curve_products(model, a) for a in labels]
    return [[row.get(b, 0) for b in labels] for row in rows]


def support_elimination(model: SurfaceModel, labels) -> list[list[int]]:
    """The Gram matrix of the listed curves, certified negative definite by
    Sylvester's criterion and eliminated (linalg.eliminate_negative_definite)
    on first use, and kept per tuple of labels: every later solve on the
    same support replays it (linalg.solve_eliminated).  A matrix that fails
    the criterion raises linalg.NotNegativeDefinite and is not kept."""
    key = tuple(labels)
    try:
        return model._eliminations[key]
    except (KeyError, TypeError):  # first use, or an unhashable label
        pass
    m = linalg.eliminate_negative_definite(gram_matrix(model, key))
    model._eliminations[key] = m
    return m


def is_negative_definite(model: SurfaceModel, labels) -> bool:
    """True iff the Gram matrix of the listed curves is negative definite."""
    try:
        support_elimination(model, labels)
    except linalg.NotNegativeDefinite:
        return False
    return True


def dual_graph_components(model: SurfaceModel, labels) -> list[list[str]]:
    """Connected components of the positivity graph on the listed curves.

    Edge between two curves iff their pairing is > 0.  Components keep the
    model's declaration order, and are sorted by their first member.
    """
    labels = list(labels)
    products = {l: curve_products(model, l) for l in labels}
    if len(products) != len(labels):
        raise InputError("duplicate labels in subset")
    order = sorted(products, key=model.declaration_index)
    idx = {l: i for i, l in enumerate(order)}
    parent = list(range(len(order)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a in order:
        for b, x in products[a].items():
            if x > 0 and b in idx:
                ra, rb = find(idx[a]), find(idx[b])
                if ra != rb:
                    parent[rb] = ra
    groups: dict[int, list[str]] = {}
    for l in order:
        groups.setdefault(find(idx[l]), []).append(l)
    return sorted(groups.values(), key=lambda g: model.declaration_index(g[0]))


def is_model_ample(model: SurfaceModel, cls) -> bool:
    """Ampleness certificate relative to declared data: positive square and
    positive pairing with every declared curve."""
    c = as_divisor(cls, model.rank)
    if pair(model, c, c) <= 0:
        return False
    return all(x > 0 for x in curve_pairings(model, c, model._index)[1].values())
