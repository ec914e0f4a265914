"""Independent toric verification path.

A smooth complete fan in Z^2 yields a surface model by the classical
intersection rules on the boundary divisors; a torus-invariant nef divisor
yields its Newton polygon by intersecting the corner half-planes.  The
monomial valuation at a torus-fixed point maps that polygon onto the
Newton-Okounkov polygon of the matching flag, and the two computations must
agree vertex for vertex.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DegenerateInput, InputError, InternalError, OracleMismatch
from .lattice import CurveRecord, DivisorClass, SurfaceModel, gram_matrix, pair
from .polygon import alpha_beta, build_polygon, polygon_area2
from .raywalk import FlagSpec, walk_ray
from .record import Record

Point = tuple[Fraction, Fraction]


def _det(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


class ToricFan(Record):
    """Complete smooth fan: primitive rays, counterclockwise, unimodular steps."""

    __slots__ = ("rays",)

    def __init__(self, rays):
        rr = tuple((x, y) for x, y in rays)
        if len(rr) < 3:
            raise InputError("a complete fan needs at least three rays")
        for v in rr:
            if not all(type(x) is int for x in v):
                raise InputError(f"ray {v!r:.60} must have integer coordinates")
            if v == (0, 0) or gcd(abs(v[0]), abs(v[1])) != 1:
                raise InputError(f"ray {v} is not primitive")
        if len(set(rr)) != len(rr):
            raise InputError("rays must be distinct")
        for i, v in enumerate(rr):
            w = rr[(i + 1) % len(rr)]
            if _det(v, w) != 1:
                raise InputError(
                    f"consecutive rays {v}, {w} are not a positively oriented "
                    "unimodular pair"
                )
        # one full counterclockwise sweep: det = 1 turns each step by less
        # than pi, so exactly one step goes from angles [pi, 2pi) into [0, pi)
        upper = [y > 0 or (y == 0 and x > 0) for x, y in rr]
        if sum(upper[i] and not upper[i - 1] for i in range(len(rr))) != 1:
            raise InputError("rays do not sweep the plane exactly once")
        object.__setattr__(self, "rays", rr)

    def __len__(self):
        return len(self.rays)

    def ray(self, i: int) -> tuple[int, int]:
        """1-based, cyclic."""
        return self.rays[(i - 1) % len(self.rays)]


class ToricDivisor(Record):
    """A torus-invariant divisor: integer coefficients, one per ray."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not all(type(a) is int for a in coeffs):
            raise InputError("toric divisor coefficients must be integers")
        object.__setattr__(self, "coeffs", coeffs)


def self_intersections(fan: ToricFan) -> list[int]:
    """b_i with v_{i-1} + v_{i+1} = b_i v_i; the boundary curve D_i has D_i^2 = -b_i.

    Consecutive rays are unimodular pairs, so b_i = det(v_{i-1}, v_{i+1}).
    """
    r = fan.rays
    return [_det(r[i - 1], r[(i + 1) % len(r)]) for i in range(len(r))]


def combinatorial_edge_lengths(fan: ToricFan, div: ToricDivisor) -> list[Fraction]:
    """D . D_i = a_{i-1} + a_{i+1} - b_i a_i for every i by the boundary
    intersection rules alone, with the b_i of self_intersections."""
    a, n = div.coeffs, len(fan)
    if len(a) != n:
        raise InputError("divisor has one coefficient per ray")
    b = self_intersections(fan)
    return [
        Fraction(a[(i - 1) % n] + a[(i + 1) % n] - b[i] * a[i]) for i in range(n)
    ]


def fan_to_model(fan: ToricFan) -> tuple[SurfaceModel, list[DivisorClass]]:
    """Surface model of the fan plus the classes of all boundary divisors.

    The basis drops the last two boundary divisors and rewrites them through
    the two character relations; the ample witness is the zonotope divisor
    summing one primitive segment per ray, which is strictly convex on every
    fan.
    """
    b = self_intersections(fan)
    n = len(fan)
    rho = n - 2

    # classes: D_i = e_i for i < n-1; the last two through the characters
    # m = (v_n[1], -v_n[0]) with <m, v_{n-1}> = 1, <m, v_n> = 0 and
    # m' = (-v_{n-1}[1], v_{n-1}[0]) with the roles swapped, the columns of
    # the inverse of the unimodular pair: div(chi^m) = 0 gives
    # D_{n-1} = -sum_{i < n-1} <m, v_i> D_i with <m, v_i> = det(v_i, v_n),
    # and D_n alike with <m', v_i> = det(v_{n-1}, v_i)
    vm, vn = fan.rays[n - 2], fan.rays[n - 1]
    int_classes = [tuple(int(j == i) for j in range(rho)) for i in range(rho)]
    int_classes.append(tuple(_det(vn, v) for v in fan.rays[:rho]))
    int_classes.append(tuple(_det(v, vm) for v in fan.rays[:rho]))

    def rule(i: int, j: int) -> int:
        if i == j:
            return -b[i]
        if (j - i) % n == 1 or (i - j) % n == 1:
            return 1
        return 0

    gram = [[rule(i, j) for j in range(rho)] for i in range(rho)]
    curves = [CurveRecord(f"D{i + 1}", int_classes[i]) for i in range(n)]
    model = SurfaceModel(rho, gram, curves, _combine(_zonotope_divisor(fan), int_classes))

    # the chosen basis must reproduce every boundary intersection number
    out_classes = [DivisorClass(c) for c in int_classes]
    products = gram_matrix(model, model.labels())
    for i in range(n):
        for j in range(n):
            got = products[i][j]
            if got != rule(i, j):
                raise InternalError(
                    f"basis classes give D{i+1}.D{j+1} = {got}, rules give {rule(i, j)}"
                )
    return model, out_classes


def _combine(coeffs, classes) -> list:
    """The coordinates of sum a_i * classes_i."""
    return [sum(a * x for a, x in zip(coeffs, col)) for col in zip(*classes)]


def _zonotope_divisor(fan: ToricFan) -> list[int]:
    """Support numbers of the Minkowski sum of one primitive edge per ray."""
    out = []
    for v in fan.rays:
        a = 0
        for w in fan.rays:
            rot = (-w[1], w[0])
            dot = rot[0] * v[0] + rot[1] * v[1]
            if dot < 0:
                a -= dot
        out.append(a)
    return out


def _rotate_to_lex_min(points: list[Point]) -> list[Point]:
    if not points:
        return points
    k = min(range(len(points)), key=lambda i: points[i])
    return points[k:] + points[:k]


def newton_polygon(fan: ToricFan, div: ToricDivisor) -> list[Point]:
    """Vertices of {m : <m, v_i> >= -a_i}, counterclockwise from the
    lexicographically smallest.

    Requires the divisor to be nef, which is exactly nonnegativity of all
    corner-to-corner edge lengths; a negative length means the corner system
    is infeasible.  Every geometric edge length must equal the divisor's
    combinatorial_edge_lengths.
    """
    lengths = combinatorial_edge_lengths(fan, div)
    n = len(fan)
    a = div.coeffs
    # corner i meets the lines <m, v> = -a_i and <m, w> = -a_{i+1}; by
    # Cramer's rule with det(v, w) = 1 it is integral
    corners = []
    for i in range(n):
        v, w = fan.rays[i], fan.rays[(i + 1) % n]
        ai, aj = a[i], a[(i + 1) % n]
        corners.append((aj * v[1] - ai * w[1], ai * w[0] - aj * v[0]))

    for i in range(n):
        prev, cur = corners[(i - 1) % n], corners[i]
        direction = (fan.rays[i][1], -fan.rays[i][0])
        delta = (cur[0] - prev[0], cur[1] - prev[1])
        # delta must be a nonnegative multiple of the primitive edge direction
        k = 0 if direction[0] != 0 else 1
        ell = delta[k] // direction[k]
        if delta != (ell * direction[0], ell * direction[1]):
            raise InternalError("corner walk left the expected edge direction")
        if ell != lengths[i]:
            raise InternalError(
                f"geometric edge length {ell} disagrees with D.D{i+1} = {lengths[i]}"
            )
        if ell < 0:
            raise DegenerateInput(
                f"divisor is not nef: edge along ray {fan.rays[i]} has length {ell}"
            )

    out = []
    for p in corners:
        if not out or out[-1] != p:
            out.append(p)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return _rotate_to_lex_min([(Fraction(x), Fraction(y)) for x, y in out])


def monomial_valuation(fan: ToricFan, div: ToricDivisor, flag_index: int):
    """The valuation at the fixed point D_i meet D_{i+1}, taking a Newton
    polygon's vertices to their images: m maps to
    (<m, v_i> + a_i, <m, v_{i+1}> + a_{i+1}).  The map is affine unimodular
    with positive determinant, so the image is again counterclockwise; only
    the starting vertex needs renormalizing.  The flag index is checked
    here, before any polygon is computed.  The divisor has one coefficient
    per ray."""
    n = len(fan)
    if not 1 <= flag_index <= n:
        raise InputError(f"flag index must be in 1..{n}")
    v = fan.ray(flag_index)
    w = fan.ray(flag_index + 1)
    av = div.coeffs[flag_index - 1]
    aw = div.coeffs[flag_index % n]

    def image(pts: list[Point]) -> list[Point]:
        return _rotate_to_lex_min(
            [(m[0] * v[0] + m[1] * v[1] + av, m[0] * w[0] + m[1] * w[1] + aw) for m in pts]
        )

    return image


class CrosscheckReport(Record):
    __slots__ = ("equal", "walk_vertices", "monomial_vertices", "area2", "divisor_square")


def crosscheck(fan: ToricFan, div: ToricDivisor, flag_index: int) -> CrosscheckReport:
    """Compute the polygon both ways and demand exact vertex-set equality.

    Route one walks the ray against the fan's surface model with flag curve
    D_i and the single local multiplicity (D_{i+1} . D_i)_p = 1; route two
    maps the Newton polygon through the monomial valuation.  With the
    explicit map implemented, equality is on the nose, not up to a lattice
    transformation.  Twice the common area must equal D^2.
    """
    n = len(fan)
    if any(l <= 0 for l in combinatorial_edge_lengths(fan, div)):
        raise InputError("divisor is not model-ample against all boundary curves")

    # route two first: its range check on flag_index runs before any walk
    mono_pts = monomial_valuation(fan, div, flag_index)(newton_polygon(fan, div))

    model, classes = fan_to_model(fan)
    d_class = DivisorClass(_combine(div.coeffs, classes))
    dsq = pair(model, d_class, d_class)
    if dsq <= 0:
        raise InputError("divisor has nonpositive self-intersection")

    flag = FlagSpec(model, f"D{flag_index}", {f"D{(flag_index % n) + 1}": 1})
    profile = walk_ray(model, d_class, flag, model.labels())
    poly = build_polygon(*alpha_beta(model, profile))
    if any(type(x) is not Fraction for v in poly.vertices for x in v):
        raise OracleMismatch("walk polygon has irrational vertices on toric input")
    walk_pts = _rotate_to_lex_min(list(poly.vertices))

    area2 = polygon_area2(poly)
    equal = walk_pts == mono_pts and area2 == dsq
    report = CrosscheckReport(
        equal=equal,
        walk_vertices=tuple(walk_pts),
        monomial_vertices=tuple(mono_pts),
        area2=area2,
        divisor_square=dsq,
    )
    if not equal:
        raise OracleMismatch(
            "toric oracle disagrees: "
            f"walk {walk_pts} vs monomial {mono_pts}; 2*area {area2}, D^2 {dsq}"
        )
    return report
