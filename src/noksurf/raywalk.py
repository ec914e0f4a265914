"""Walk the ray D - t*C through the chamber structure of the big cone.

The walk starts at t = nu (the coefficient of the flag curve in the negative
part of D) and moves right.  On each chamber the negative-part coefficients
are affine in t, solved exactly from the orthogonality system on the current
support.  The next event is either a wall crossing, where some candidate's
pairing with the moving positive part decreases through zero and the support
is enlarged by a derivative-test fixed point, or the exit of the big cone,
where the quadratic P_t^2 reaches zero and defines mu (rational, or in a
single quadratic extension).
"""
from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import lcm

from .errors import InputError, InternalError, ModelError
from .lattice import (
    DivisorClass,
    SurfaceModel,
    as_divisor,
    curve_pairings,
    pair,
    pair_curve,
    sorted_labels,
)
from .qext import QExt, sqrt_fraction
from .record import Record
from .zariski import ZariskiResult, residual_pairings, solve_support, zariski_decompose


class Segment(Record):
    """One chamber of the walk: support and affine coefficients on
    [t_lo, t_hi] of the moving positive part
    P_t = P_0 + t*p1 = D - t*F - sum_l (a0_l + a1_l*t)*C_l with the flag
    class F, and the pairing P_t.F in the chamber's integers."""

    __slots__ = ("t_lo", "t_hi", "support", "coeffs", "numerators")
    _compared = __slots__[:4]  # all but numerators

    def __init__(
        self,
        t_lo: Fraction,
        t_hi: Fraction | QExt,
        support: tuple[str, ...],  # in order of appearance
        coeffs: dict[str, tuple[Fraction, Fraction]],  # label -> (a0, a1)
        # the same numbers in the walk's integers: (e, w, {l: (x0, x1)}, f0,
        # fslope) with a_l(t) = (x0 + x1*t)/e and P_t.F = (f0 + fslope*t)/(e*w)
        numerators: tuple,
    ):
        object.__setattr__(self, "t_lo", t_lo)
        object.__setattr__(self, "t_hi", t_hi)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "numerators", numerators)


class RayProfile(Record):
    """The walk of D - t*F from nu to mu: its chambers, the curves' entry
    times, and the numbers the polygon and its certificates read."""

    __slots__ = (
        "nu", "mu", "radicand", "segments", "appearance", "flag", "divisor", "candidates",
        "decomposition", "flag_square", "volume", "scaled_flag_pairings",
    )
    _compared = __slots__[:-1]  # all but scaled_flag_pairings

    def __init__(
        self,
        nu: Fraction,
        mu: Fraction | QExt,
        radicand: int,  # 0 when mu is rational
        segments: tuple[Segment, ...],
        appearance: dict[str, Fraction],
        flag: FlagSpec,
        divisor: DivisorClass,
        candidates: tuple[str, ...],
        decomposition: ZariskiResult,  # of D itself, from which the walk starts
        flag_square: Fraction,  # F^2
        volume: Fraction,  # vol(D) = P_D^2 = P_nu^2, twice the polygon's area
        # (w, {l: w*F.C_l}) for every candidate but the flag curve, in integers
        scaled_flag_pairings: tuple[int, dict[str, int]],
    ):
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "radicand", radicand)
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "appearance", appearance)
        object.__setattr__(self, "flag", flag)
        object.__setattr__(self, "divisor", divisor)
        object.__setattr__(self, "candidates", candidates)
        object.__setattr__(self, "decomposition", decomposition)
        object.__setattr__(self, "flag_square", flag_square)
        object.__setattr__(self, "volume", volume)
        object.__setattr__(self, "scaled_flag_pairings", scaled_flag_pairings)

    def flag_pairing(self, label: str) -> Fraction:
        """F.C_l, as the walk paired it, for a candidate other than the flag curve."""
        w, f_c = self.scaled_flag_pairings
        return Fraction(f_c[label], w)

    def final_support(self) -> tuple[str, ...]:
        """Support of the negative part at mu (the largest support reached)."""
        return self.segments[-1].support if self.segments else ()


def resolve_flag(model: SurfaceModel, flag) -> tuple[str | None, DivisorClass]:
    """Accept a declared label or a raw class for the flag curve.

    A raw class that coincides with a declared curve resolves to its label;
    otherwise it is carried as an asserted-irreducible class with no
    declared negativity (its coefficient in any decomposition is 0).
    """
    if isinstance(flag, str):
        return flag, model.class_of(flag)
    cls = as_divisor(flag, model.rank)
    for rec in model.curves:
        if rec.cls == cls.coords:
            return rec.label, cls
    if cls.is_zero():
        raise InputError("flag class must be nonzero")
    return None, cls


class FlagSpec(Record):
    """A flag (C, p), checked against the model once, when it is built: the
    curve C, given as a declared label or a class and resolved to its label
    (None for an undeclared class) and class, and the local intersection
    multiplicities (C_j . C)_p of declared curves at the flag point."""

    __slots__ = ("label", "cls", "local_mult")

    def __init__(self, model: SurfaceModel, flag, local_mult):
        label, cls = resolve_flag(model, flag)
        for l, m in local_mult.items():
            if l == label:
                raise InputError("local multiplicities must not include the flag curve")
            model.curve(l)  # an unknown label is reported before a bad multiplicity
            if not isinstance(m, int) or isinstance(m, bool) or m < 0:
                raise InputError(f"local multiplicity of {l!r} must be a nonnegative integer")
            total = pair_curve(model, cls, l)
            if m > total:
                raise InputError(
                    f"local multiplicity of {l!r} exceeds its total intersection {total}"
                )
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "cls", cls)
        object.__setattr__(self, "local_mult", dict(local_mult))

    def mult(self, label: str) -> int:
        return self.local_mult.get(label, 0)


def _as_flag(model: SurfaceModel, flag) -> FlagSpec:
    """A FlagSpec as it is; a bare label or class as the flag with no
    local multiplicities."""
    return flag if isinstance(flag, FlagSpec) else FlagSpec(model, flag, {})


def _validated_candidates(model: SurfaceModel, candidates, flag_label) -> list[str]:
    """The distinct candidates with a declared flag curve among them, in
    declaration order."""
    cands = sorted_labels(model, candidates, "candidate")
    if flag_label is not None and flag_label not in cands:
        insort(cands, flag_label, key=model.declaration_index)
    return cands


def nu(model: SurfaceModel, divisor, flag, candidates) -> Fraction:
    """Coefficient of the flag curve in the negative part of D itself."""
    divisor = as_divisor(divisor, model.rank)
    flag_label = _as_flag(model, flag).label
    cands = _validated_candidates(model, candidates, flag_label)
    dec = zariski_decompose(model, divisor, cands)
    return dec.coefficient(flag_label) if flag_label is not None else Fraction(0)


class _Ray:
    """The once-per-walk numbers of D - t*F over one denominator w: d_c[l] =
    w*D.C_l, dd = w*D^2, ..., from D.C_l and F.C_l as (den, {l: numerator})
    and the rationals D^2, D.F, F^2.  Every chamber pairing is an integer
    combination of these, the solve numerators and the curve products."""

    def __init__(self, d_c, f_c, dd, df, ff):
        self.w = w = lcm(d_c[0], f_c[0], dd.denominator, df.denominator, ff.denominator)
        self.d_c, self.f_c = (
            nums if den == w else {l: w // den * x for l, x in nums.items()}
            for den, nums in (d_c, f_c)
        )
        self.dd, self.df, self.ff = (x.numerator * (w // x.denominator) for x in (dd, df, ff))


def _at(q0, q1, t):
    """q0 + t*q1 times the denominator of a rational t, in integers."""
    return q0 * t.denominator + t.numerator * q1


def _sign(q0, q1, t):
    """Sign of q0 + q1*t for a rational t, or for the root t = (a - sqrt(disc))/b
    of a walk's exit given as the integers (a, b, disc), disc no square: then
    b*(q0 + q1*t) = u - q1*sqrt(disc) with u = q0*b + q1*a, and the sign is
    decided by comparing u^2 with q1^2*disc when the two terms compete."""
    if type(t) is Fraction:
        v = _at(q0, q1, t)
        return (v > 0) - (v < 0)
    a, b, disc = t
    u = q0 * b + q1 * a
    s = (u > 0) - (u < 0)
    if s == 0 or (s * q1 > 0 and u * u < q1 * q1 * disc):
        s = (q1 < 0) - (q1 > 0)
    return s if b > 0 else -s


def _earliest_wall(outside, t):
    """The least Q0/-Q1 over the outside pairings (l, Q0, Q1) with Q1 < 0,
    found by cross-multiplying, or None; each pairing must be positive at
    the segment start t, or zero and not decreasing."""
    wall = None
    for l, q0, q1 in outside:
        val = _at(q0, q1, t)
        if val < 0 or (val == 0 and q1 < 0):
            raise InternalError(f"pairing against {l!r} already negative at segment start")
        if q1 < 0 and (wall is None or q0 * wall[1] < wall[0] * -q1):
            wall = (q0, -q1)
    return None if wall is None else Fraction(*wall)


def _missed_wall(outside, t_hi, wall):
    """The first outside curve whose pairing is negative at the segment end
    (rational, or the integer root of `_sign`), or None.  Past the start some
    pairing is negative iff the end passes the earliest wall, so an
    irrational mu is compared with `wall` alone."""
    if type(t_hi) is Fraction or (
        wall is not None and _sign(-wall.numerator, wall.denominator, t_hi) > 0
    ):
        return next((l for l, q0, q1 in outside if _sign(q0, q1, t_hi) < 0), None)
    return None


def _segment_system(model, ray, support):
    """Integer solution on a support: (s, {l: (x0, x1)}) with coefficients
    a_l(t) = (x0 + x1*t)/(s*w), from one fraction-free elimination whose
    right-hand sides w*D.C_l and -w*F.C_l are read from the ray."""
    s, (x0, x1) = solve_support(
        model, support, [[ray.d_c[l] for l in support], [-ray.f_c[l] for l in support]],
        lambda sig: f"support {list(support)} is not negative definite (inertia {sig})",
    )
    return s, dict(zip(support, zip(x0, x1)))


def _solution(ray, chamber):
    """The chamber's coefficients as returned in a Segment: a_j(t) =
    a0_j + a1_j*t, each built from integer numerators."""
    s, nums = chamber
    e = s * ray.w
    return {l: (Fraction(x0, e), Fraction(x1, e)) for l, (x0, x1) in nums.items()}


def _pairings(model, ray, labels, chamber):
    """[(l, Q0, Q1)] for the listed curves, P_0.C_l = Q0/(s*w) and
    p1.C_l = Q1/(s*w): Q0 = s*w*D.C_l - sum x0_j C_j.C_l and
    Q1 = -s*w*F.C_l - sum x1_j C_j.C_l."""
    s, nums = chamber
    q0, q1 = residual_pairings(
        model, nums, zip(*nums.values()),
        [{l: s * ray.d_c[l] for l in labels}, {l: -s * ray.f_c[l] for l in labels}],
    )
    return [(l, q, q1[l]) for l, q in q0.items()]


def _outside_pairings(model, ray, entry_order, support, chamber):
    """(l, Q0, Q1) for every candidate outside `support`."""
    inside = set(support)
    return _pairings(model, ray, [l for l in entry_order if l not in inside], chamber)


def _enlarge_support(model, ray, support, t_star, outside, chamber):
    """Fixed point of the derivative test at a wall.

    `chamber` is the `_segment_system` result on `support` and `outside`
    its `_outside_pairings`.  Candidates sitting on the wall (pairing
    exactly 0 at t_star) join the support as long as their pairing against
    the refreshed positive part still decreases; entrants whose solved
    coefficient is identically zero are wall-touchers and are dropped again.
    Returns (kept, chamber on kept): a dropped coefficient is zero, so
    restricting the last solve is exact.
    """
    # wall candidates with their slope against the current positive part
    wall = [(l, q1) for l, q0, q1 in outside if _at(q0, q1, t_star) == 0]
    current = list(support)
    while True:
        adds = [l for l, q1 in wall if q1 < 0]
        if not adds:
            break
        current = current + adds
        chamber = _segment_system(model, ray, current)
        rest = [l for l, _ in wall if l not in current]
        wall = [(l, q1) for l, _, q1 in _pairings(model, ray, rest, chamber)]
    s, nums = chamber
    kept = list(support)
    for l in current[len(support) :]:
        x0, x1 = nums[l]
        if _at(x0, x1, t_star) != 0:
            raise InternalError(f"entrant {l!r} has nonzero coefficient at its wall")
        if x1 < 0:
            raise ModelError(
                f"support decreased; invalid model input (entrant {l!r} "
                f"solves to negative slope {Fraction(x1, s * ray.w)})"
            )
        if x1 > 0:
            kept.append(l)
    return kept, (s, {l: nums[l] for l in kept})


def _exit_root(p0sq, cross, p1sq):
    """The first root past the segment start of p0sq + 2*cross*t + p1sq*t^2,
    once _exit_first has found that it exists: q is positive at the start,
    so that is the smaller root of a convex q and the larger of a concave
    one, and for p1sq = 0 the one root."""
    if p1sq == 0:
        return Fraction(-p0sq, 2 * cross)
    root = sqrt_fraction(cross * cross - p1sq * p0sq)
    if type(root) is Fraction:
        return (-cross - root) / p1sq
    # (-cross - r*sqrt(d))/p1sq, its components already exact and d square-free
    return QExt._of(-cross / p1sq, -root.q / p1sq, root.d)


def _exit_first(p0sq, cross, p1sq, t_cur, t_wall):
    """Whether q(t) = p0sq + 2*cross*t + p1sq*t^2, positive at t_cur, first
    vanishes at or before t_wall > t_cur (None: no wall), by sign tests in
    integers, invariant under one positive scale of p0sq, cross and p1sq;
    None when q has no root beyond t_cur (for p1sq > 0: unless the vertex
    lies ahead and the discriminant is >= 0)."""
    cn, cd = t_cur.numerator, t_cur.denominator
    if p1sq > 0 and (-cross * cd <= p1sq * cn or cross * cross < p1sq * p0sq):
        return None
    if p1sq == 0 and cross >= 0:
        return None
    if t_wall is None:
        return True
    # past the first root q(t_wall) <= 0, or, convex, past both with the vertex
    wn, wd = t_wall.numerator, t_wall.denominator
    return (
        p0sq * wd * wd + 2 * cross * wn * wd + p1sq * wn * wn <= 0
        or (p1sq > 0 and -cross * wd < p1sq * wn)
    )


def _divisor_side(model: SurfaceModel, divisor: DivisorClass, cands: list[str]):
    """(dec, D^2, P_D^2, P_D.A): the decomposition of D against `cands`, the
    square of D, and the square of its positive part and its pairing with
    the ample witness A.  They depend on the model, D and the candidates
    alone, so they are computed on first use and kept in the model's
    _divisor_sides table: a flag search walks one D against many flag
    classes.  A decomposition that raises keeps nothing."""
    key = (divisor._scaled(), tuple(cands))
    try:
        return model._divisor_sides[key]
    except KeyError:
        pass
    dec = zariski_decompose(model, divisor, cands)
    p = dec.positive_part
    side = (dec, pair(model, divisor, divisor), pair(model, p, p), pair(model, p, model._witness))
    model._divisor_sides[key] = side
    return side


def walk_ray(model: SurfaceModel, divisor, flag, candidates) -> RayProfile:
    """Full chamber walk of D - t*C from nu to mu for a FlagSpec, or for a
    bare label or class as the flag with no local multiplicities; the
    profile keeps the flag.

    The flag curve is monitored like a candidate: it must never re-enter the
    support past nu, or the input data is inconsistent.
    """
    divisor = as_divisor(divisor, model.rank)
    flag = _as_flag(model, flag)
    flag_label, flag_class = flag.label, flag.cls
    cands_full = _validated_candidates(model, candidates, flag_label)
    entry_order = [l for l in cands_full if l != flag_label]

    dec0, dd, volume, witness_pairing = _divisor_side(model, divisor, cands_full)
    t_nu = dec0.coefficient(flag_label) if flag_label is not None else Fraction(0)

    if t_nu == 0:
        dec_nu = dec0  # D - 0*C is D itself
    else:
        dec_nu = zariski_decompose(model, divisor - flag_class.scale(t_nu), cands_full)
        p_nu = dec_nu.positive_part
        volume = pair(model, p_nu, p_nu)
        witness_pairing = pair(model, p_nu, model._witness)
    if flag_label is not None and flag_label in dec_nu.support:
        raise ModelError("flag curve still in the negative part at t = nu")
    # P^2 > 0 holds in both halves of the light cone; the ample witness
    # pairs positively with the half that holds the big classes
    if volume <= 0 or witness_pairing <= 0:
        raise ModelError("divisor is not big against the model")

    ray = _Ray(
        dec0.scaled_pairings,
        curve_pairings(model, flag_class, entry_order),
        dd,
        pair(model, divisor, flag_class),
        pair(model, flag_class, flag_class),
    )
    support = sorted(dec_nu.support, key=model.declaration_index)
    appearance: dict[str, Fraction] = dict.fromkeys(support, t_nu)
    chamber = _segment_system(model, ray, support)
    outside = _outside_pairings(model, ray, entry_order, support, chamber)

    segments: list[Segment] = []
    t_cur = t_nu
    mu = None
    radicand = 0
    for _ in range(len(entry_order) + 2):
        # the first pass enlarges at nu, where a wall may sit; each later
        # pass at the wall the previous segment ended on
        new_support, new_chamber = _enlarge_support(model, ray, support, t_cur, outside, chamber)
        if len(new_support) > len(support):
            # continuity: both chambers agree at the wall
            (s, nums), (s2, nums2) = chamber, new_chamber
            for l in support:
                if _at(*nums[l], t_cur) * s2 != _at(*nums2[l], t_cur) * s:
                    raise InternalError(f"coefficient of {l!r} jumps across the wall")
            for l in new_support[len(support) :]:
                appearance[l] = t_cur
            outside = _outside_pairings(model, ray, entry_order, new_support, new_chamber)
        elif segments:
            raise InternalError("wall event produced no support growth")
        support, chamber = new_support, new_chamber

        # every number below is an integer numerator: Q0, Q1 and the
        # coefficients over e = s*w, the flag numbers and P_0^2 over e*w
        s, nums = chamber
        e = s * ray.w
        next_event = _earliest_wall(outside, t_cur)

        # P_0.F, p1.F and P_0^2 from the once-per-walk numbers; p0 and p1
        # are orthogonal to the support, so P_0.p1 = -P_0.F, p1^2 = -p1.F
        f0, fslope, p0sq = ray.df * e, -ray.ff * e, ray.dd * e
        for j, (x0, x1) in nums.items():
            fj = ray.f_c[j]
            f0 -= x0 * fj
            fslope -= x1 * fj
            p0sq -= x0 * ray.d_c[j]

        # exit of the big cone, decided in integers; only on exit is mu taken,
        # in closed form over ew, so the radicand factored is in lowest terms
        cn, cd = t_cur.numerator, t_cur.denominator
        if p0sq * cd * cd - 2 * f0 * cn * cd - fslope * cn * cn <= 0:
            raise InternalError("positive part lost its positivity inside a segment")
        exits = _exit_first(p0sq, -f0, -fslope, t_cur, next_event)
        if exits is None:
            raise ModelError("ray never exits big cone in model")
        ew = e * ray.w
        # `end` is the segment end for the sign tests: t_hi when rational,
        # else mu = (f0 - sqrt(disc))/-fslope as the integers of _sign
        if exits:
            mu = end = t_hi = _exit_root(
                Fraction(p0sq, ew), Fraction(-f0, ew), Fraction(-fslope, ew)
            )
            if isinstance(mu, QExt):
                radicand = mu.d
                end = (f0, -fslope, f0 * f0 + fslope * p0sq)
            if _sign(-cn, cd, end) <= 0:
                raise InternalError("the sign tests found an exit with no root")
        else:
            end = t_hi = next_event

        # flag monitor: its pairing must stay nonnegative up to the segment end
        fval = _at(f0, fslope, t_cur)
        if fval < 0 or (fval == 0 and fslope < 0):
            raise ModelError("flag curve pairs negatively along the ray; invalid model input")
        if fslope < 0 and _sign(f0, fslope, end) < 0:
            raise ModelError(
                "flag curve enters the negative part inside the ray; invalid model input"
            )

        for l, (x0, x1) in nums.items():
            if _sign(x0, x1, end) <= 0:
                raise ModelError(
                    f"support decreased; invalid model input (coefficient of {l!r} "
                    f"vanishes before the segment ends)"
                )
        missed = _missed_wall(outside, end, next_event)
        if missed is not None:
            raise InternalError(f"missed a wall for {missed!r}")

        segments.append(
            Segment(
                t_lo=t_cur, t_hi=t_hi, support=tuple(support), coeffs=_solution(ray, chamber),
                numerators=(e, ray.w, nums, f0, fslope),
            )
        )
        if mu is not None:
            break
        t_cur = t_hi
    else:
        raise InternalError("walk did not terminate")

    return RayProfile(
        nu=t_nu,
        mu=mu,
        radicand=radicand,
        segments=tuple(segments),
        appearance=appearance,
        flag=flag,
        divisor=divisor,
        candidates=tuple(cands_full),
        decomposition=dec0,
        flag_square=Fraction(ray.ff, ray.w),
        volume=volume,
        scaled_flag_pairings=(ray.w, ray.f_c),
    )


def appearance_times(profile: RayProfile) -> list[tuple[str, Fraction]]:
    """Labels with their entry times, ascending; ties keep declaration order."""
    items = list(profile.appearance.items())
    order = {l: i for i, l in enumerate(profile.candidates)}
    items.sort(key=lambda kv: (kv[1], order.get(kv[0], len(order))))
    return items

