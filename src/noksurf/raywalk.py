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
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import InputError, InternalError, ModelError
from .lattice import (
    DivisorClass,
    SurfaceModel,
    as_divisor,
    curve_products,
    gram_matrix,
    pair,
    pair_curve,
    sorted_labels,
    subtract_curves,
)
from .qext import QExt, as_exact, sqrt_fraction
from .zariski import ZariskiResult, zariski_decompose


@dataclass(frozen=True)
class Segment:
    """One chamber of the walk: support, affine coefficients, the moving
    positive part P_t = p0 + t*p1 on [t_lo, t_hi] and its pairing
    P_t.F = f0 + t*fslope with the flag class F."""

    t_lo: Fraction
    t_hi: Fraction | QExt
    support: tuple[str, ...]  # in order of appearance
    coeffs: dict[str, tuple[Fraction, Fraction]]  # label -> (a0, a1)
    p0: DivisorClass
    p1: DivisorClass
    f0: Fraction  # P_0.F
    fslope: Fraction  # p1.F

    def coefficient_at(self, label: str, t):
        a0, a1 = self.coeffs[label]
        return a0 + a1 * t


@dataclass(frozen=True)
class RayProfile:
    nu: Fraction
    mu: Fraction | QExt
    radicand: int  # 0 when mu is rational
    segments: tuple[Segment, ...]
    appearance: dict[str, Fraction]
    flag_label: str | None
    flag_class: DivisorClass
    divisor: DivisorClass
    candidates: tuple[str, ...]
    decomposition: ZariskiResult  # of D itself, from which the walk starts

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
    flag_label, _ = resolve_flag(model, flag)
    cands = _validated_candidates(model, candidates, flag_label)
    dec = zariski_decompose(model, divisor, cands)
    return dec.coefficient(flag_label) if flag_label is not None else Fraction(0)


@dataclass(frozen=True)
class _Ray:
    """The once-per-walk intersection numbers of D - t*F: every pairing in
    a chamber is an affine combination of these, the solved coefficients
    and the model's integer curve products, because P_t is orthogonal to
    the support."""

    divisor: DivisorClass
    flag_class: DivisorClass
    d_c: dict  # label -> D.C_l
    f_c: dict  # label -> F.C_l
    dd: Fraction
    df: Fraction
    ff: Fraction


def _segment_system(model, ray, support):
    """Affine solution on a support: coefficients and the moving positive part.

    Returns (coeffs, p0, p1) with a_j(t) = a0_j + a1_j*t and
    P_t = p0 + t*p1.  The right-hand sides D.C_l and -F.C_l are read from
    the ray, which paired D and F with every candidate once.
    """
    if support:
        gram = gram_matrix(model, support)
        rhs0 = [ray.d_c[l] for l in support]
        rhs1 = [-ray.f_c[l] for l in support]
        try:
            a0, a1 = linalg.solve_negative_definite(gram, [rhs0, rhs1])
        except linalg.NotNegativeDefinite:
            raise ModelError(
                f"support {list(support)} is not negative definite "
                f"(inertia {linalg.inertia(gram)})"
            ) from None
    else:
        a0, a1 = [], []
    coeffs = {l: (a0[i], a1[i]) for i, l in enumerate(support)}
    p0 = subtract_curves(model, ray.divisor, zip(support, a0))
    p1 = subtract_curves(model, -ray.flag_class, zip(support, a1))
    return coeffs, p0, p1


def _pairings(model, ray, labels, coeffs):
    """[(l, P_0.C_l, p1.C_l)] for the listed curves, from the coefficients
    (a0_j, a1_j) of the support: P_0.C_l = D.C_l - sum a0_j C_j.C_l and
    p1.C_l = -F.C_l - sum a1_j C_j.C_l, summed over the nonzero products."""
    q = {l: [ray.d_c[l], -ray.f_c[l]] for l in labels}
    for j, (a0, a1) in coeffs.items():
        for l, x in curve_products(model, j).items():
            v = q.get(l)
            if v is not None:
                v[0] -= a0 * x
                v[1] -= a1 * x
    return [(l, q0, q1) for l, (q0, q1) in q.items()]


def _outside_pairings(model, ray, entry_order, support, coeffs):
    """(l, P_0.C_l, slope) for every candidate outside `support`."""
    inside = set(support)
    return _pairings(model, ray, [l for l in entry_order if l not in inside], coeffs)


def _enlarge_support(model, ray, support, t_star, outside, solution):
    """Fixed point of the derivative test at a wall.

    `solution` is the `_segment_system` result on `support` and `outside`
    its `_outside_pairings`.  Candidates sitting on the wall (pairing
    exactly 0 at t_star) join the support as long as their pairing against
    the refreshed positive part still decreases; entrants whose solved
    coefficient is identically zero are wall-touchers and are dropped again.
    Returns (kept, solution on kept): a dropped coefficient is zero, so
    restricting the last solve is exact.
    """
    # wall candidates with their slope against the current positive part
    wall = [(l, q1) for l, q0, q1 in outside if q0 + t_star * q1 == 0]
    current = list(support)
    while True:
        adds = [l for l, q1 in wall if q1 < 0]
        if not adds:
            break
        current = current + adds
        solution = _segment_system(model, ray, current)
        rest = [l for l, _ in wall if l not in current]
        wall = [(l, q1) for l, _, q1 in _pairings(model, ray, rest, solution[0])]
    coeffs, p0, p1 = solution
    kept = list(support)
    for l in current[len(support) :]:
        a0, a1 = coeffs[l]
        if a0 + a1 * t_star != 0:
            raise InternalError(f"entrant {l!r} has nonzero coefficient at its wall")
        if a1 < 0:
            raise ModelError(
                f"support decreased; invalid model input (entrant {l!r} "
                f"solves to negative slope {a1})"
            )
        if a1 > 0:
            kept.append(l)
    return kept, ({l: coeffs[l] for l in kept}, p0, p1)


def _first_quadratic_root(p0sq: Fraction, cross: Fraction, p1sq: Fraction, t_cur):
    """Smallest root > t_cur of p0sq + 2*cross*t + p1sq*t^2, exactly.

    Returns None when the quadratic never reaches zero beyond t_cur.
    """
    if p1sq == 0:
        if cross == 0:
            return None
        root = Fraction(-p0sq, 2 * cross)
        return root if root > t_cur else None
    half_disc = cross * cross - p1sq * p0sq  # (b/2)^2 - a*c
    if half_disc < 0:
        return None
    sq = sqrt_fraction(half_disc)
    # sq >= 0, so the sign of p1sq says which root is the smaller
    low, high = -cross - sq, -cross + sq
    for num in (low, high) if p1sq > 0 else (high, low):
        r = as_exact(num / p1sq)
        if r > t_cur:
            return r
    return None


def _exit_first(p0sq, cross, p1sq, t_cur, t_wall):
    """Whether q(t) = p0sq + 2*cross*t + p1sq*t^2, positive at t_cur, first
    vanishes at or before t_wall > t_cur (None: no wall), by sign tests in Q;
    None when q has no root beyond t_cur (for p1sq > 0: unless the vertex
    lies ahead and the discriminant is >= 0)."""
    if p1sq > 0 and (-cross <= p1sq * t_cur or cross * cross < p1sq * p0sq):
        return None
    if p1sq == 0 and cross >= 0:
        return None
    # past the first root q(t_wall) <= 0, or, convex, past both with the vertex
    return t_wall is None or (
        p0sq + 2 * cross * t_wall + p1sq * t_wall * t_wall <= 0
        or (p1sq > 0 and -cross < p1sq * t_wall)
    )


def walk_ray(model: SurfaceModel, divisor, flag, candidates) -> RayProfile:
    """Full chamber walk of D - t*C from nu to mu.

    The flag curve is monitored like a candidate: it must never re-enter the
    support past nu, or the input data is inconsistent.
    """
    divisor = as_divisor(divisor, model.rank)
    flag_label, flag_class = resolve_flag(model, flag)
    cands_full = _validated_candidates(model, candidates, flag_label)
    entry_order = [l for l in cands_full if l != flag_label]

    dec0 = zariski_decompose(model, divisor, cands_full)
    t_nu = dec0.coefficient(flag_label) if flag_label is not None else Fraction(0)

    if t_nu == 0:
        dec_nu = dec0  # D - 0*C is D itself
    else:
        dec_nu = zariski_decompose(model, divisor - flag_class.scale(t_nu), cands_full)
    if flag_label is not None and flag_label in dec_nu.support:
        raise ModelError("flag curve still in the negative part at t = nu")
    p_nu = dec_nu.positive_part
    # P^2 > 0 holds in both halves of the light cone; the ample witness
    # pairs positively with the half that holds the big classes
    if pair(model, p_nu, p_nu) <= 0 or pair(model, p_nu, model._witness) <= 0:
        raise ModelError("divisor is not big against the model")

    ray = _Ray(
        divisor=divisor,
        flag_class=flag_class,
        d_c=dec0.pairings,
        f_c={l: pair_curve(model, flag_class, l) for l in entry_order},
        dd=pair(model, divisor, divisor),
        df=pair(model, divisor, flag_class),
        ff=pair(model, flag_class, flag_class),
    )
    support = sorted(dec_nu.support, key=model.declaration_index)
    appearance: dict[str, Fraction] = {l: t_nu for l in support}
    # a wall may sit exactly at nu; enlarge before the first segment
    solution = _segment_system(model, ray, support)
    outside = _outside_pairings(model, ray, entry_order, support, solution[0])
    enlarged, solution = _enlarge_support(model, ray, support, t_nu, outside, solution)
    if len(enlarged) > len(support):
        outside = _outside_pairings(model, ray, entry_order, enlarged, solution[0])
    support = enlarged
    for l in support:
        appearance.setdefault(l, t_nu)

    segments: list[Segment] = []
    t_cur = t_nu
    mu = None
    radicand = 0
    for _ in range(len(entry_order) + 2):
        coeffs, p0, p1 = solution
        # candidate walls ahead of t_cur
        events: list[tuple[Fraction, str]] = []
        for l, q0, q1 in outside:
            val = q0 + t_cur * q1
            if val < 0 or (val == 0 and q1 < 0):
                raise InternalError(f"pairing against {l!r} already negative at segment start")
            if q1 < 0:
                events.append((-q0 / q1, l))

        # P_0.F, p1.F and P_0^2 from the once-per-walk numbers; p0 and p1
        # are orthogonal to the support, so P_0.p1 = -P_0.F, p1^2 = -p1.F
        f0, fslope, p0sq = ray.df, -ray.ff, ray.dd
        for j, (a0, a1) in coeffs.items():
            f0 -= a0 * ray.f_c[j]
            fslope -= a1 * ray.f_c[j]
            p0sq -= a0 * ray.d_c[j]
        cross, p1sq = -f0, -fslope

        # exit of the big cone, decided in Q; its root is taken only on exit
        if p0sq + 2 * cross * t_cur + p1sq * t_cur * t_cur <= 0:
            raise InternalError("positive part lost its positivity inside a segment")
        next_event = min((te for te, _ in events), default=None)
        exits = _exit_first(p0sq, cross, p1sq, t_cur, next_event)
        if exits is None:
            raise ModelError("ray never exits big cone in model")
        if exits:
            mu = t_hi = _first_quadratic_root(p0sq, cross, p1sq, t_cur)
            if mu is None:
                raise InternalError("the sign tests found an exit with no root")
            if isinstance(mu, QExt):
                radicand = mu.d
        else:
            t_hi = next_event

        # flag monitor: its pairing must stay nonnegative up to the segment end
        fval = f0 + t_cur * fslope
        if fval < 0 or (fval == 0 and fslope < 0):
            raise ModelError("flag curve pairs negatively along the ray; invalid model input")
        if fslope < 0 and -f0 / fslope < t_hi:
            raise ModelError(
                "flag curve enters the negative part inside the ray; invalid model input"
            )

        for l in support:
            a0, a1 = coeffs[l]
            if a0 + a1 * t_hi <= 0:
                raise ModelError(
                    f"support decreased; invalid model input (coefficient of {l!r} "
                    f"vanishes before the segment ends)"
                )
        for l, q0, q1 in outside:
            if q0 + t_hi * q1 < 0:
                raise InternalError(f"missed a wall for {l!r}")

        segments.append(
            Segment(
                t_lo=t_cur, t_hi=t_hi, support=tuple(support), coeffs=coeffs,
                p0=p0, p1=p1, f0=f0, fslope=fslope,
            )
        )
        if mu is not None:
            break

        new_support, solution = _enlarge_support(model, ray, support, t_hi, outside, solution)
        if len(new_support) == len(support):
            raise InternalError("wall event produced no support growth")
        # continuity: both chambers agree at the wall
        new_coeffs = solution[0]
        for l in support:
            a0, a1 = coeffs[l]
            b0, b1 = new_coeffs[l]
            if a0 + a1 * t_hi != b0 + b1 * t_hi:
                raise InternalError(f"coefficient of {l!r} jumps across the wall")
        for l in new_support[len(support) :]:
            appearance[l] = t_hi
        support = new_support
        outside = _outside_pairings(model, ray, entry_order, support, new_coeffs)
        t_cur = t_hi
    else:
        raise InternalError("walk did not terminate")

    return RayProfile(
        nu=t_nu,
        mu=mu,
        radicand=radicand,
        segments=tuple(segments),
        appearance=appearance,
        flag_label=flag_label,
        flag_class=flag_class,
        divisor=divisor,
        candidates=tuple(cands_full),
        decomposition=dec0,
    )


def appearance_times(profile: RayProfile) -> list[tuple[str, Fraction]]:
    """Labels with their entry times, ascending; ties keep declaration order."""
    items = list(profile.appearance.items())
    order = {l: i for i, l in enumerate(profile.candidates)}
    items.sort(key=lambda kv: (kv[1], order.get(kv[0], len(order))))
    return items

