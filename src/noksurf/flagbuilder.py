"""Constructive search for flags realizing prescribed polygon vertex counts.

Two layers: find_ordered_ample_class produces an ample class A such that the
ray D - t*A crosses the walls of a given negative configuration one curve at
a time, in the requested order, with a certificate replayed by the walk's
chamber steps; realize_vertex_count picks a sub-configuration and a flag
point placement whose polygon has exactly the requested number of vertices.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt

from . import linalg
from .errors import InputError, InternalError, ModelError, SearchFailure, TheoremViolation
from .lattice import (
    DivisorClass,
    SurfaceModel,
    as_divisor,
    curve_pairings,
    curve_products,
    dual_graph_components,
    is_model_ample,
    is_negative_definite,
    subtract_curves,
)
from .polygon import _distinct, alpha_beta, build_polygon, mv, mv_of_components
from .raywalk import FlagSpec, _chamber_steps, _divisor_side, _mu, walk_ray
from .record import Record
from .zariski import residual_pairings, solve_support


class OrderedFlagCertificate(Record):
    """An ample class whose ray meets the configuration in strict order.

    `flag_class` is used directly as the class of the flag curve; that an
    irreducible curve with this class exists (meeting each configuration
    curve in at least two points after scaling) is a geometric assumption,
    recorded here rather than verified, since lattice data cannot decide it.
    """

    __slots__ = ("flag_class", "coefficients", "appearance", "mu", "independent")


def _walk_matches(model: SurfaceModel, divisor, flag_class, config: list[str]):
    """Replay the ray's chamber steps in integers and accept only the ordered
    story: the configuration's curves enter one at a time, in order, after
    t = 0 and before mu, and are the support at mu.  Returns (appearance,
    exit), with exit = (end, e*w) the last step's end and denominator that
    raywalk._mu takes mu from, or None."""
    try:
        steps = _chamber_steps(model, divisor, flag_class, model.labels())
        *_, t_nu, _, ray, support = next(steps)
        appearance = dict.fromkeys(support, t_nu)
        for t_lo, end, _, support, _, e, _, _ in steps:
            appearance.update(dict.fromkeys(support[len(appearance) :], t_lo))
    except (InputError, ModelError):
        return None
    times = [appearance.get(l) for l in config]
    # the support only grows, so the appeared curves are the final support
    if len(appearance) != len(config) or None in times:
        return None
    if any(a >= b for a, b in zip([0, *times], times)):
        return None
    # every curve enters before mu with no test: it enters at the start of a
    # chamber step, and _chamber_steps checks that each step ends after it starts
    return appearance, (end, e * ray.w)


def _upper_bound_positive_range(model, base, label) -> Fraction:
    """Upper bound for sup{c > 0 : base - c*C_label is model-ample}, from base's pairings."""
    bd, bn, bsq = base
    products = curve_products(model, label)
    bounds = [Fraction(bn[l], bd * x) for l, x in products.items() if x > 0]
    cross = Fraction(bn[label], bd)
    csq = products.get(label, 0)
    if csq < 0:
        # rational overestimate of the positive root of bsq - 2c*cross + c^2*csq
        disc = Fraction(bn[label] ** 2 - csq * bsq, bd * bd)
        n, d = disc.numerator, disc.denominator
        r = isqrt(n * d)
        root_ub = Fraction(r if r * r == n * d else r + 1, d)
        bounds.append((root_ub - cross) / (-csq))
    return min(bounds) if bounds else Fraction(1)


def _trial(base, products, label, guess):
    """(den*q, {l: den*q*A.C_l}, (den*q)^2*A^2) for A = base - (p/q)*C_label
    from the base's (den, ...) and the row {k: C_k.C_label}, and whether A is
    model-ample: the base is, so only A^2 and the A.C_k can turn nonpositive."""
    den, nums, sq = base
    p, q = guess.numerator, guess.denominator
    pd = p * den
    an = {l: x * q for l, x in nums.items()}
    for l, x in products.items():
        an[l] -= pd * x
    sq = (sq * q - 2 * pd * nums[label]) * q + pd * pd * products.get(label, 0)
    return (den * q, an, sq), sq > 0 and all(an[l] > 0 for l in products)


def find_ordered_ample_class(
    model: SurfaceModel,
    divisor,
    ordered_config,
    want_independent: bool = False,
    budget: int = 64,
) -> OrderedFlagCertificate:
    """Build A ample with the chambers of D - t*A crossed in the given order.

    Induction over the configuration: subtract a small multiple of the next
    curve, halving the coefficient until the already-established chamber
    structure, probed by certified decompositions at rational sample times
    and then by a complete walk, is preserved.
    """
    divisor = as_divisor(divisor, model.rank)
    config = _distinct(list(ordered_config))
    if not is_model_ample(model, divisor):
        raise InputError("divisor is not model-ample")
    if not is_negative_definite(model, config):
        raise InputError("configuration is not negative definite")
    if want_independent and not len(config) < model.rank - 1:
        raise InputError(
            "an independent flag class needs strictly fewer curves than rank-1"
        )

    # D's pairings and square, as the replays' walks keep them
    dec, dd, _, _ = _divisor_side(model, divisor, model.labels())
    den, nums = dec.scaled_pairings
    base = d = den, nums, (dd * den * den).numerator
    current = divisor
    times: list[Fraction] = []
    coefficients: dict[str, Fraction] = {}
    replay = None  # (appearance, exit) of the last accepted trial, whose prefix is all of config
    for j, label in enumerate(config):
        products = curve_products(model, label)
        guess = _upper_bound_positive_range(model, base, label) / 2
        # (s, the curves already crossed at s): midpoints between consecutive
        # wall times, and halfway from the last one to 1
        tops = [(a + b) / 2 for a, b in zip(times, [*times[1:], Fraction(1)])]
        samples = [(s, [l for l, t in zip(config, times) if t <= s]) for s in tops]
        for _ in range(budget):
            trial, ample = _trial(base, products, label, guess)
            if ample and _probe(model, trial, samples, d):
                cls = subtract_curves(model, current, [(label, guess.numerator)], guess.denominator)
                replay = _walk_matches(model, divisor, cls, config[: j + 1])
                if replay is not None:
                    break
            guess = guess / 2
        else:
            raise SearchFailure(
                f"halving budget exhausted at curve {label!r}; last verified "
                f"prefix {config[:j]} with coefficients {coefficients}"
            )
        current, (den, nums, sq) = cls, trial
        f = den // current._scaled()[1]  # the built class's denominator divides den
        base = den // f, {l: x // f for l, x in nums.items()}, sq // (f * f)
        coefficients[label] = guess
        times = [replay[0][l] for l in config[: j + 1]]

    independent = False
    if want_independent:
        current, replay = _perturb_independent(model, divisor, current, config, budget)
        independent = True
    elif replay is None:
        replay = _walk_matches(model, divisor, current, config)
        if replay is None:
            raise SearchFailure("final verification walk rejected the class")

    appearance, (end, ew) = replay
    return OrderedFlagCertificate(
        flag_class=current,
        coefficients=dict(coefficients),
        appearance=tuple((l, appearance[l]) for l in config),
        mu=_mu(end, ew),
        independent=independent,
    )


def _probe(model, trial, samples, d) -> bool:
    """The decomposition of D - s*A must have the expected support at each
    of the step's `samples` (s, support).

    Certified from the pairings (den, {l: den*X.C_l}, ...) of D, `d`, and of
    A, `trial`: the decomposition is unique, so positive coefficients on
    the expected support and a remainder nef on every curve make it the
    decomposition.  A sample whose certificate fails rejects the trial, as
    a walk that raises does.  There is no sample at s = 0: its certificate
    is that D pairs nonnegatively with every curve, which the search's
    entry check that D is model-ample has decided.
    """
    dd, dn, _ = d
    ad, an, _ = trial
    for s, expect in samples:
        # W*(D - s*A).C_l with W = dd*ad*q > 0
        p, q = s.numerator, s.denominator
        b = {l: x * ad * q - p * an[l] * dd for l, x in dn.items()}
        if not _certified(model, expect, b):
            return False
    return True


def _certified(model, support, b) -> bool:
    """True when N = sum x_j*C_j solving (D - N).C_j = 0 on `support` has
    every x_j > 0 and (D - N).C_l >= 0 for every other curve, given the
    pairings D.C_l as integers b[l] over one positive denominator; the
    support lies in the configuration, which is negative definite."""
    e, (xs,) = solve_support(
        model, support, [[b[l] for l in support]],
        lambda sig: f"probe support {support} has inertia {sig}",
    )
    if any(x <= 0 for x in xs):
        return False
    inside = set(support)
    (rest,) = residual_pairings(
        model, support, [xs], [{l: e * x for l, x in b.items() if l not in inside}]
    )
    return all(r >= 0 for r in rest.values())


def _perturb_independent(model, divisor, base, config, budget):
    """Nudge the class off the span of D and the configuration.

    The perturbing class must pair nonnegatively with every declared curve,
    or it would drag extraneous walls into the ray.
    """
    in_span = linalg.span_test([divisor.coords, *(model.curve(l).cls for l in config)])
    # e_i.C_l = (G.c_l)_i: +e_i pairs nonnegatively with every curve unless
    # some (G.c_l)_i < 0, and -e_i unless some (G.c_l)_i > 0
    pos, neg = [False] * model.rank, [False] * model.rank
    for row in model._duals.values():
        for i, y in row:
            (pos if y > 0 else neg)[i] = True
    # a unit direction in the span has its opposite in the span too
    options = [
        (i, sign)
        for i in range(model.rank) if not in_span([int(k == i) for k in range(model.rank)])
        for sign, blocked in ((1, neg[i]), (-1, pos[i])) if not blocked
    ]
    if not options:
        raise SearchFailure("no perturbation direction pairs nonnegatively with the model")
    # base is in the span, so base + eps*e_i is in it exactly when e_i is
    c = base.coords
    for i, sign in options:
        eps = Fraction(sign)
        for _ in range(budget):
            trial = DivisorClass._of((*c[:i], c[i] + eps, *c[i + 1 :]))
            replay = is_model_ample(model, trial) and _walk_matches(model, divisor, trial, config)
            if replay:
                if in_span(trial.coords):
                    raise InternalError("a perturbed class lies in the span it must leave")
                return trial, replay
            eps = eps / 2
    raise SearchFailure("independent perturbation budget exhausted")


# -- realization --------------------------------------------------------------


class RealizedFlag(Record):
    """A flag realizing `target` vertices: the sub-configuration `config`,
    the `placement` of the flag point ("first-curve", "generic-point" or
    "second-curve"), the `certificate`, the `scale` with
    profile.flag.cls = scale * certificate.flag_class, the `profile`
    walked with the realized flag, and its `polygon`."""

    __slots__ = ("target", "config", "placement", "certificate", "scale", "profile", "polygon")

    def verified(self) -> bool:
        """The realization's walk is the certificate's walk rescaled: the
        flag class is `scale` times the certified one, so every appearance
        time and mu are the certified ones divided by `scale`."""
        m = self.scale
        return (
            self.profile.appearance == {l: t / m for l, t in self.certificate.appearance}
            and self.profile.mu == self.certificate.mu / m
        )


def _scale_for_flag(model, certificate, config) -> tuple[int, DivisorClass]:
    """Smallest integral multiple meeting each configuration curve twice,
    with its factor.

    With den the common denominator of the class A, every den*A.C_l is an
    integer, and a positive one since A is model-ample; so the multiple is
    den, or 2*den when some den*A.C_l is 1.
    """
    cls = certificate.flag_class
    den, nums = curve_pairings(model, cls, config)
    m = den if all(x >= 2 for x in nums.values()) else 2 * den
    return m, cls.scale(m)


def realize_vertex_count(
    model: SurfaceModel, divisor, master_config, v: int, budget: int = 64
) -> RealizedFlag:
    """Produce a flag whose polygon has exactly v vertices, certified.

    The prefix sub-configurations of the master list realize every count in
    range: a prefix with invariant v gets the flag point on its first curve,
    a prefix with invariant v+1 gets the point moved off (or onto the second
    curve when the connected part is larger), dropping exactly one vertex.
    """
    divisor = as_divisor(divisor, model.rank)
    master = _distinct(list(master_config))
    if not is_negative_definite(model, master):
        raise InputError("master configuration is not negative definite")
    # so is every prefix: one components pass each gives its mv
    comps = [dual_graph_components(model, master[:j]) for j in range(len(master) + 1)]
    biggest = max(map(len, comps[-1]), default=0)
    if any(len(c) != 1 for c in comps[1 : biggest + 1]):
        raise InputError(
            "master configuration must be ordered with connected prefixes "
            "up to its largest connected part"
        )
    prefix_mv = [mv_of_components(model, c) for c in comps]
    if not isinstance(v, int) or v < 3 or v > max(prefix_mv):
        raise InputError(
            f"target vertex count {v} is outside the achievable range "
            f"3..{max(prefix_mv)}"
        )

    if v in prefix_mv:
        j = prefix_mv.index(v)
        placement, point = ("first-curve", master[:1]) if j else ("generic-point", [])
        independent = j < model.rank - 1
    elif v + 1 in prefix_mv:
        j = prefix_mv.index(v + 1)
        if any(len(c) > 1 for c in comps[j]):
            placement, point = "second-curve", master[1:2]
        else:
            placement, point = "generic-point", []
        # the empty prefix with a flag in the span of D: one rightmost vertex
        independent = 0 < j < model.rank - 1
    else:
        raise InputError(f"no sub-configuration realizes {v} vertices")
    config = master[:j]

    certificate = find_ordered_ample_class(model, divisor, config, independent, budget)
    scale, flag_class = _scale_for_flag(model, certificate, config)
    flag = FlagSpec(model, flag_class, dict.fromkeys(point, 1))
    profile = walk_ray(model, divisor, flag, model.labels())
    polygon = build_polygon(*alpha_beta(model, profile))
    if len(polygon.vertices) != v:
        raise TheoremViolation(
            f"realization produced {len(polygon.vertices)} vertices instead of {v} "
            f"(config {config}, placement {placement})"
        )
    return RealizedFlag(
        target=v,
        config=tuple(config),
        placement=placement,
        certificate=certificate,
        scale=scale,
        profile=profile,
        polygon=polygon,
    )


def scan_vertex_counts(
    model: SurfaceModel, divisor, master_config, budget: int = 64
) -> list[RealizedFlag]:
    """One realization per achievable count, 3 through the master invariant."""
    master = list(master_config)
    top = max(mv(model, master[:j]) for j in range(len(master) + 1))
    return [
        realize_vertex_count(model, divisor, master, v, budget)
        for v in range(3, top + 1)
    ]
