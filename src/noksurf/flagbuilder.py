"""Constructive search for flags realizing prescribed polygon vertex counts.

Two layers: find_ordered_ample_class produces an ample class A such that the
ray D - t*A crosses the walls of a given negative configuration one curve at
a time, in the requested order, with a certificate replayed by a full walk;
realize_vertex_count picks a sub-configuration and a flag point placement
whose polygon has exactly the requested number of vertices.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt

from . import linalg
from .errors import FactorBudgetExhausted, InputError, ModelError, SearchFailure, TheoremViolation
from .lattice import (
    DivisorClass,
    SurfaceModel,
    as_divisor,
    curve_pairings,
    dual_graph_components,
    is_model_ample,
    is_negative_definite,
    pair,
)
from .polygon import alpha_beta, build_polygon, mv, mv_of_components
from .qext import QExt
from .raywalk import FlagSpec, RayProfile, walk_ray
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

    def __init__(
        self,
        flag_class: DivisorClass,
        coefficients: dict[str, Fraction],
        appearance: tuple[tuple[str, Fraction], ...],
        mu: Fraction | QExt,
        independent: bool,
    ):
        object.__setattr__(self, "flag_class", flag_class)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "appearance", appearance)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "independent", independent)


def _walk_matches(
    model: SurfaceModel, divisor, flag_class, config: list[str]
) -> RayProfile | None:
    """Replay the ray and accept only the exact ordered chamber story.  A
    walk that exhausts the factoring budget ends the search: the next trial
    would spend it again."""
    try:
        profile = walk_ray(model, divisor, flag_class, model.labels())
    except FactorBudgetExhausted:
        raise
    except (InputError, ModelError):
        return None
    times = [profile.appearance.get(l) for l in config]
    if None in times or len(profile.appearance) != len(config):
        return None
    if any(t <= 0 for t in times):
        return None
    if any(a >= b for a, b in zip(times, times[1:])):
        return None
    if times and not times[-1] < profile.mu:
        return None
    if set(profile.final_support()) != set(config):
        return None
    return profile


def _sample_times(times: list[Fraction], top: Fraction) -> list[Fraction]:
    """Midpoints between consecutive wall times, and one above the last."""
    out = []
    for a, b in zip(times, times[1:]):
        out.append((a + b) / 2)
    if times:
        out.append((times[-1] + top) / 2)
    return out


def _upper_bound_positive_range(model, base, label) -> Fraction:
    """Rational upper bound for sup{c > 0 : base - c*C_label is model-ample}."""
    bd, bn = curve_pairings(model, base, model._index)
    cd, cn = curve_pairings(model, model.class_of(label), model._index)
    bounds = [Fraction(bn[l] * cd, bd * x) for l, x in cn.items() if x > 0]
    bsq = pair(model, base, base)
    cross = Fraction(bn[label], bd)
    csq = Fraction(cn[label], cd)
    if csq < 0:
        # rational overestimate of the positive root of bsq - 2c*cross + c^2*csq
        disc = cross * cross - csq * bsq
        n, d = disc.numerator, disc.denominator
        r = isqrt(n * d)
        root_ub = Fraction(r if r * r == n * d else r + 1, d)
        bounds.append((root_ub - cross) / (-csq))
    return min(bounds) if bounds else Fraction(1)


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
    config = list(ordered_config)
    if len(set(config)) != len(config):
        raise InputError("configuration labels must be distinct")
    if not is_model_ample(model, divisor):
        raise InputError("divisor is not model-ample")
    if not is_negative_definite(model, config):
        raise InputError("configuration is not negative definite")
    if want_independent and not len(config) < model.rank - 1:
        raise InputError(
            "an independent flag class needs strictly fewer curves than rank-1"
        )

    d_pairs = curve_pairings(model, divisor, model._index)
    current = divisor
    times: list[Fraction] = []
    coefficients: dict[str, Fraction] = {}
    profile = None  # walk of the last accepted trial, whose prefix is all of config
    for j, label in enumerate(config):
        cls = model.class_of(label)
        guess = _upper_bound_positive_range(model, current, label) / 2
        accepted = None
        for _ in range(budget):
            trial = current - cls.scale(guess)
            if is_model_ample(model, trial) and _probe(
                model, trial, config[: j + 1], times, d_pairs
            ):
                profile = _walk_matches(model, divisor, trial, config[: j + 1])
                if profile is not None:
                    accepted = (trial, profile)
                    break
            guess = guess / 2
        if accepted is None:
            raise SearchFailure(
                f"halving budget exhausted at curve {label!r}; last verified "
                f"prefix {config[:j]} with coefficients {coefficients}"
            )
        current, profile = accepted
        coefficients[label] = guess
        times = [profile.appearance[l] for l in config[: j + 1]]

    independent = False
    if want_independent:
        current, profile = _perturb_independent(
            model, divisor, current, config, budget
        )
        independent = True
    elif profile is None:
        profile = _walk_matches(model, divisor, current, config)
        if profile is None:
            raise SearchFailure("final verification walk rejected the class")

    return OrderedFlagCertificate(
        flag_class=current,
        coefficients=dict(coefficients),
        appearance=tuple((l, profile.appearance[l]) for l in config),
        mu=profile.mu,
        independent=independent,
    )


def _probe(model, flag_class, config, prev_times, d_pairs) -> bool:
    """The decomposition of D - s*A at each sample time s must have the
    expected prefix as its support.

    Certified from D's curve_pairings `d_pairs` and A's: the decomposition
    is unique, so positive coefficients on the expected support and a
    remainder nef on every curve make it the decomposition.  A sample whose
    certificate fails rejects the trial, as a walk that raises does.  There
    is no sample at s = 0: its certificate is that D pairs nonnegatively
    with every curve, which the search's entry check that D is model-ample
    has decided.
    """
    dd, dn = d_pairs
    ad, an = curve_pairings(model, flag_class, model._index)
    for s in _sample_times(prev_times, Fraction(1)):
        expect = [l for l, t in zip(config, prev_times) if t <= s]
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
    in_span = linalg.span_test(
        [divisor.coords] + [model.class_of(l).coords for l in config]
    )
    # e_i.C_l = (G.c_l)_i: +e_i pairs nonnegatively with every curve unless
    # some (G.c_l)_i < 0, and -e_i unless some (G.c_l)_i > 0
    pos, neg = [False] * model.rank, [False] * model.rank
    for row in model._duals.values():
        for i, y in row:
            (pos if y > 0 else neg)[i] = True
    options = []
    for i in range(model.rank):
        unit = [0] * model.rank
        unit[i] = 1
        if in_span(unit):  # then -unit is in the span too
            continue
        if not neg[i]:
            options.append(DivisorClass(unit))
        if not pos[i]:
            options.append(DivisorClass([-x for x in unit]))
    if not options:
        raise SearchFailure("no perturbation direction pairs nonnegatively with the model")
    for b in options:
        eps = Fraction(1)
        for _ in range(budget):
            trial = base + b.scale(eps)
            if is_model_ample(model, trial) and not in_span(trial.coords):
                profile = _walk_matches(model, divisor, trial, config)
                if profile is not None:
                    return trial, profile
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
    master = list(master_config)
    if len(set(master)) != len(master):
        raise InputError("configuration labels must be distinct")
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
        j, mode = prefix_mv.index(v), "exact"
    elif v + 1 in prefix_mv:
        j, mode = prefix_mv.index(v + 1), "minus-one"
    else:
        raise InputError(f"no sub-configuration realizes {v} vertices")
    config = master[:j]
    if mode == "exact":
        want_independent = j < model.rank - 1
        placement = "first-curve" if config else "generic-point"
    else:
        if j == 0:
            want_independent = False
            placement = "generic-point"
        else:
            want_independent = j < model.rank - 1
            placement = "second-curve" if any(len(c) > 1 for c in comps[j]) else "generic-point"

    certificate = find_ordered_ample_class(
        model, divisor, config, want_independent, budget
    )
    scale, flag_class = _scale_for_flag(model, certificate, config)
    if placement == "first-curve":
        local = {config[0]: 1}
    elif placement == "second-curve":
        local = {config[1]: 1}
    else:
        local = {}
    flag = FlagSpec(model, flag_class, local)
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
