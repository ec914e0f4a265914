"""Zariski decomposition relative to a declared candidate set of curves.

The decomposition D = P + N is computed by the standard fixed-point
iteration on the support: start from the curves D meets negatively, solve
the orthogonality system on that set, and keep enlarging by every candidate
the remainder still meets negatively.  The final set is the unique minimal
closed one, so enlarging simultaneously keeps the result deterministic
without affecting correctness.
"""
from __future__ import annotations

from fractions import Fraction

from . import linalg
from .errors import ModelError
from .lattice import (
    SurfaceModel,
    as_divisor,
    curve_pairings,
    curve_products,
    gram_matrix,
    pair_curve,
    sorted_labels,
    subtract_curves,
    support_elimination,
)
from .record import Record


class ZariskiResult(Record):
    """Certified decomposition: support, positive coefficients, nef remainder,
    and the pairings D.C_l with every candidate it was solved from, kept as
    `scaled_pairings` = (den, {l: den*D.C_l}) in integers.  Two results are
    equal when their supports are."""

    __slots__ = ("support", "coeffs", "positive_part", "scaled_pairings")
    _compared = ("support",)
    _shown = __slots__[:3]

    def coefficient(self, label: str) -> Fraction:
        return self.coeffs.get(label, Fraction(0))


def solve_support(model: SurfaceModel, support, columns, failure):
    """Certify that the Gram matrix of `support` is negative definite and
    solve it against each integer right-hand side in `columns`: (den,
    numerators) with x_j = numerators[c][j]/den.  The support is certified
    and eliminated once per model (support_elimination), and each solve
    replays that elimination.  When the matrix is not negative definite,
    raises ModelError(failure(inertia)).
    """
    if not support:
        return 1, [[] for _ in columns]
    try:
        m = support_elimination(model, support)
    except linalg.NotNegativeDefinite:
        raise ModelError(failure(linalg.inertia(gram_matrix(model, support)))) from None
    return linalg.solve_eliminated(m, columns)


def residual_pairings(model: SurfaceModel, support, columns, rhs):
    """b_l - sum_j x_j*C_j.C_l for every l in each right-hand side.

    `columns` holds one solution x over `support` per right-hand side, and
    `rhs` one {l: b_l} per column; each is updated in place, and `rhs` is
    returned.  Only the nonzero curve products are summed.
    """
    for side, xs in zip(rhs, columns):
        for j, x in zip(support, xs):
            if x:
                for l, g in curve_products(model, j).items():
                    if l in side:
                        side[l] -= x * g
    return rhs


def zariski_decompose(model: SurfaceModel, divisor, candidates) -> ZariskiResult:
    """Decompose `divisor` against the given candidate curves.

    Results mean "Zariski decomposition relative to the declared curves":
    the candidate list is trusted to contain every curve the true negative
    part could involve.  Everything is decided in integers: D.C_l = d_c[l]/w,
    a_j = x_j/(e*w) and (D - sum a_j C_j).C_l = rest[l]/(e*w).
    """
    divisor = as_divisor(divisor, model.rank)
    cands = sorted_labels(model, candidates, "candidate")

    w, d_c = curve_pairings(model, divisor, cands)
    support = [l for l in cands if d_c[l] < 0]
    while True:
        e, (xs,) = solve_support(
            model, support, [[d_c[l] for l in support]],
            lambda sig: "candidate set contains non-negative-definite support: "
            f"{support} has inertia {sig}",
        )
        for l, x in zip(support, xs):
            if x < 0:
                raise ModelError(
                    "class not pseudo-effective within model, or candidate "
                    f"set inconsistent (coefficient of {l!r} solved to {Fraction(x, e * w)})"
                )
        inside = set(support)
        (rest,) = residual_pairings(
            model, support, [xs], [{l: e * d_c[l] for l in cands if l not in inside}]
        )
        violators = [l for l, q in rest.items() if q < 0]
        if not violators:
            break
        support = sorted(support + violators, key=model.declaration_index)

    positive = subtract_curves(model, divisor, zip(support, xs), e * w)

    kept = [(l, x) for l, x in zip(support, xs) if x != 0]
    result = ZariskiResult(
        support=tuple(l for l, _ in kept),
        coeffs={l: Fraction(x, e * w) for l, x in kept},
        positive_part=positive,
        scaled_pairings=(w, d_c),
    )
    # orthogonality certificate
    for l in result.support:
        if pair_curve(model, positive, l) != 0:
            raise ModelError(f"positive part not orthogonal to {l!r}")
    return result


def relative_negative_part(model: SurfaceModel, divisor, subset) -> dict[str, Fraction]:
    """Solve (D - sum b_i C_i).C_j = 0 over the subset alone.

    Unlike the full decomposition, coefficients may come out negative; no
    positivity is asserted.
    """
    divisor = as_divisor(divisor, model.rank)
    labels = sorted_labels(model, subset, "subset")
    w, d_c = curve_pairings(model, divisor, labels)
    e, (xs,) = solve_support(
        model, labels, [[d_c[l] for l in labels]],
        lambda sig: f"Gram matrix of {labels} is singular (inertia {sig})"
        if sig[2] > 0
        else f"subset {labels} is not negative definite (inertia {sig})",
    )
    return {l: Fraction(x, e * w) for l, x in zip(labels, xs)}
