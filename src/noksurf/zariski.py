"""Zariski decomposition relative to a declared candidate set of curves.

The decomposition D = P + N is computed by the standard fixed-point
iteration on the support: start from the curves D meets negatively, solve
the orthogonality system on that set, and keep enlarging by every candidate
the remainder still meets negatively.  The final set is the unique minimal
closed one, so enlarging simultaneously keeps the result deterministic
without affecting correctness.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .errors import ModelError
from .lattice import (
    DivisorClass,
    SurfaceModel,
    as_divisor,
    curve_products,
    gram_matrix,
    pair_curve,
    sorted_labels,
    subtract_curves,
)


@dataclass(frozen=True)
class ZariskiResult:
    """Certified decomposition: support, positive coefficients, nef remainder,
    and the pairings D.C_l with every candidate it was solved from."""

    support: tuple[str, ...]
    coeffs: dict[str, Fraction] = field(compare=False)
    positive_part: DivisorClass = field(compare=False)
    pairings: dict[str, Fraction] = field(compare=False)

    def negative_part(self, model: SurfaceModel) -> DivisorClass:
        return subtract_curves(
            model, [0] * model.rank, ((l, -a) for l, a in self.coeffs.items())
        )

    def coefficient(self, label: str) -> Fraction:
        return self.coeffs.get(label, Fraction(0))


def _solve_support(model, labels, rhs):
    """Coefficients a_i with (D - sum a_i C_i).C_j = 0 for every j in labels,
    given rhs[j] = D.C_j, or None when the Gram matrix of `labels` is not
    negative definite."""
    try:
        return linalg.solve_negative_definite(gram_matrix(model, labels), [rhs])[0]
    except linalg.NotNegativeDefinite:
        return None


def zariski_decompose(model: SurfaceModel, divisor, candidates) -> ZariskiResult:
    """Decompose `divisor` against the given candidate curves.

    Results mean "Zariski decomposition relative to the declared curves":
    the candidate list is trusted to contain every curve the true negative
    part could involve.
    """
    divisor = as_divisor(divisor, model.rank)
    cands = sorted_labels(model, candidates, "candidate")

    d_c = {l: pair_curve(model, divisor, l) for l in cands}
    support = [l for l in cands if d_c[l] < 0]
    coeffs: list[Fraction] = []
    while True:
        if support:
            coeffs = _solve_support(model, support, [d_c[l] for l in support])
            if coeffs is None:
                sig = linalg.inertia(gram_matrix(model, support))
                raise ModelError(
                    "candidate set contains non-negative-definite support: "
                    f"{support} has inertia {sig}"
                )
            for l, a in zip(support, coeffs):
                if a < 0:
                    raise ModelError(
                        "class not pseudo-effective within model, or candidate "
                        f"set inconsistent (coefficient of {l!r} solved to {a})"
                    )
        # (D - sum a_j C_j).C_l = D.C_l - sum a_j C_j.C_l off the support
        inside = set(support)
        rest = {l: d_c[l] for l in cands if l not in inside}
        for j, a in zip(support, coeffs):
            for l, x in curve_products(model, j).items():
                if l in rest:
                    rest[l] -= a * x
        violators = [l for l, q in rest.items() if q < 0]
        if not violators:
            break
        support = sorted(support + violators, key=model.declaration_index)

    positive = subtract_curves(model, divisor, zip(support, coeffs))

    kept = [(l, a) for l, a in zip(support, coeffs) if a != 0]
    result = ZariskiResult(
        support=tuple(l for l, _ in kept),
        coeffs={l: a for l, a in kept},
        positive_part=positive,
        pairings=d_c,
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
    if not labels:
        return {}
    sol = _solve_support(model, labels, [pair_curve(model, divisor, l) for l in labels])
    if sol is None:
        sig = linalg.inertia(gram_matrix(model, labels))
        if sig[2] > 0:
            raise ModelError(f"Gram matrix of {labels} is singular (inertia {sig})")
        raise ModelError(f"subset {labels} is not negative definite (inertia {sig})")
    return dict(zip(labels, sol))
