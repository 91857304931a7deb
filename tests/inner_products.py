"""Discrete inner products and the norm-equivalence check, used only by tests.

The discrete inner products are the uniform-weight and trapezoid-weight
sums whose mismatch with the exact L2 product is the quadrature error of
the lumped schemes. Fields are the piecewise-linear ElongationField of
springswim.fem.
"""

from dataclasses import dataclass

import numpy as np

from springswim.fem import ElongationField


def l2_inner(u: ElongationField, v: ElongationField) -> float:
    """Exact L2 inner product of two piecewise-linear fields on one grid."""
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")
    h = u.grid.spacing
    ul, ur = u.values[:-1], u.values[1:]
    vl, vr = v.values[:-1], v.values[1:]
    return (h / 6.0) * float(np.sum(2.0 * ul * vl + ul * vr + ur * vl + 2.0 * ur * vr))


def discrete_inner_products(u: ElongationField, v: ElongationField) -> tuple[float, float, float]:
    """Uniform-weight product, trapezoid-weight product and quadrature defect.

    Returns (u,v)_h = h * sum_{j=1..n} u_j v_j, the trapezoid variant with
    half weight on the driven end, and delta_h = (u,v)_h - (u,v) where
    (u,v) is exact. The pinned node contributes to none of them.
    """
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")
    h = u.grid.spacing
    products = u.values[:-1] * v.values[:-1]
    paren_h = h * float(np.sum(products))
    angle_h = paren_h - 0.5 * h * products[0]
    return paren_h, angle_h, paren_h - l2_inner(u, v)


@dataclass(frozen=True)
class NormEquivalence:
    """Outcome of the norm-equivalence inequalities for one field."""

    lower_ok: bool  # (1/6)(v,v)_h <= (v,v)
    upper_ok: bool  # (v,v) <= (v,v)_h
    endpoint_lower_ok: bool  # h*v(y_1)^2 <= (v,v)_h
    endpoint_upper_ok: bool  # (v,v)_h <= 6*(v,v)

    @property
    def all_ok(self) -> bool:
        return self.lower_ok and self.upper_ok and self.endpoint_lower_ok and self.endpoint_upper_ok


def _leq(a: float, b: float) -> bool:
    # equality cases (zero field, single-hat field) must pass despite roundoff
    return a <= b + 1e-12 * (abs(a) + abs(b))


def norm_equivalence_check(v: ElongationField) -> NormEquivalence:
    """Check the uniform-product/L2 norm equivalence chain on one field."""
    paren_h, _, _ = discrete_inner_products(v, v)
    exact = l2_inner(v, v)
    first = v.grid.spacing * float(v.values[0]) ** 2
    return NormEquivalence(
        lower_ok=_leq(paren_h / 6.0, exact),
        upper_ok=_leq(exact, paren_h),
        endpoint_lower_ok=_leq(first, paren_h),
        endpoint_upper_ok=_leq(paren_h, 6.0 * exact),
    )
