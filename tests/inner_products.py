"""Discrete inner products and the norm-equivalence check, used only by tests.

The discrete inner products are the uniform-weight and trapezoid-weight
sums whose mismatch with the exact L2 product is the quadrature error of
the lumped schemes. A field is the array of its n+1 node values on a
uniform grid of spacing h, linear between nodes, as in springswim.metrics.
"""

from dataclasses import dataclass

import numpy as np


def l2_inner(u: np.ndarray, v: np.ndarray, h: float) -> float:
    """Exact L2 inner product of two piecewise-linear fields on one grid."""
    if len(u) != len(v):
        raise ValueError(f"fields have different lengths {len(u)} and {len(v)}")
    ul, ur = u[:-1], u[1:]
    vl, vr = v[:-1], v[1:]
    return (h / 6.0) * float(np.sum(2.0 * ul * vl + ul * vr + ur * vl + 2.0 * ur * vr))


def discrete_inner_products(u: np.ndarray, v: np.ndarray, h: float) -> tuple[float, float, float]:
    """Uniform-weight product, trapezoid-weight product and quadrature defect.

    Returns (u,v)_h = h * sum_{j=1..n} u_j v_j, the trapezoid variant with
    half weight on the driven end, and delta_h = (u,v)_h - (u,v) where
    (u,v) is exact. The pinned node contributes to none of them.
    """
    if len(u) != len(v):
        raise ValueError(f"fields have different lengths {len(u)} and {len(v)}")
    products = u[:-1] * v[:-1]
    paren_h = h * float(np.sum(products))
    angle_h = paren_h - 0.5 * h * products[0]
    return paren_h, angle_h, paren_h - l2_inner(u, v, h)


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


def norm_equivalence_check(v: np.ndarray, h: float) -> NormEquivalence:
    """Check the uniform-product/L2 norm equivalence chain on one field."""
    paren_h, _, _ = discrete_inner_products(v, v, h)
    exact = l2_inner(v, v, h)
    first = h * float(v[0]) ** 2
    return NormEquivalence(
        lower_ok=_leq(paren_h / 6.0, exact),
        upper_ok=_leq(exact, paren_h),
        endpoint_lower_ok=_leq(first, paren_h),
        endpoint_upper_ok=_leq(paren_h, 6.0 * exact),
    )
