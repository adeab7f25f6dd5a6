"""Built-in flux families.

Four constructors, each returning a FluxModel:

* quadratic: homogeneous c (u - s)^2 + o. Covers the classic u^2/2 and u^2.
* two_state: one flux for x <= 0, another for x > 0 (both shifted quadratics).
  The x-dependence is a single jump at the origin, so the model is not smooth
  in x; it exists to reproduce two-flux interface problems exactly.
* heterogeneous_quadratic: theta(x) (u - ell(x))^2 + g(x) with C-infinity bump
  perturbations of the coefficients supported in [-X, X]. The critical curve
  is ell(x), the pointwise minimum is g(x).
* lwr: road-traffic flux V(x) u (1 - u / rho(x)), concave in u, with C3
  smoothstep transitions of speed limit and jam density across [-X, X].
  Returned in convex form via the standard substitution (orientation
  "concave"); use to_internal/to_physical at the data boundary.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .flux_model import FluxModel
from .profiles import bump, bump_prime, smoothstep, smoothstep_prime


def _zeros_like_broadcast(x, u):
    return np.zeros(np.broadcast(np.asarray(x), np.asarray(u)).shape)


def quadratic(coefficient: float = 0.5, shift: float = 0.0, offset: float = 0.0) -> FluxModel:
    """Homogeneous convex flux c (u - s)^2 + o, c > 0."""
    c, s, o = float(coefficient), float(shift), float(offset)
    if c <= 0:
        raise ConfigError(f"quadratic family needs coefficient > 0, got {c}")

    def flux(u):
        return c * (np.asarray(u, dtype=float) - s) ** 2 + o

    return FluxModel(
        h=lambda x, u: flux(u),
        du_h=lambda x, u: 2.0 * c * (np.asarray(u, dtype=float) - s),
        dx_h=_zeros_like_broadcast,
        hetero_radius=0.0,
        name="quadratic",
        params={"coefficient": c, "shift": s, "offset": o},
        alpha_hint=lambda x: s * np.ones(np.asarray(x, dtype=float).shape),
        freeze=lambda xs: flux,
    )


def two_state(
    left_coefficient: float = 0.5,
    left_shift: float = 0.0,
    left_offset: float = 0.0,
    right_coefficient: float = 1.0,
    right_shift: float = 0.0,
    right_offset: float = 0.0,
    radius: float = 0.5,
) -> FluxModel:
    """Piecewise-in-x flux: c_l (u-s_l)^2 + o_l for x <= 0, the right triple for x > 0.

    radius declares the interval [-radius, radius] as carrying the
    heterogeneity; any positive value is valid since the jump sits at 0.
    """
    cl, sl, ol = float(left_coefficient), float(left_shift), float(left_offset)
    cr, sr, orr = float(right_coefficient), float(right_shift), float(right_offset)
    if cl <= 0 or cr <= 0:
        raise ConfigError("two_state family needs positive coefficients")
    if radius <= 0:
        raise ConfigError("two_state family needs radius > 0")

    def h(x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        return np.where(x <= 0.0, cl * (u - sl) ** 2 + ol, cr * (u - sr) ** 2 + orr)

    def du_h(x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        return np.where(x <= 0.0, 2.0 * cl * (u - sl), 2.0 * cr * (u - sr))

    def dx_h(x, u):
        return _zeros_like_broadcast(x, u)

    def freeze(xs):
        # Per-position triples; the same expression as h, one branch per cell.
        left = np.asarray(xs, dtype=float) <= 0.0
        c, s, o = (np.where(left, a, b) for a, b in ((cl, cr), (sl, sr), (ol, orr)))
        return lambda u: c * (np.asarray(u, dtype=float) - s) ** 2 + o

    return FluxModel(
        h=h,
        du_h=du_h,
        dx_h=dx_h,
        hetero_radius=float(radius),
        name="two_state",
        params={
            "left_coefficient": cl, "left_shift": sl, "left_offset": ol,
            "right_coefficient": cr, "right_shift": sr, "right_offset": orr,
            "radius": float(radius),
        },
        alpha_hint=lambda x: np.where(np.asarray(x, dtype=float) <= 0.0, sl, sr),
        freeze=freeze,
    )


def heterogeneous_quadratic(
    theta_base: float = 1.0,
    theta_bump: float = 0.5,
    ell_base: float = 0.0,
    ell_bump: float = 0.3,
    g_base: float = 0.0,
    g_bump: float = -0.1,
    radius: float = 1.0,
) -> FluxModel:
    """Smooth heterogeneous flux theta(x) (u - ell(x))^2 + g(x).

    Each coefficient is base + bump_amplitude * B(x / radius) with B the
    C-infinity bump (B(0) = 1, B == 0 outside (-1, 1)), so all x-variation
    lives in [-radius, radius] and vanishes there to all orders.
    """
    X = float(radius)
    if X <= 0:
        raise ConfigError("heterogeneous_quadratic needs radius > 0")
    tb, ta = float(theta_base), float(theta_bump)
    lb, la = float(ell_base), float(ell_bump)
    gb, ga = float(g_base), float(g_bump)
    # B takes values in [0, 1], so theta stays within [min, max] of these two.
    if min(tb, tb + ta) <= 0:
        raise ConfigError("heterogeneous_quadratic needs theta(x) > 0 everywhere")

    def theta(x):
        return tb + ta * bump(np.asarray(x, dtype=float) / X)

    def ell(x):
        return lb + la * bump(np.asarray(x, dtype=float) / X)

    def freeze(xs):
        b = bump(np.asarray(xs, dtype=float) / X)
        th, el, g = tb + ta * b, lb + la * b, gb + ga * b
        return lambda u: th * (np.asarray(u, dtype=float) - el) ** 2 + g

    def h(x, u):
        return freeze(x)(u)

    def du_h(x, u):
        u = np.asarray(u, dtype=float)
        return 2.0 * theta(x) * (u - ell(x))

    def dx_h(x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        bp = bump_prime(x / X) / X
        w = u - ell(x)
        return ta * bp * w**2 - 2.0 * theta(x) * w * (la * bp) + ga * bp

    return FluxModel(
        h=h,
        du_h=du_h,
        dx_h=dx_h,
        hetero_radius=X,
        name="heterogeneous_quadratic",
        params={
            "theta_base": tb, "theta_bump": ta,
            "ell_base": lb, "ell_bump": la,
            "g_base": gb, "g_bump": ga,
            "radius": X,
        },
        alpha_hint=ell,
        freeze=freeze,
    )


def lwr(
    v_left: float = 1.0,
    v_right: float = 0.5,
    rho_left: float = 1.0,
    rho_right: float = 0.8,
    radius: float = 1.0,
) -> FluxModel:
    """Traffic flux V(x) u (1 - u / rho(x)), concave in u.

    Speed limit and jam density transition from their left to right values
    across [-radius, radius] through a C3 smoothstep. The returned model is
    the convex reduction; physical densities map through to_internal.
    """
    X = float(radius)
    if X <= 0:
        raise ConfigError("lwr needs radius > 0")
    v1, v2 = float(v_left), float(v_right)
    r1, r2 = float(rho_left), float(rho_right)
    if min(v1, v2) <= 0 or min(r1, r2) <= 0:
        raise ConfigError("lwr needs positive speeds and densities")

    def vel(x):
        return v1 + (v2 - v1) * smoothstep((np.asarray(x, dtype=float) + X) / (2 * X))

    def rho(x):
        return r1 + (r2 - r1) * smoothstep((np.asarray(x, dtype=float) + X) / (2 * X))

    def vel_prime(x):
        return (v2 - v1) * smoothstep_prime((np.asarray(x, dtype=float) + X) / (2 * X)) / (2 * X)

    def rho_prime(x):
        return (r2 - r1) * smoothstep_prime((np.asarray(x, dtype=float) + X) / (2 * X)) / (2 * X)

    def freeze(xs):
        v, r = vel(xs), rho(xs)

        def flux(u):
            u = np.asarray(u, dtype=float)
            return v * u * (1.0 - u / r)

        return flux

    def h(x, u):
        return freeze(x)(u)

    def du_h(x, u):
        u = np.asarray(u, dtype=float)
        return vel(x) * (1.0 - 2.0 * u / rho(x))

    def dx_h(x, u):
        u = np.asarray(u, dtype=float)
        return vel_prime(x) * u * (1.0 - u / rho(x)) + vel(x) * u**2 * rho_prime(x) / rho(x) ** 2

    return FluxModel.from_concave(
        h=h,
        du_h=du_h,
        dx_h=dx_h,
        hetero_radius=X,
        name="lwr",
        params={
            "v_left": v1, "v_right": v2,
            "rho_left": r1, "rho_right": r2,
            "radius": X,
        },
        crit_hint=lambda x: rho(x) / 2.0,
        freeze=freeze,
    )
