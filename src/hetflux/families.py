"""Built-in flux families.

Every family is one quadratic form in solver coordinates,

    H(x, u) = a(x) (u - b(x))^2 + c(x),   a > 0,

so each declares only its coefficient profiles x -> (a, b, c) and their
x-derivatives; _quadratic_form derives h, du_h, dx_h, the freeze hook and the
critical curve alpha = b from them once. The frozen flux forms
a (u - b)^2 + c in place, in the caller's out= buffer or in one it
allocates, so the step kernel allocates nothing for it; its du slope
2 a (u - b) uses the same frozen coefficients, and at(index) slices them,
so the step kernel evaluates any range of cells of one frozen table. The four
constructors, each returning a FluxModel:

* quadratic: homogeneous c (u - s)^2 + o, so (a, b, c) = (c, s, o). Covers
  the classic u^2/2 and u^2.
* two_state: one flux for x <= 0, another for x > 0 (both shifted quadratics),
  so (a, b, c) jumps from (c_l, s_l, o_l) to (c_r, s_r, o_r) at the origin.
  The model is not smooth in x (dx_h is zero away from the jump); it exists
  to reproduce two-flux interface problems exactly.
* heterogeneous_quadratic: (a, b, c) = (theta(x), ell(x), g(x)), each a base
  value plus a C-infinity bump perturbation supported in [-X, X]. The
  critical curve is ell(x), the pointwise minimum is g(x).
* lwr: road-traffic flux V(x) rho (1 - rho / R(x)), concave in rho, with C3
  smoothstep transitions of speed limit V and jam density R across [-X, X].
  In solver coordinates u = -rho (orientation "concave") it is convex, with
  (a, b, c) = (V / R, -R / 2, -V R / 4); use to_internal/to_physical at the
  data boundary.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .flux_model import FluxModel
from .profiles import bump, bump_prime, smoothstep, smoothstep_prime


def _quadratic_form(coefficients, slopes, **fields) -> FluxModel:
    """FluxModel of a(x) (u - b(x))^2 + c(x).

    coefficients: x -> (a, b, c); slopes: x -> (a', b', c'), the x-derivatives.
    Both take a float array and return values that broadcast against it.
    fields are passed on to FluxModel (hetero_radius, name, params, ...).
    """

    def freeze(xs):
        return _frozen_form(*coefficients(np.asarray(xs, dtype=float)))

    def h(x, u):
        return freeze(x)(u)

    def du_h(x, u):
        return freeze(x).du(u)

    def dx_h(x, u):
        x = np.asarray(x, dtype=float)
        a, b, _ = coefficients(x)
        a1, b1, c1 = slopes(x)
        w = np.asarray(u, dtype=float) - b
        return a1 * w**2 - 2.0 * a * w * b1 + c1

    def alpha_hint(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(coefficients(x)[1], x.shape)

    return FluxModel(h=h, du_h=du_h, dx_h=dx_h, alpha_hint=alpha_hint, freeze=freeze, **fields)


def _frozen_form(a, b, c):
    """a (u - b)^2 + c with frozen coefficients; at(index) slices them."""

    def frozen(u, out=None):
        if out is None:
            out = np.empty(np.broadcast(u, a, b, c).shape)
        np.square(np.subtract(u, b, out=out), out=out)
        np.multiply(a, out, out=out)
        return np.add(out, c, out=out)

    frozen.du = lambda u: 2.0 * a * (np.asarray(u, dtype=float) - b)
    # A coefficient constant in x is a scalar and stays one.
    frozen.at = lambda i: _frozen_form(*[z[i] if isinstance(z, np.ndarray) else z
                                         for z in (a, b, c)])
    return frozen


def _flat(x):
    return 0.0, 0.0, 0.0


def quadratic(coefficient: float = 0.5, shift: float = 0.0, offset: float = 0.0) -> FluxModel:
    """Homogeneous convex flux c (u - s)^2 + o, c > 0."""
    c, s, o = float(coefficient), float(shift), float(offset)
    if c <= 0:
        raise ConfigError(f"quadratic family needs coefficient > 0, got {c}")
    return _quadratic_form(
        lambda x: (c, s, o),
        _flat,
        hetero_radius=0.0,
        name="quadratic",
        params={"coefficient": c, "shift": s, "offset": o},
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

    def coefficients(x):
        left = x <= 0.0
        return tuple(np.where(left, l, r) for l, r in ((cl, cr), (sl, sr), (ol, orr)))

    return _quadratic_form(
        coefficients,
        _flat,
        hetero_radius=float(radius),
        name="two_state",
        params={
            "left_coefficient": cl, "left_shift": sl, "left_offset": ol,
            "right_coefficient": cr, "right_shift": sr, "right_offset": orr,
            "radius": float(radius),
        },
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

    def coefficients(x):
        b = bump(x / X)
        return tb + ta * b, lb + la * b, gb + ga * b

    def slopes(x):
        bp = bump_prime(x / X) / X
        return ta * bp, la * bp, ga * bp

    return _quadratic_form(
        coefficients,
        slopes,
        hetero_radius=X,
        name="heterogeneous_quadratic",
        params={
            "theta_base": tb, "theta_bump": ta,
            "ell_base": lb, "ell_bump": la,
            "g_base": gb, "g_bump": ga,
            "radius": X,
        },
    )


def lwr(
    v_left: float = 1.0,
    v_right: float = 0.5,
    rho_left: float = 1.0,
    rho_right: float = 0.8,
    radius: float = 1.0,
) -> FluxModel:
    """Traffic flux V(x) rho (1 - rho / R(x)), concave in rho.

    Speed limit V and jam density R transition from their left to right
    values across [-radius, radius] through a C3 smoothstep. The returned
    model acts on u = -rho, where the flux is the convex
    (V / R) (u + R / 2)^2 - V R / 4; physical densities map through
    to_internal.
    """
    X = float(radius)
    if X <= 0:
        raise ConfigError("lwr needs radius > 0")
    v1, v2 = float(v_left), float(v_right)
    r1, r2 = float(rho_left), float(rho_right)
    if min(v1, v2) <= 0 or min(r1, r2) <= 0:
        raise ConfigError("lwr needs positive speeds and densities")

    def coefficients(x):
        s = smoothstep((x + X) / (2 * X))
        v, r = v1 + (v2 - v1) * s, r1 + (r2 - r1) * s
        return v / r, -0.5 * r, -0.25 * v * r

    def slopes(x):
        s = smoothstep((x + X) / (2 * X))
        sp = smoothstep_prime((x + X) / (2 * X)) / (2 * X)
        v, r = v1 + (v2 - v1) * s, r1 + (r2 - r1) * s
        dv, dr = (v2 - v1) * sp, (r2 - r1) * sp
        return (dv * r - v * dr) / r**2, -0.5 * dr, -0.25 * (dv * r + v * dr)

    return _quadratic_form(
        coefficients,
        slopes,
        hetero_radius=X,
        orientation="concave",
        name="lwr",
        params={
            "v_left": v1, "v_right": v2,
            "rho_left": r1, "rho_right": r2,
            "radius": X,
        },
    )
