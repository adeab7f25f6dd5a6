"""Exact self-similar solutions of Riemann problems, with and without a flux
discontinuity at x = 0.

Across a flux discontinuity the construction is:

1. compute the interface flux f_int = max{f_l(u_l v a_l), f_r(a_r ^ u_r)};
2. whichever argument of the max achieves it imposes that side's trace at
   x = 0 (ties impose both); the other trace solves f = f_int on the branch
   whose one-sided classical problem moves away from the interface (minus
   branch on the left, plus branch on the right);
3. patch: classical waves with speeds <= 0 on the left, a stationary jump at
   x = 0 whenever the traces differ, classical waves with speeds >= 0 on the
   right. The trace pair always lands in the admissibility germ.

A single convex flux is the case f_l = f_r (solve_classical): the interface
flux is then its Godunov flux and the patch the textbook solution, a shock if
the left datum exceeds the right, a centered rarefaction otherwise, one that
crosses xi = 0 split there into two fans.

Waves and breakpoints live in the self-similar variable xi = x / t. Jumps of
size <= 1e-12 are not counted as waves. pieces is the profile's one
decomposition, into constant intervals and fans in order; sample reads it in
xi (at t = 1), returning the right limit at exact wave speeds, and
diagnostics.riemann_error reads it in x. A fan's states are invert_fan's, on
the side fan_flux picks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .interface import FluxSide, InterfaceContext, classify_germ, require_finite
from .rootfind import TOL_ROOT, check_residual

# Jumps at or below this size are treated as no wave at all.
ZERO_WAVE = 1e-12
# Wave speeds on the wrong side of the interface beyond this signal a failed
# trace-branch selection (root-solver trouble), not rounding.
SPEED_SIGN_TOL = 1e-9

KIND_SHOCK = "shock"
KIND_RAREFACTION = "rarefaction"
KIND_STATIONARY_JUMP = "stationary_jump"

SIDE_LEFT = "left_of_interface"
SIDE_RIGHT = "right_of_interface"
SIDE_INTERFACE = "at_interface"


@dataclass(frozen=True)
class Wave:
    kind: str
    left_state: float
    right_state: float
    speed_min: float
    speed_max: float
    side: str


@dataclass(frozen=True, eq=False)
class RiemannSolution:
    """Self-similar solution: ordered waves plus interface traces.

    trace_left/trace_right are the one-sided limits at x = 0. case_tag is
    one of "I".."IV" (quadrant of the data relative to the critical points)
    or "germ" (datum already an admissible stationary jump); a single-flux
    problem (solve_classical) is tagged the same way, with alpha_l = alpha_r.
    """

    ctx: InterfaceContext
    u_left: float
    u_right: float
    waves: tuple
    trace_left: float
    trace_right: float
    case_tag: str
    interface_flux_value: float


def _wave(flux: FluxSide, u_l: float, u_r: float, side: str) -> tuple:
    """The classical wave from u_l to u_r on one side of the interface, none
    for a jump <= ZERO_WAVE. Its speeds are clamped to that side: a
    rounding-level sign violation is set to 0, a real one raises."""
    if abs(u_l - u_r) <= ZERO_WAVE:
        return ()
    if u_l > u_r:
        kind = KIND_SHOCK
        lo = hi = (float(flux.f(u_l)) - float(flux.f(u_r))) / (u_l - u_r)
    else:
        kind, lo, hi = KIND_RAREFACTION, float(flux.df(u_l)), float(flux.df(u_r))
    if side == SIDE_LEFT:
        if hi > SPEED_SIGN_TOL:
            raise NumericalError(f"left-going wave with speed {hi!r}: trace branch selection failed")
        lo, hi = min(lo, 0.0), min(hi, 0.0)
    else:
        if lo < -SPEED_SIGN_TOL:
            raise NumericalError(f"right-going wave with speed {lo!r}: trace branch selection failed")
        lo, hi = max(lo, 0.0), max(hi, 0.0)
    return (Wave(kind, u_l, u_r, lo, hi, side),)


def solve_classical(flux: FluxSide, u_l: float, u_r: float) -> RiemannSolution:
    """Riemann solution for a single convex flux: the interface problem with
    the same flux on both sides. A fan across xi = 0 comes back as two fans
    meeting there, the left one ending and the right one starting at alpha."""
    return solve_interface(InterfaceContext(left=flux, right=flux), u_l, u_r)


def solve_interface(ctx: InterfaceContext, u_l: float, u_r: float) -> RiemannSolution:
    """Riemann solution across the flux discontinuity with datum (u_l, u_r)."""
    require_finite(u_l=u_l, u_r=u_r)
    u_l, u_r = float(u_l), float(u_r)
    al, ar = ctx.left.alpha, ctx.right.alpha
    A = float(ctx.left.f(max(u_l, al)))
    B = float(ctx.right.f(min(ar, u_r)))
    y = max(A, B)
    tie_tol = 1e-12 * (1.0 + abs(A) + abs(B))
    if abs(A - B) <= tie_tol:
        # Both arguments achieve the max: both traces are imposed and the
        # pair (gl, gr) is already an admissible stationary jump.
        gl, gr = max(u_l, al), min(ar, u_r)
    elif A > B:
        gl = max(u_l, al)
        gr = ctx.right.branch(y, "plus")
    else:
        gr = min(ar, u_r)
        gl = ctx.left.branch(y, "minus")

    mid = () if abs(gl - gr) <= ZERO_WAVE else (
        Wave(KIND_STATIONARY_JUMP, gl, gr, 0.0, 0.0, SIDE_INTERFACE),)
    waves = _wave(ctx.left, u_l, gl, SIDE_LEFT) + mid + _wave(ctx.right, gr, u_r, SIDE_RIGHT)

    if classify_germ(ctx, u_l, u_r).is_member:
        tag = "germ"
    elif u_l <= al:
        tag = "I" if u_r <= ar else "II"
    else:
        tag = "III" if u_r <= ar else "IV"

    return RiemannSolution(
        ctx=ctx,
        u_left=u_l,
        u_right=u_r,
        waves=waves,
        trace_left=gl,
        trace_right=gr,
        case_tag=tag,
        interface_flux_value=y,
    )


def pieces(sol: RiemannSolution, t: float):
    """Decompose the exact profile at time t into intervals.

    Returns a list of (lo, hi, wave_or_none, constant). Constant pieces carry
    the state value; fan pieces carry the rarefaction wave to invert. Wave
    speeds are nondecreasing across the solution, so the intervals tile the
    line in order.
    """
    out = []
    pos = -math.inf
    cur = sol.u_left
    for w in sol.waves:
        lo, hi = w.speed_min * t, w.speed_max * t
        if lo > pos:
            out.append((pos, lo, None, cur))
            pos = lo
        if w.kind == KIND_RAREFACTION and hi > pos:
            out.append((pos, hi, w, 0.0))
            pos = hi
        cur = w.right_state
    out.append((pos, math.inf, None, cur))
    return out


def fan_flux(sol: RiemannSolution, w: Wave) -> FluxSide:
    """The flux whose derivative spans the fan w: the right side's for a fan
    right of the interface, the left side's otherwise."""
    return sol.ctx.right if w.side == SIDE_RIGHT else sol.ctx.left


def invert_fan(sol: RiemannSolution, w: Wave, xi) -> np.ndarray:
    """States inside the fan w at the self-similar points xi: f'(s) = xi,
    solved from the fan's side alpha, where f' = 0."""
    flux = fan_flux(sol, w)
    xi = np.asarray(xi, dtype=float)
    s = flux.f.du_inverse(xi, flux.alpha)
    check_residual(np.abs(np.asarray(flux.df(s), dtype=float) - xi), TOL_ROOT)
    return s


def sample(sol: RiemannSolution, xi, left_limit: bool = False):
    """Value of the self-similar solution at xi = x / t.

    At exact wave speeds the right limit is returned; left_limit=True flips
    the convention (used for interface traces). Accepts scalars or arrays;
    xi = -inf and +inf give the far-field states, a NaN raises ConfigError.
    """
    z = np.asarray(xi, dtype=float)
    flat = z.ravel()
    if np.isnan(flat).any():
        raise ConfigError("Riemann sample points xi = x / t must not be NaN")
    walk = pieces(sol, 1.0)
    ends = np.array([hi for _, hi, _, _ in walk[:-1]], dtype=float)
    at = np.searchsorted(ends, flat, side="left" if left_limit else "right")
    out = np.array([const for _, _, _, const in walk])[at]
    for k, (_, _, w, _) in enumerate(walk):
        if w is not None and (inside := at == k).any():
            out[inside] = invert_fan(sol, w, flat[inside])
    return float(out[0]) if z.ndim == 0 else out.reshape(z.shape)


def wave_census(sol: RiemannSolution) -> dict:
    """Counts per wave kind (zero-size jumps were never added as waves)."""
    counts = {KIND_SHOCK: 0, KIND_RAREFACTION: 0, KIND_STATIONARY_JUMP: 0}
    for w in sol.waves:
        counts[w.kind] += 1
    return counts
