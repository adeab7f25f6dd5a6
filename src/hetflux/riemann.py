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

Waves and breakpoints live in the self-similar variable xi = x / t. Sampling
returns the right limit at exact wave speeds. Jumps of size <= 1e-12 are not
counted as waves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
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


def _classical_waves(flux: FluxSide, u_l: float, u_r: float, side: str) -> list:
    if abs(u_l - u_r) <= ZERO_WAVE:
        return []
    if u_l > u_r:
        sigma = (float(flux.f(u_l)) - float(flux.f(u_r))) / (u_l - u_r)
        return [Wave(KIND_SHOCK, u_l, u_r, sigma, sigma, side)]
    return [
        Wave(
            KIND_RAREFACTION,
            u_l,
            u_r,
            float(flux.df(u_l)),
            float(flux.df(u_r)),
            side,
        )
    ]


def _signed(waves: list, side: str) -> list:
    """Clamp rounding-level speed-sign violations, reject real ones."""
    out = []
    for w in waves:
        if side == SIDE_LEFT:
            if w.speed_max > SPEED_SIGN_TOL:
                raise NumericalError(
                    f"left-going wave with speed {w.speed_max!r}: trace branch selection failed"
                )
            out.append(
                Wave(w.kind, w.left_state, w.right_state,
                     min(w.speed_min, 0.0), min(w.speed_max, 0.0), w.side)
            )
        else:
            if w.speed_min < -SPEED_SIGN_TOL:
                raise NumericalError(
                    f"right-going wave with speed {w.speed_min!r}: trace branch selection failed"
                )
            out.append(
                Wave(w.kind, w.left_state, w.right_state,
                     max(w.speed_min, 0.0), max(w.speed_max, 0.0), w.side)
            )
    return out


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

    left_waves = _signed(_classical_waves(ctx.left, u_l, gl, SIDE_LEFT), SIDE_LEFT)
    right_waves = _signed(_classical_waves(ctx.right, gr, u_r, SIDE_RIGHT), SIDE_RIGHT)
    mid = (
        []
        if abs(gl - gr) <= ZERO_WAVE
        else [Wave(KIND_STATIONARY_JUMP, gl, gr, 0.0, 0.0, SIDE_INTERFACE)]
    )
    waves = tuple(left_waves + mid + right_waves)

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


def _invert_rarefaction(sol: RiemannSolution, w: Wave, xi) -> np.ndarray:
    """States inside the fan w at the self-similar points xi: f'(s) = xi,
    solved from the fan's side alpha, where f' = 0."""
    flux = sol.ctx.right if w.side == SIDE_RIGHT else sol.ctx.left
    xi = np.asarray(xi, dtype=float)
    s = flux.f.du_inverse(xi, flux.alpha)
    check_residual(np.abs(np.asarray(flux.df(s), dtype=float) - xi), TOL_ROOT)
    return s


def sample(sol: RiemannSolution, xi, left_limit: bool = False):
    """Value of the self-similar solution at xi = x / t.

    At exact wave speeds the right limit is returned; left_limit=True flips
    the convention (used for interface traces). Accepts scalars or arrays.
    """
    z = np.asarray(xi, dtype=float)
    flat = z.ravel()
    # Wave speeds are nondecreasing along the solution and a fan ends where
    # the next wave starts, so only the last wave a point has passed can hold
    # that point inside its fan.
    starts = np.array([w.speed_min for w in sol.waves], dtype=float)
    states = np.array([sol.u_left] + [w.right_state for w in sol.waves])
    passed = np.searchsorted(starts, flat, side="left" if left_limit else "right")
    out = states[passed]
    for i, w in enumerate(sol.waves):
        if w.kind != KIND_RAREFACTION:
            continue
        inside = (passed == i + 1) & (
            (flat <= w.speed_max) if left_limit else (flat < w.speed_max)
        )
        if inside.any():
            out[inside] = _invert_rarefaction(sol, w, flat[inside])
    return float(out[0]) if z.ndim == 0 else out.reshape(z.shape)


def wave_census(sol: RiemannSolution) -> dict:
    """Counts per wave kind (zero-size jumps were never added as waves)."""
    counts = {KIND_SHOCK: 0, KIND_RAREFACTION: 0, KIND_STATIONARY_JUMP: 0}
    for w in sol.waves:
        counts[w.kind] += 1
    return counts
