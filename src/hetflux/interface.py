"""Algebra of a flux discontinuity: two convex fluxes meeting at a point.

Everything here is expressed through two one-variable convex fluxes f_l, f_r
(each with its critical point alpha and minimum value), abstracted as the two
sides of an InterfaceContext. The central objects:

* the Godunov flux of one convex flux, in closed form;
* the interface flux max{f_l(u_l v alpha_l), f_r(alpha_r ^ u_r)}, the unique
  monotone flux consistent with the admissible stationary jumps;
* the admissibility germ: state pairs (k_l, k_r) with f_l(k_l) = f_r(k_r)
  that are admissible as stationary jumps, split into three classes by which
  monotone branches carry the states (the fourth branch combination is the
  excluded, entropy-violating one);
* the remainder |f_int - f_l(u_l)| + |f_int - f_r(u_r)|, which vanishes
  exactly on germ pairs and dominates the entropy-flux imbalance otherwise.

Sign convention: sign(0) = 0 throughout (Kruzhkov entropy fluxes).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .flux_model import FluxModel, critical_point, invert_branch
from .rootfind import TOL_ROOT, solve_increasing

# Default state-space tolerance for germ membership checks.
GERM_TOL = 1e-9


class GermClass(enum.Enum):
    G1 = "G1"  # both states on the increasing branches (k_l >= alpha_l)
    G2 = "G2"  # both states on the decreasing branches (k_l <= alpha_l)
    G3 = "G3"  # k_l above alpha_l, k_r below alpha_r (crossing jump)
    NOT_MEMBER = "not_member"

    @property
    def is_member(self) -> bool:
        return self is not GermClass.NOT_MEMBER


@dataclass(frozen=True, eq=False)
class FluxSide:
    """One side of the interface: a convex scalar flux with its minimizer."""

    f: Callable[[float], float]
    df: Callable[[float], float]
    alpha: float
    fmin: float

    @classmethod
    def from_callables(cls, f, df):
        alpha = float(solve_increasing(lambda s: np.asarray(df(s), dtype=float)))
        return cls(f=f, df=df, alpha=alpha, fmin=float(f(alpha)))

    @classmethod
    def from_model(cls, model: FluxModel, x: float):
        a = critical_point(model, x)
        # keep the callables array-safe: interface_flux broadcasts through them
        f = lambda s: np.asarray(model.h(x, s), dtype=float)
        df = lambda s: np.asarray(model.du_h(x, s), dtype=float)
        return cls(f=f, df=df, alpha=a, fmin=float(f(a)))

    def branch(self, y, side: str, tol: float = TOL_ROOT):
        """Inverse of f on the increasing ("plus") or decreasing ("minus") branch,
        with tol as in invert_branch."""
        return invert_branch(self.f, self.df, self.alpha, y, side, tol)


@dataclass(frozen=True, eq=False)
class InterfaceContext:
    """The two fluxes meeting at an interface (left and right sides)."""

    left: FluxSide
    right: FluxSide

    @classmethod
    def from_model(cls, model: FluxModel, x_left: float, x_right: float):
        return cls(
            left=FluxSide.from_model(model, x_left),
            right=FluxSide.from_model(model, x_right),
        )


def require_finite(**named) -> None:
    """Reject NaN/inf states at the API boundary; the lattice max/min below
    silently absorbs NaN otherwise."""
    for name, value in named.items():
        if not np.all(np.isfinite(np.asarray(value, dtype=float))):
            raise ConfigError(f"{name} must be finite, got {value!r}")


def entropy_flux(f: Callable, a, k):
    """Kruzhkov entropy flux sign(a - k) (f(a) - f(k)), with sign(0) = 0."""
    a = np.asarray(a, dtype=float)
    k = np.asarray(k, dtype=float)
    val = np.sign(a - k) * (np.asarray(f(a)) - np.asarray(f(k)))
    return float(val) if val.ndim == 0 else val


def godunov_flux(f: Callable, alpha: float, a, b):
    """Godunov numerical flux of a convex flux: max{f(max(a, alpha)), f(min(alpha, b))}."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    val = np.maximum(
        np.asarray(f(np.maximum(a, alpha))), np.asarray(f(np.minimum(alpha, b)))
    )
    return float(val) if val.ndim == 0 else val


def interface_flux(ctx: InterfaceContext, u_l, u_r):
    """Flux transmitted across the interface: max{f_l(u_l v a_l), f_r(a_r ^ u_r)}."""
    require_finite(u_l=u_l, u_r=u_r)
    u_l = np.asarray(u_l, dtype=float)
    u_r = np.asarray(u_r, dtype=float)
    val = np.maximum(
        np.asarray(ctx.left.f(np.maximum(u_l, ctx.left.alpha))),
        np.asarray(ctx.right.f(np.minimum(ctx.right.alpha, u_r))),
    )
    return float(val) if val.ndim == 0 else val


def remainder(ctx: InterfaceContext, u_l, u_r):
    """|f_int - f_l(u_l)| + |f_int - f_r(u_r)|; zero exactly on germ pairs."""
    fint = interface_flux(ctx, u_l, u_r)
    val = np.abs(fint - np.asarray(ctx.left.f(np.asarray(u_l, dtype=float)))) + np.abs(
        fint - np.asarray(ctx.right.f(np.asarray(u_r, dtype=float)))
    )
    return float(val) if np.asarray(val).ndim == 0 else val


def interface_flux_profile(model, x_left, x_right, alpha_left, alpha_right, u_left, u_right):
    """Vectorized interface flux across many edges at once.

    Every argument is an array over edges: positions and critical points of
    the adjacent cells, then the adjacent states. Same composition as
    interface_flux, with each cell's flux frozen at its center.
    """
    return np.maximum(
        np.asarray(model.h(x_left, np.maximum(u_left, alpha_left)), dtype=float),
        np.asarray(model.h(x_right, np.minimum(alpha_right, u_right)), dtype=float),
    )


def classify_germ(
    ctx: InterfaceContext, k_l: float, k_r: float, tol: float = GERM_TOL
) -> GermClass:
    """Membership tag of a candidate stationary jump (k_l, k_r).

    Root-free formulation: flux equality f_l(k_l) = f_r(k_r) plus an
    admissible branch combination,
      G1: k_l >= alpha_l and k_r >= alpha_r (both increasing branches)
      G2: k_l <= alpha_l and k_r <= alpha_r (both decreasing branches)
      G3: k_l >  alpha_l and k_r <  alpha_r (crossing jump)
    The fourth combination (k_l < alpha_l with k_r above alpha_r) is the
    excluded, entropy-violating branch and classifies as NOT_MEMBER.

    Equivalent to matching k_r against the branch inverses S_r^+/-(f_l(k_l)),
    but the side comparisons stay well conditioned near the critical points,
    where the inverses degenerate like a square root of the flux level.
    `tol` applies to the side tests in state units and to flux equality
    relative to the flux magnitudes.
    """
    require_finite(k_l=k_l, k_r=k_r)
    al, ar = ctx.left.alpha, ctx.right.alpha
    y_l = float(ctx.left.f(k_l))
    y_r = float(ctx.right.f(k_r))
    if abs(y_l - y_r) > tol * (1.0 + abs(y_l) + abs(y_r)):
        return GermClass.NOT_MEMBER
    if k_l >= al - tol and k_r >= ar - tol:
        return GermClass.G1
    if k_l <= al + tol and k_r <= ar + tol:
        return GermClass.G2
    if k_l > al and k_r < ar:
        return GermClass.G3
    return GermClass.NOT_MEMBER


def germ_pair(ctx: InterfaceContext, level: float, which: str) -> tuple[float, float]:
    """Construct a germ pair (or the excluded fourth branch) at a flux level.

    `level` must be >= both flux minima. which in {"G1", "G2", "G3",
    "excluded"}; "excluded" returns the inadmissible branch combination used
    by maximality tests.
    """
    require_finite(level=level)
    if which == "G1":
        return ctx.left.branch(level, "plus"), ctx.right.branch(level, "plus")
    if which == "G2":
        return ctx.left.branch(level, "minus"), ctx.right.branch(level, "minus")
    if which == "G3":
        return ctx.left.branch(level, "plus"), ctx.right.branch(level, "minus")
    if which == "excluded":
        return ctx.left.branch(level, "minus"), ctx.right.branch(level, "plus")
    raise ValueError(f"unknown germ branch {which!r}")


def dissipativity_gap(
    ctx: InterfaceContext, u: tuple[float, float], k: tuple[float, float]
) -> float:
    """Phi_l(u_l, k_l) - Phi_r(u_r, k_r) for two stationary jumps.

    Nonnegative whenever both pairs are germ members (the L1-dissipativity
    inequality); callers are expected to have classified the pairs.
    """
    u_l, u_r = u
    k_l, k_r = k
    require_finite(u_l=u_l, u_r=u_r, k_l=k_l, k_r=k_r)
    return float(
        entropy_flux(ctx.left.f, u_l, k_l) - entropy_flux(ctx.right.f, u_r, k_r)
    )
