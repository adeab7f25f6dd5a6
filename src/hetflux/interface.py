"""Algebra of a flux discontinuity: two convex fluxes meeting at a point.

Everything here is expressed through two one-variable convex fluxes f_l, f_r
(each with its critical point alpha and minimum value), abstracted as the two
sides of an InterfaceContext. The central objects:

* the interface flux max{f_l(u_l v alpha_l), f_r(alpha_r ^ u_r)}, the unique
  monotone flux consistent with the admissible stationary jumps; with the
  same flux on both sides it is that flux's Godunov flux;
* the admissibility germ: state pairs (k_l, k_r) with f_l(k_l) = f_r(k_r)
  that are admissible as stationary jumps, split into three classes by which
  monotone branches carry the states (the fourth branch combination is the
  excluded, entropy-violating one);
* the remainder |f_int - f_l(u_l)| + |f_int - f_r(u_r)|, which vanishes
  exactly on germ pairs and dominates the entropy-flux imbalance otherwise.

Every function is elementwise: states broadcast against each other and
against the context, and a context built from arrays of positions holds
arrays alpha and fmin, one interface per element (say, every edge of a
mesh). Scalar inputs give a float (a GermClass from classify_germ), array
inputs an array (an object array of GermClass members).

Sign convention: sign(0) = 0 throughout (Kruzhkov entropy fluxes).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .flux_model import FluxModel, critical_point, frozen_flux, invert_branch

# State-space tolerance of germ membership checks.
GERM_TOL = 1e-9


class GermClass(enum.Enum):
    G1 = "G1"  # both states on the increasing branches (k_l >= alpha_l)
    G2 = "G2"  # both states on the decreasing branches (k_l <= alpha_l)
    G3 = "G3"  # k_l above alpha_l, k_r below alpha_r (crossing jump)
    NOT_MEMBER = "not_member"

    @property
    def is_member(self) -> bool:
        return self is not GermClass.NOT_MEMBER


# classify_germ's tags by code: its tests in order, 0 when none passes.
_TAGS = np.array([GermClass.NOT_MEMBER, GermClass.G1, GermClass.G2, GermClass.G3])


def _scalar_or_array(val):
    val = np.asarray(val)
    return float(val) if val.ndim == 0 else val


@dataclass(frozen=True, eq=False)
class FluxSide:
    """One side of the interface: a convex scalar flux with its minimizer.

    f and df broadcast over states; alpha and fmin are floats, or arrays
    with one element per interface."""

    f: Callable
    df: Callable
    alpha: float | np.ndarray
    fmin: float | np.ndarray

    @classmethod
    def from_model(cls, model: FluxModel, x):
        """H(x, .) frozen at a position x, or at each of an array of them."""
        a, f = critical_point(model, x), frozen_flux(model, x)
        return cls(f=f, df=f.du, alpha=a, fmin=_scalar_or_array(f(a)))

    def branch(self, y, side: str):
        """Inverse of f on the increasing ("plus") or decreasing ("minus")
        branch, elementwise as in invert_branch."""
        return invert_branch(self.f, self.df, self.alpha, y, side)


@dataclass(frozen=True, eq=False)
class InterfaceContext:
    """The two fluxes meeting at an interface (left and right sides)."""

    left: FluxSide
    right: FluxSide

    @classmethod
    def from_model(cls, model: FluxModel, x_left, x_right):
        """Interfaces between H(x_left, .) and H(x_right, .), elementwise."""
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
    return _scalar_or_array(np.sign(a - k) * (np.asarray(f(a)) - np.asarray(f(k))))


def interface_flux(ctx: InterfaceContext, u_l, u_r):
    """Flux transmitted across the interface: max{f_l(u_l v a_l), f_r(a_r ^ u_r)}."""
    require_finite(u_l=u_l, u_r=u_r)
    u_l = np.asarray(u_l, dtype=float)
    u_r = np.asarray(u_r, dtype=float)
    return _scalar_or_array(np.maximum(
        np.asarray(ctx.left.f(np.maximum(u_l, ctx.left.alpha))),
        np.asarray(ctx.right.f(np.minimum(ctx.right.alpha, u_r))),
    ))


def remainder(ctx: InterfaceContext, u_l, u_r):
    """|f_int - f_l(u_l)| + |f_int - f_r(u_r)|; zero exactly on germ pairs."""
    fint = interface_flux(ctx, u_l, u_r)
    return _scalar_or_array(
        np.abs(fint - np.asarray(ctx.left.f(np.asarray(u_l, dtype=float))))
        + np.abs(fint - np.asarray(ctx.right.f(np.asarray(u_r, dtype=float))))
    )


def classify_germ(ctx: InterfaceContext, k_l, k_r):
    """Membership tag of a candidate stationary jump (k_l, k_r), elementwise.

    Root-free formulation: flux equality f_l(k_l) = f_r(k_r) plus an
    admissible branch combination,
      G1: k_l >= alpha_l and k_r >= alpha_r (both increasing branches)
      G2: k_l <= alpha_l and k_r <= alpha_r (both decreasing branches)
      G3: k_l >  alpha_l and k_r <  alpha_r (crossing jump)
    tested in this order. The fourth combination (k_l < alpha_l with k_r
    above alpha_r) is the excluded, entropy-violating branch and classifies
    as NOT_MEMBER.

    Equivalent to matching k_r against the branch inverses S_r^+/-(f_l(k_l)),
    but the side comparisons stay well conditioned near the critical points,
    where the inverses degenerate like a square root of the flux level.
    GERM_TOL applies to the side tests in state units and to flux equality
    relative to the flux magnitudes. Returns a GermClass for scalar inputs,
    an object array of them otherwise.
    """
    require_finite(k_l=k_l, k_r=k_r)
    k_l, k_r = np.asarray(k_l, dtype=float), np.asarray(k_r, dtype=float)
    al, ar, tol = ctx.left.alpha, ctx.right.alpha, GERM_TOL
    y_l, y_r = np.asarray(ctx.left.f(k_l)), np.asarray(ctx.right.f(k_r))
    code = np.select([
        np.abs(y_l - y_r) > tol * (1.0 + np.abs(y_l) + np.abs(y_r)),
        (k_l >= al - tol) & (k_r >= ar - tol),
        (k_l <= al + tol) & (k_r <= ar + tol),
        (k_l > al) & (k_r < ar),
    ], [0, 1, 2, 3])
    return _TAGS[code]


def germ_pair(ctx: InterfaceContext, level, which: str):
    """Construct germ pairs (or the excluded fourth branch) at flux levels.

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


def dissipativity_gap(ctx: InterfaceContext, u, k):
    """Phi_l(u_l, k_l) - Phi_r(u_r, k_r) for stationary jumps u = (u_l, u_r)
    and k = (k_l, k_r), elementwise.

    Nonnegative whenever both pairs are germ members (the L1-dissipativity
    inequality); callers are expected to have classified the pairs.
    """
    u_l, u_r = u
    k_l, k_r = k
    require_finite(u_l=u_l, u_r=u_r, k_l=k_l, k_r=k_r)
    return _scalar_or_array(
        entropy_flux(ctx.left.f, u_l, k_l) - entropy_flux(ctx.right.f, u_r, k_r)
    )
