"""Discrete steady states of the interface-flux scheme, and the invariant
envelope built from them.

A steady sequence holds one flux level across the whole mesh: every cell
carries the branch inverse of that level at its own position, upper branch
(values >= alpha) or lower branch (values <= alpha). Anchoring from the left
means the level is H(-X, c) so the sequence equals the anchor constant c on
the left exterior; from the right uses H(+X, c). Adjacent cells then form
admissible stationary jumps and the interface fluxes telescope, making the
sequence an exact fixed point of the scheme.

The envelope takes datum bounds [m, M], widens them to contain the critical
range, and builds a lower and an upper steady state sandwiching every datum,
plus outer constants (u_lower, u_upper) bounding those states in turn. By the
comparison principle the scheme then never leaves [u_lower, u_upper], where
L, the sup of |du_h|, bounds every wave speed. The envelope keeps m and M,
and computes the constants, L and the two states (the states need a mesh)
on first access.

The bracket of given cell states is the tightest such pair for those states
alone, with the least flux levels that sandwich them; run() takes its CFL
step from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, NumericalError
from .flux_model import FluxModel, distinct_span, ghost_cells, invert_branch, lipschitz_bound


@dataclass(frozen=True, eq=False)
class SteadyState:
    """Cellwise steady sequence on a mesh (interior cells only).

    The solver's ghost cells copy the boundary cells, flux included, so
    they continue it on any window.
    """

    values: np.ndarray
    flux_level: float
    bound: float  # max of values (upper branch) or min (lower)


def _steady(fs, alpha, spread, levels, signs) -> list[SteadyState]:
    """The steady states of flux levels, each on the branch of its sign (+1
    upper, -1 lower): the branch inverses of the levels under fs, the flux
    frozen on distinct_span, with minimizers alpha there, in one
    invert_branch call, spread to every cell."""
    levels, signs = np.asarray(levels, dtype=float), np.asarray(signs, dtype=float)
    values = spread(invert_branch(fs, alpha, levels[:, None], signs[:, None]))
    return [SteadyState(values=v, flux_level=float(level),
                        bound=float(np.max(v) if sign > 0 else np.min(v)))
            for v, level, sign in zip(values, levels, signs)]


def build_steady(
    model: FluxModel,
    mesh,
    anchor: float,
    direction: str = "from_left",
    branch: str = "upper",
) -> SteadyState:
    """Steady sequence anchored at the constant `anchor` on one exterior side.

    Preconditions: anchor >= sup alpha for the upper branch, <= inf alpha for
    the lower. Root failures (flux level below some cell's minimum) propagate
    as NumericalError. The ConfigErrors give their numbers in physical units
    (FluxModel.to_physical), so they name no internal branch or direction.
    """
    if mesh is None:
        raise ConfigError("steady states need a mesh, and none was given")
    if direction not in ("from_left", "from_right"):
        raise ConfigError(f"direction must be from_left/from_right, got {direction!r}")
    if branch not in ("upper", "lower"):
        raise ConfigError(f"branch must be upper/lower, got {branch!r}")
    curve = model.curve
    anchor = float(anchor)
    slack = 1e-12 * (1.0 + abs(curve.alpha_max) + abs(curve.alpha_min))
    edge = curve.alpha_max if branch == "upper" else curve.alpha_min
    if (anchor < edge - slack) if branch == "upper" else (anchor > edge + slack):
        lo, hi, a, e = (float(model.to_physical(v))
                        for v in (curve.alpha_min, curve.alpha_max, anchor, edge))
        raise ConfigError(f"anchor {a} lies off the requested branch, which ends at "
                          f"the critical state {e} (critical range {sorted((lo, hi))})")
    X = model.hetero_radius
    anchor_x = -X if direction == "from_left" else X
    level = float(model.h(anchor_x, anchor))
    # Feasibility: one flux level must be invertible at every position, so a
    # level below the largest minimum means the anchored throughput exceeds
    # some bottleneck.
    if level < curve.floor - 1e-10 * (1.0 + abs(curve.floor)):
        a, y, floor = (float(model.to_physical(v)) for v in (anchor, level, curve.floor))
        raise ConfigError(
            f"anchor {a:g} carries flux level {y:g}, past the critical flux {floor:g} "
            "of the tightest bottleneck; no steady state holds that level across "
            "the whole domain"
        )
    xc_ext, al_ext, f = ghost_cells(model, mesh)
    span, spread = distinct_span(model, xc_ext[1:-1])
    return _steady(f.at(slice(1, -1)).at(span), al_ext[1:-1][span], spread, [level],
                   [1.0 if branch == "upper" else -1.0])[0]


def bracket(model: FluxModel, mesh, u) -> tuple[SteadyState, SteadyState]:
    """The greatest lower and the least upper steady state around cell states u.

    The upper level is y+ = max(max_j H(x_j, max(u_j, alpha_j)), max_x
    H(x, alpha(x))), and y- is the same with min(u_j, alpha_j); the states
    are the branch inverses of these levels at the cell centers (solved on
    distinct_span), on the upper and the lower branch. Each cell then has
    lower_j <= min(u_j, alpha_j) and max(u_j, alpha_j) <= upper_j (up to the
    root solve's rounding), and no steady state of either branch with a level
    nearer to the data sandwiches u. Both are fixed points of the scheme.
    u may stack several states along leading axes; the levels then hold
    them all. A level that overflows raises NumericalError naming the data
    level that carries it, the lower branch's first.

    Both levels come from one flux call on the two clamped copies of u, and
    both states from one invert_branch call with the levels and their
    signs stacked: a generic flux then pays one root solve, not two. Every
    element is its own problem of that solve (see rootfind), so each state
    has the bits it has when built alone.
    """
    xc_ext, al_ext, f = ghost_cells(model, mesh)
    span, spread = distinct_span(model, xc_ext[1:-1])
    al, f = al_ext[1:-1], f.at(slice(1, -1))
    fu = f(np.stack((np.minimum(u, al), np.maximum(u, al)))).reshape(2, -1)
    levels = np.max(fu, axis=1)
    for row, level in zip(fu, levels):
        if not np.isfinite(level):
            j = int(np.argmin(np.isfinite(row)))
            raise NumericalError(f"steady bracket: the flux of the data level "
                                 f"{float(model.to_physical(np.ravel(u)[j])):g} overflows")
    levels = np.maximum(levels, model.curve.floor)
    return tuple(_steady(f.at(span), al[span], spread, levels, (-1.0, 1.0)))


@dataclass(frozen=True, eq=False)
class Envelope:
    """Invariant-region data for datum bounds [m, M] (widened to the
    critical range). All else is derived on first read and then kept: the
    anchors and the certified constants, L over those and, on a mesh, the
    two steady states between them. run() reads none of it.

    With s1 the Legendre sup at slope 1, the upper anchor is
    max_x H(x, M) + s1 and the certified upper constant H(-X, anchor) + s1,
    above the upper state; mirrored with signs flipped below. Both anchors
    provably clear the critical range, so the steady states built from them
    always exist. H is model.curve.flux, the flux the model keeps frozen at
    xs (xs[0] = -X)."""

    model: FluxModel
    mesh: object  # None when only the constants are wanted
    m: float
    M: float

    @cached_property
    def lower_anchor(self) -> float:
        return -float(np.max(self.model.curve.flux(self.m))) - self.model.legendre_sup_1

    @cached_property
    def upper_anchor(self) -> float:
        return float(np.max(self.model.curve.flux(self.M))) + self.model.legendre_sup_1

    @cached_property
    def lower_bound(self) -> float:
        return -float(self.model.curve.flux.at(0)(self.lower_anchor)) - self.model.legendre_sup_1

    @cached_property
    def upper_bound(self) -> float:
        return float(self.model.curve.flux.at(0)(self.upper_anchor)) + self.model.legendre_sup_1

    @cached_property
    def lipschitz(self) -> float:
        """L, the sup of |du_h| over [lower_bound, upper_bound]: every
        state of a run stays there, so L bounds its wave speeds."""
        return lipschitz_bound(self.model, self.lower_bound, self.upper_bound)

    @cached_property
    def lower_state(self) -> SteadyState:
        return build_steady(self.model, self.mesh, self.lower_anchor, "from_left", "lower")

    @cached_property
    def upper_state(self) -> SteadyState:
        return build_steady(self.model, self.mesh, self.upper_anchor, "from_left", "upper")


def envelope(model: FluxModel, mesh, m: float, M: float) -> Envelope:
    """The Envelope of all data in [m, M] on mesh; with mesh None, before
    any mesh is chosen, it has its constants and L but no states."""
    if not (m <= M):
        raise ConfigError(f"datum bounds out of order: m={m}, M={M}")
    c = model.curve
    return Envelope(model, mesh, min(float(m), c.alpha_min), max(float(M), c.alpha_max))
