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
comparison principle the scheme then never leaves [u_lower, u_upper]. The
constants are computed at once, the two states on first access.

The bracket of given cell states is the tightest such pair for those states
alone, with the least flux levels that sandwich them; run() takes its CFL
step from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .flux_model import FluxModel, branch_inverse, frozen_flux, ghost_alphas, invert_branch


@dataclass(frozen=True, eq=False)
class SteadyState:
    """Cellwise steady sequence on a mesh (interior cells only).

    The anchor constant extends to ghost cells implicitly: the solver pads
    by edge replication and the sequence is constant outside [-X, X].
    """

    values: np.ndarray
    flux_level: float
    orientation: str  # "upper" (values >= alpha) or "lower"
    anchor: float
    direction: str  # "from_left" or "from_right"
    bound: float  # max of values (upper) or min (lower)


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
    as NumericalError.
    """
    if direction not in ("from_left", "from_right"):
        raise ConfigError(f"direction must be from_left/from_right, got {direction!r}")
    if branch not in ("upper", "lower"):
        raise ConfigError(f"branch must be upper/lower, got {branch!r}")
    curve = model.curve
    anchor = float(anchor)
    slack = 1e-12 * (1.0 + abs(curve.alpha_max) + abs(curve.alpha_min))
    if branch == "upper" and anchor < curve.alpha_max - slack:
        raise ConfigError(
            f"upper-branch anchor {anchor} below sup alpha = {curve.alpha_max}"
        )
    if branch == "lower" and anchor > curve.alpha_min + slack:
        raise ConfigError(
            f"lower-branch anchor {anchor} above inf alpha = {curve.alpha_min}"
        )
    X = model.hetero_radius
    anchor_x = -X if direction == "from_left" else X
    level = float(model.h(anchor_x, anchor))
    # Feasibility: one flux level must be invertible at every position, so a
    # level below the largest minimum means the anchored throughput exceeds
    # some bottleneck.
    hmin_max = _largest_minimum(model)
    if level < hmin_max - 1e-10 * (1.0 + abs(hmin_max)):
        raise ConfigError(
            f"anchor {anchor:g} carries flux level {level:g}, below the "
            f"largest critical flux {hmin_max:g}; no steady state holds that "
            "level across the whole domain"
        )
    xc_ext, al_ext = ghost_alphas(model, mesh)
    side = "plus" if branch == "upper" else "minus"
    values = branch_inverse(model, xc_ext[1:-1], level, side, alpha=al_ext[1:-1])
    bound = float(np.max(values)) if branch == "upper" else float(np.min(values))
    return SteadyState(
        values=values,
        flux_level=level,
        orientation=branch,
        anchor=anchor,
        direction=direction,
        bound=bound,
    )


def _largest_minimum(model: FluxModel) -> float:
    """max_x H(x, alpha(x)), the lowest level every position can carry, over
    the critical-curve grid."""
    curve = model.curve
    return float(np.max(np.asarray(model.h(curve.xs, curve.alphas), dtype=float)))


def bracket(model: FluxModel, mesh, u) -> tuple[SteadyState, SteadyState]:
    """The greatest lower and the least upper steady state around cell states u.

    The upper level is y+ = max(max_j H(x_j, max(u_j, alpha_j)), max_x
    H(x, alpha(x))), and y- is the same with min(u_j, alpha_j); the states
    are the branch inverses of these levels at the cell centers, on the upper
    and the lower branch. Each cell then has lower_j <= min(u_j, alpha_j) and
    max(u_j, alpha_j) <= upper_j (up to the root solve's rounding), and no
    steady state of either branch with a level nearer to the data sandwiches
    u. Both are fixed points of the scheme while the boundary cells carry
    the flux of their ghosts; anchor is the value of the first cell, the
    left exterior constant when that cell lies outside [-X, X].
    """
    xc_ext, al_ext = ghost_alphas(model, mesh)
    xc, al = xc_ext[1:-1], al_ext[1:-1]
    f = frozen_flux(model, xc)
    floor = _largest_minimum(model)
    states = []
    for branch, side, clamp, extreme in (("lower", "minus", np.minimum, np.min),
                                         ("upper", "plus", np.maximum, np.max)):
        level = max(float(np.max(f(clamp(u, al)))), floor)
        values = invert_branch(f, f.du, al, level, side)
        states.append(SteadyState(values=values, flux_level=level, orientation=branch,
                                  anchor=float(values[0]), direction="from_left",
                                  bound=float(extreme(values))))
    return states[0], states[1]


@dataclass(frozen=True)
class EnvelopeConstants:
    """Mesh-independent part of the envelope: widened bounds, anchors, constants."""

    m: float
    M: float
    legendre_sup_1: float
    lower_anchor: float
    upper_anchor: float
    lower_bound: float  # certified constant below the lower state
    upper_bound: float  # certified constant above the upper state


@dataclass(frozen=True, eq=False)
class Envelope(EnvelopeConstants):
    """Invariant-region data for datum bounds [m, M] (possibly widened) on a
    mesh: the constants, and the two steady states between them. Each state
    is built on first access and then kept; a run reads none of them."""

    model: FluxModel
    mesh: object

    @cached_property
    def lower_state(self) -> SteadyState:
        return build_steady(self.model, self.mesh, self.lower_anchor, "from_left", "lower")

    @cached_property
    def upper_state(self) -> SteadyState:
        return build_steady(self.model, self.mesh, self.upper_anchor, "from_left", "upper")


def envelope_constants(
    model: FluxModel,
    m: float,
    M: float,
) -> EnvelopeConstants:
    """Certified state bounds for data in [m, M], before any mesh is chosen.

    With s1 the Legendre sup at slope 1, the upper anchor is
    max_x H(x, M) + s1 and the certified upper constant H(-X, anchor) + s1;
    mirrored with signs flipped below. Both anchors provably clear the
    critical range, so the steady states built from them always exist.
    """
    if not (m <= M):
        raise ConfigError(f"datum bounds out of order: m={m}, M={M}")
    curve = model.curve
    m = min(float(m), curve.alpha_min)
    M = max(float(M), curve.alpha_max)
    xs = curve.xs
    s1 = model.legendre_sup_1
    upper_anchor = float(np.max(np.asarray(model.h(xs, M), dtype=float))) + s1
    lower_anchor = -float(np.max(np.asarray(model.h(xs, m), dtype=float))) - s1
    X = model.hetero_radius
    return EnvelopeConstants(
        m=m,
        M=M,
        legendre_sup_1=s1,
        lower_anchor=lower_anchor,
        upper_anchor=upper_anchor,
        lower_bound=-float(model.h(-X, lower_anchor)) - s1,
        upper_bound=float(model.h(-X, upper_anchor)) + s1,
    )


def envelope(
    model: FluxModel,
    mesh,
    m: float,
    M: float,
) -> Envelope:
    """Lower/upper steady states enclosing all data in [m, M], plus constants.

    The constants are computed here, each state on its first access."""
    return Envelope(**vars(envelope_constants(model, m, M)), model=model, mesh=mesh)


def steady_residual(state: SteadyState, model: FluxModel, mesh) -> float:
    """Max interface-flux imbalance of the sequence (0 for an exact fixed point)."""
    from .solver import Scheme  # solver imports this module

    F = Scheme(model, mesh, lipschitz=1.0).edge_fluxes(state.values)
    return float(np.max(np.abs(np.diff(F))))
