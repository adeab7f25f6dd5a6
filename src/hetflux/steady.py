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
comparison principle the scheme then never leaves [u_lower, u_upper].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .flux_model import (
    CriticalCurve,
    FluxModel,
    branch_inverses,
    critical_points,
    legendre_sup,
)


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
    curve: CriticalCurve | None = None,
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
    if curve is None:
        curve = CriticalCurve.build(model)
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
    # Feasibility: one flux level must be invertible at every position. The
    # critical-curve grid carries the running minimum of H, so a level below
    # its maximum means the anchored throughput exceeds some bottleneck.
    hmin_max = float(np.max(np.asarray(model.h(curve.xs, curve.alphas), dtype=float)))
    if level < hmin_max - 1e-10 * (1.0 + abs(hmin_max)):
        raise ConfigError(
            f"anchor {anchor:g} carries flux level {level:g}, below the "
            f"largest critical flux {hmin_max:g}; no steady state holds that "
            "level across the whole domain"
        )
    centers = mesh.centers()
    alphas = critical_points(model, centers)
    side = "plus" if branch == "upper" else "minus"
    values = branch_inverses(model, centers, level, side, alphas=alphas)
    bound = float(np.max(values)) if branch == "upper" else float(np.min(values))
    return SteadyState(
        values=values,
        flux_level=level,
        orientation=branch,
        anchor=anchor,
        direction=direction,
        bound=bound,
    )


@dataclass(frozen=True, eq=False)
class Envelope:
    """Invariant-region data for datum bounds [m, M] (possibly widened)."""

    m: float
    M: float
    lower_state: SteadyState
    upper_state: SteadyState
    lower_bound: float  # certified constant below the lower state
    upper_bound: float  # certified constant above the upper state
    legendre_sup_1: float
    lower_anchor: float
    upper_anchor: float


@dataclass(frozen=True)
class EnvelopeConstants:
    """Mesh-independent part of the envelope: widened bounds, anchors, constants."""

    m: float
    M: float
    legendre_sup_1: float
    lower_anchor: float
    upper_anchor: float
    lower_bound: float
    upper_bound: float


def envelope_constants(
    model: FluxModel,
    m: float,
    M: float,
    curve: CriticalCurve | None = None,
) -> EnvelopeConstants:
    """Certified state bounds for data in [m, M], before any mesh is chosen.

    With s1 the Legendre sup at slope 1, the upper anchor is
    max_x H(x, M) + s1 and the certified upper constant H(-X, anchor) + s1;
    mirrored with signs flipped below. Both anchors provably clear the
    critical range, so the steady states built from them always exist.
    """
    if not (m <= M):
        raise ConfigError(f"datum bounds out of order: m={m}, M={M}")
    if curve is None:
        curve = CriticalCurve.build(model)
    m = min(float(m), curve.alpha_min)
    M = max(float(M), curve.alpha_max)
    xs = curve.xs
    s1 = legendre_sup(model, 1.0)
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
    curve: CriticalCurve | None = None,
) -> Envelope:
    """Lower/upper steady states enclosing all data in [m, M], plus constants."""
    if curve is None:
        curve = CriticalCurve.build(model)
    c = envelope_constants(model, m, M, curve=curve)
    upper_state = build_steady(
        model, mesh, c.upper_anchor, direction="from_left", branch="upper", curve=curve
    )
    lower_state = build_steady(
        model, mesh, c.lower_anchor, direction="from_left", branch="lower", curve=curve
    )
    return Envelope(
        m=c.m,
        M=c.M,
        lower_state=lower_state,
        upper_state=upper_state,
        lower_bound=c.lower_bound,
        upper_bound=c.upper_bound,
        legendre_sup_1=c.legendre_sup_1,
        lower_anchor=c.lower_anchor,
        upper_anchor=c.upper_anchor,
    )


def steady_residual(state: SteadyState, model: FluxModel, mesh) -> float:
    """Max interface-flux imbalance of the sequence (0 for an exact fixed point)."""
    from .solver import Scheme  # solver imports this module

    F = Scheme(model, mesh, lipschitz=1.0).edge_fluxes(state.values)
    return float(np.max(np.abs(np.diff(F))))
