"""Entropy, consistency, and convergence diagnostics for the scheme.

Everything here is a posteriori: the routines take finished runs (or run
fresh ones at several resolutions) and measure the quantities the method
is supposed to control. None of them feed back into time stepping.

The discrete entropy check is the load-bearing one. For every reference
level k and every cell j the update must satisfy

    (|u'_j - k| - |u_j - k|) dx
      + (Phi_{j+1/2} - Phi_{j-1/2}) dt
      + sign(u'_j - k) (F_{j+1/2}(k,k) - F_{j-1/2}(k,k)) dt  <=  0

where Phi is the numerical entropy flux built from the interface flux of
the lattice maxima/minima against k, and the last term compensates for k
itself not being a discrete steady state when the flux varies in x. The
inequality follows from monotonicity of the update under the CFL bound;
a positive slack therefore flags a genuine defect, not a modelling gap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError
from .flux_model import CriticalCurve, FluxModel
from .riemann import KIND_RAREFACTION, SIDE_RIGHT, RiemannSolution, _invert_rarefaction
from .solver import (
    _GAUSS_NODES,
    _GAUSS_WEIGHTS,
    Mesh,
    RunResult,
    Scheme,
    lipschitz_bound,
    run,
)
from .steady import envelope_constants

DEFAULT_K_LEVELS = 33


# ---------------------------------------------------------------------------
# discrete entropy inequality


@dataclass(frozen=True)
class EntropyReport:
    """Worst-case entropy slack of a recorded trajectory.

    `max_slack_per_k[i]` is the largest left-hand side of the cell entropy
    inequality for level `k_values[i]` over all steps and cells; negative
    means the inequality held with room to spare. `worst_*` locate the
    global maximum.
    """

    k_values: np.ndarray
    max_slack_per_k: np.ndarray
    worst_slack: float
    worst_k: float
    worst_step: int
    worst_cell: int
    n_steps: int

    @property
    def worst_normalized(self) -> float:
        """max over k of slack / (1 + |k|), the scale-free violation size."""
        return float(np.max(self.max_slack_per_k / (1.0 + np.abs(self.k_values))))

    def ok(self, tol: float = 1e-10) -> bool:
        """True when every level satisfies slack <= tol * (1 + |k|)."""
        return self.worst_normalized <= tol

    def summary(self) -> str:
        status = "pass" if self.ok() else "FAIL"
        return (
            f"entropy check [{status}]: {len(self.k_values)} levels, "
            f"{self.n_steps} steps, worst slack {self.worst_slack:.3e} "
            f"at k={self.worst_k:.6g}, step {self.worst_step}, cell {self.worst_cell}"
        )


def default_k_levels(result: RunResult, n_levels: int = DEFAULT_K_LEVELS) -> np.ndarray:
    """Evenly spaced levels across the invariant region, plus the data extremes."""
    lo = result.envelope.lower_bound
    hi = result.envelope.upper_bound
    ks = np.linspace(lo, hi, n_levels)
    u0 = result.states[0].u if result.states else result.final.u
    extra = np.array([float(np.min(u0)), float(np.max(u0))])
    return np.unique(np.concatenate([ks, extra]))


def check_dei(
    result: RunResult,
    k_values: Optional[Sequence[float]] = None,
    n_levels: int = DEFAULT_K_LEVELS,
) -> EntropyReport:
    """Evaluate the discrete entropy inequality on every step of a run.

    Needs a run recorded with record_all=True; raises ConfigError otherwise.
    Vectorized over (level, edge) per step, so cost is a small multiple of
    re-running the scheme.
    """
    if result.states is None or len(result.states) < 2:
        raise ConfigError(
            "entropy check needs the full trajectory; rerun with record_all=True"
        )
    mesh = result.mesh
    model = result.model
    ks = (
        np.asarray(k_values, dtype=float)
        if k_values is not None
        else default_k_levels(result, n_levels)
    )
    if ks.ndim != 1 or ks.size == 0:
        raise ConfigError("k_values must be a non-empty 1d sequence")

    sch = Scheme(model, mesh, result.cfl.lipschitz)
    kcol = ks[:, None]

    # F(k, k) per edge is time independent; difference it once per level.
    f_kk = sch.edge_fluxes(np.broadcast_to(kcol, (ks.size, mesh.n_cells)))
    d_kk = f_kk[:, 1:] - f_kk[:, :-1]

    dx = mesh.dx
    max_slack = np.full(ks.size, -np.inf)
    worst = (-math.inf, 0, 0, 0)  # slack, k index, step, cell
    for n in range(len(result.states) - 1):
        u = result.states[n].u
        u1 = result.states[n + 1].u
        dt = result.states[n + 1].time - result.states[n].time
        phi = sch.edge_fluxes(np.maximum(u, kcol)) - sch.edge_fluxes(np.minimum(u, kcol))
        du1 = u1[None, :] - kcol
        slack = (
            (np.abs(du1) - np.abs(u[None, :] - kcol)) * dx
            + (phi[:, 1:] - phi[:, :-1]) * dt
            + np.sign(du1) * d_kk * dt
        )
        step_max = slack.max(axis=1)
        improved = step_max > max_slack
        max_slack = np.where(improved, step_max, max_slack)
        flat = int(np.argmax(slack))
        ik, jc = np.unravel_index(flat, slack.shape)
        if slack[ik, jc] > worst[0]:
            worst = (float(slack[ik, jc]), int(ik), n, int(jc))
    return EntropyReport(
        k_values=ks,
        max_slack_per_k=max_slack,
        worst_slack=worst[0],
        worst_k=float(ks[worst[1]]),
        worst_step=worst[2],
        worst_cell=worst[3],
        n_steps=len(result.states) - 1,
    )


# ---------------------------------------------------------------------------
# interface flux consistency


@dataclass(frozen=True)
class ConsistencyReport:
    """Deviation of the constant-state interface flux from the pointwise flux."""

    k: float
    dx_values: np.ndarray
    deviations: np.ndarray
    slope: float
    exact: bool

    def summary(self) -> str:
        kind = "exact" if self.exact else f"slope {self.slope:.3f}"
        return (
            f"flux consistency at k={self.k:.6g}: {kind}, deviations "
            + ", ".join(f"{d:.3e}" for d in self.deviations)
        )


def consistency_rate(
    model: FluxModel,
    k: float,
    dx_values: Optional[Sequence[float]] = None,
    curve: Optional[CriticalCurve] = None,
) -> ConsistencyReport:
    """Measure max_j |F_{j+1/2}(k, k) - H(x_{j+1}, k)| across a dx sweep.

    The deviation vanishes identically where the flux is frozen in x, so the
    max is taken over meshes covering the heterogeneous window. For smooth
    heterogeneity the deviation is first order in dx; the fitted log-log
    slope quantifies that. `exact` is set when every deviation sits at
    rounding level, which is the homogeneous (X = 0) signature.
    """
    k = float(k)
    if dx_values is None:
        dx_values = [0.1 / 2**i for i in range(5)]
    dxs = np.asarray(sorted(dx_values, reverse=True), dtype=float)
    if dxs.size == 0 or np.any(dxs <= 0):
        raise ConfigError("dx_values must be positive")
    if curve is None:
        curve = CriticalCurve.build(model)
    X = model.hetero_radius
    devs = []
    for dx in dxs:
        half = math.ceil((X + 4 * dx + 1e-12) / dx) * dx
        mesh = Mesh.make(-half, half, dx)
        sch = Scheme(model, mesh, lipschitz=1.0)
        f_kk = sch.edge_fluxes(np.full(mesh.n_cells, k))
        target = np.asarray(model.h(sch.xc_ext[1:], k), dtype=float)
        devs.append(float(np.max(np.abs(f_kk - target))))
    devs = np.asarray(devs)
    scale = 1.0 + float(np.max(np.abs(model.h(curve.xs, k))))
    exact = bool(np.all(devs <= 1e-14 * scale))
    if exact or np.any(devs == 0.0):
        slope = math.inf
    else:
        slope = float(np.polyfit(np.log(dxs), np.log(devs), 1)[0])
    return ConsistencyReport(
        k=k, dx_values=dxs, deviations=devs, slope=slope, exact=exact
    )


# ---------------------------------------------------------------------------
# error against an exact Riemann solution


def _pieces(sol: RiemannSolution, t: float):
    """Decompose the exact profile at time t into intervals.

    Returns a list of (lo, hi, wave_or_none, constant). Constant pieces carry
    the state value; fan pieces carry the rarefaction wave to invert. Wave
    speeds are nondecreasing across the solution, so the intervals tile the
    line in order.
    """
    pieces = []
    pos = -math.inf
    cur = sol.u_left
    for w in sol.waves:
        lo = w.speed_min * t
        hi = w.speed_max * t
        if lo > pos:
            pieces.append((pos, lo, None, cur))
            pos = lo
        if w.kind == KIND_RAREFACTION and hi > pos:
            pieces.append((pos, hi, w, 0.0))
            pos = hi
        cur = w.right_state
    pieces.append((pos, math.inf, None, cur))
    return pieces


def _gauss_segments(
    fn: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """5-point Gauss integrals of fn over the segments [a_i, b_i].

    fn maps nodes of shape (n, 5), one row per segment, to values.
    """
    half = 0.5 * (b - a)
    xs = (0.5 * (a + b))[:, None] + half[:, None] * _GAUSS_NODES
    return half * (fn(xs) @ _GAUSS_WEIGHTS)


def riemann_error(
    u: np.ndarray,
    mesh: Mesh,
    sol: RiemannSolution,
    t: float,
    window: tuple[float, float],
    norm: str = "l1",
) -> float:
    """Norm of (numerical - exact) over a window at time t.

    The integral is evaluated piece by piece of the self-similar exact
    profile, over all cells at once: constant pieces contribute in closed
    form, rarefaction pieces via 5-point Gauss segments per cell. For the L1
    norm the single sign change the integrand can have inside a fan lands at
    x = t f'(u_j), so the split point is explicit and no quadrature error
    leaks through the kink.
    """
    if norm not in ("l1", "l2"):
        raise ConfigError(f"unknown norm {norm!r}, expected 'l1' or 'l2'")
    if t < 0:
        raise ConfigError("time must be nonnegative")
    lo_w, hi_w = float(window[0]), float(window[1])
    if not lo_w < hi_w:
        raise ConfigError(f"empty window {window}")
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.n_cells,):
        raise ConfigError("state length does not match mesh")
    edges = mesh.edges()
    a = np.maximum(edges[:-1], lo_w)
    b = np.minimum(edges[1:], hi_w)
    power = 1 if norm == "l1" else 2
    total = 0.0
    for wlo, whi, wave, const in _pieces(sol, t):
        s0 = np.maximum(a, wlo)
        s1 = np.minimum(b, whi)
        cut = s1 > s0
        s0, s1, uj = s0[cut], s1[cut], u[cut]
        if wave is None:
            total += float(np.sum(np.abs(uj - const) ** power * (s1 - s0)))
            continue
        flux = sol.ctx.right if wave.side == SIDE_RIGHT else sol.ctx.left

        def err(uv, xs):
            return uv[:, None] - _invert_rarefaction(sol, wave, xs / t)

        if power == 2:
            total += float(np.sum(_gauss_segments(lambda xs: err(uj, xs) ** 2, s0, s1)))
            continue
        # u_j - fan(x) is monotone in x; it changes sign only where the
        # characteristic through u_j lands.
        cross = t * np.asarray(flux.df(uj), dtype=float)
        split = (s0 < cross) & (cross < s1)
        mid = np.where(split, cross, s1)
        total += float(np.sum(np.abs(_gauss_segments(lambda xs: err(uj, xs), s0, mid))))
        total += float(np.sum(np.abs(
            _gauss_segments(lambda xs: err(uj[split], xs), mid[split], s1[split])
        )))
    return total if power == 1 else math.sqrt(total)


def norm_between_grids(
    u_coarse: np.ndarray,
    mesh_coarse: Mesh,
    u_fine: np.ndarray,
    mesh_fine: Mesh,
    window: tuple[float, float],
) -> float:
    """Exact L1 distance of two piecewise-constant grid functions on a window.

    Requires nested meshes: the coarse spacing an integer multiple of the
    fine one and both grids anchored on multiples of their own spacing, so
    every coarse edge is a fine edge.
    """
    ratio = mesh_coarse.dx / mesh_fine.dx
    if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
        raise ConfigError("grids are not nested: dx ratio is not an integer")
    lo_w, hi_w = float(window[0]), float(window[1])
    fe = mesh_fine.edges()
    widths = np.clip(np.minimum(fe[1:], hi_w) - np.maximum(fe[:-1], lo_w), 0.0, None)
    centers = mesh_fine.centers()
    idx = np.floor((centers - mesh_coarse.x_min) / mesh_coarse.dx).astype(int)
    inside = (widths > 0) & (idx >= 0) & (idx < mesh_coarse.n_cells)
    if not np.all(inside | (widths == 0)):
        raise ConfigError("window exceeds the coarse grid")
    diff = np.zeros_like(widths)
    diff[inside] = np.abs(
        np.asarray(u_fine, dtype=float)[inside]
        - np.asarray(u_coarse, dtype=float)[idx[inside]]
    )
    return float(np.dot(diff, widths))


# ---------------------------------------------------------------------------
# convergence under mesh refinement


@dataclass(frozen=True)
class ConvergenceReport:
    """L1 errors across a refinement sweep and the observed orders."""

    reference: str
    window: tuple[float, float]
    t_end: float
    dx_values: np.ndarray
    errors: np.ndarray
    orders: np.ndarray
    slope: float
    n_steps: np.ndarray

    def summary(self) -> str:
        rows = ", ".join(
            f"dx={dx:.4g}: {e:.4e}" for dx, e in zip(self.dx_values, self.errors)
        )
        return (
            f"convergence vs {self.reference}: {rows}; "
            f"orders {np.round(self.orders, 3)}; slope {self.slope:.3f}"
        )


def _snapped_interval(lo: float, hi: float, dx: float) -> tuple[float, float]:
    """Smallest dx-aligned interval containing [lo, hi]."""
    a = math.floor(lo / dx - 1e-9) * dx
    b = math.ceil(hi / dx + 1e-9) * dx
    return a, b


def convergence_study(
    model: FluxModel,
    datum,
    t_end: float,
    window: tuple[float, float],
    dx_values: Sequence[float],
    reference: str = "exact",
    exact: Optional[RiemannSolution] = None,
    safety: float = 0.9,
    datum_bounds: Optional[tuple[float, float]] = None,
    curve: Optional[CriticalCurve] = None,
    fine_factor: int = 4,
) -> ConvergenceReport:
    """L1 convergence of the scheme on a fixed window under mesh refinement.

    Each level runs on a computational window enlarged by the influence
    radius L * t_end, so boundary replication cannot pollute the measured
    window. The time step policy is proportional to dx (same data bounds at
    every level), so the sweep refines space and time together at fixed
    ratio.

    reference='exact' compares against a supplied Riemann solution, which
    is only meaningful when the model's heterogeneity is the two-flux jump
    the solution was built for. reference='fine_grid' runs one extra level
    `fine_factor` times finer than the finest requested and measures
    against it.
    """
    if t_end <= 0:
        raise ConfigError("t_end must be positive")
    if reference not in ("exact", "fine_grid"):
        raise ConfigError(f"unknown reference {reference!r}")
    if reference == "exact" and exact is None:
        raise ConfigError("reference='exact' needs the exact Riemann solution")
    dxs = np.asarray(sorted(dx_values, reverse=True), dtype=float)
    if dxs.size < 2:
        raise ConfigError("need at least two mesh sizes")
    if curve is None:
        curve = CriticalCurve.build(model)

    if datum_bounds is None:
        probe = Mesh.make(*_snapped_interval(window[0], window[1], dxs[-1]), dxs[-1])
        m0, m1 = datum.bounds(probe)
    else:
        m0, m1 = datum_bounds
    consts = envelope_constants(model, m0, m1, curve=curve)
    lip = lipschitz_bound(model, consts.lower_bound, consts.upper_bound, curve)
    margin = lip * t_end

    def run_level(dx: float) -> tuple[np.ndarray, Mesh, int]:
        lo, hi = _snapped_interval(window[0] - margin - 2 * dx, window[1] + margin + 2 * dx, dx)
        lo = min(lo, -model.hetero_radius - 2 * dx)
        hi = max(hi, model.hetero_radius + 2 * dx)
        lo, hi = _snapped_interval(lo, hi, dx)
        mesh = Mesh.make(lo, hi, dx)
        with warnings.catch_warnings():
            # The level window already carries the influence margin for the
            # measured window, which is all the error norm sees. run()'s
            # full-domain cone heuristic does not apply here.
            warnings.filterwarnings("ignore", message=".*influence cone.*")
            res = run(
                model,
                mesh,
                datum,
                t_end,
                safety=safety,
                datum_bounds=(m0, m1),
                curve=curve,
            )
        return res.final.u, mesh, res.n_steps

    levels = [run_level(dx) for dx in dxs]
    if reference == "exact":
        errors = np.array(
            [
                riemann_error(u, mesh, exact, t_end, window, norm="l1")
                for u, mesh, _ in levels
            ]
        )
        ref_name = "exact_riemann"
    else:
        u_ref, mesh_ref, _ = run_level(dxs[-1] / fine_factor)
        errors = np.array(
            [
                norm_between_grids(u, mesh, u_ref, mesh_ref, window)
                for u, mesh, _ in levels
            ]
        )
        ref_name = f"fine_grid(dx={dxs[-1] / fine_factor:.4g})"
    with np.errstate(divide="ignore"):
        orders = np.log(errors[:-1] / errors[1:]) / np.log(dxs[:-1] / dxs[1:])
    if np.any(errors <= 0):
        slope = math.inf
    else:
        slope = float(np.polyfit(np.log(dxs), np.log(errors), 1)[0])
    return ConvergenceReport(
        reference=ref_name,
        window=(float(window[0]), float(window[1])),
        t_end=float(t_end),
        dx_values=dxs,
        errors=errors,
        orders=orders,
        slope=slope,
        n_steps=np.array([n for _, _, n in levels]),
    )


# ---------------------------------------------------------------------------
# square time-increment functional


def time_variation_sum(
    result: RunResult, window: Optional[tuple[float, float]] = None
) -> float:
    """sum over steps and cells of (u^{n+1}_j - u^n_j)^2 dx, optionally windowed.

    Boundedness of this functional under refinement is the compactness-side
    stability estimate; it is what the refinement sweep in the test suite
    monitors.
    """
    if result.states is None or len(result.states) < 2:
        raise ConfigError(
            "time variation needs the full trajectory; rerun with record_all=True"
        )
    stack = np.stack([s.u for s in result.states])
    diffs = np.diff(stack, axis=0) ** 2
    if window is not None:
        mask = (result.mesh.centers() >= window[0]) & (
            result.mesh.centers() <= window[1]
        )
        diffs = diffs[:, mask]
    return float(diffs.sum() * result.mesh.dx)
