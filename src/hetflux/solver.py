"""Finite-volume marching scheme driven by the interface flux.

Cell j carries the flux frozen at its center, h_j = H(x_j, .); the numerical
flux between cells j and j+1 is the interface flux of the pair (h_j, h_{j+1})
evaluated at the adjacent cell averages. These per-cell fluxes are frozen
once per mesh (see frozen_flux), so a step evaluates no x-dependent
coefficient, and a step writes its edge terms into buffers the Scheme owns.
The update is the standard conservative explicit Euler step

    u_j'  =  u_j - (dt/dx) (F_{j+1/2} - F_{j-1/2}),

monotone under the step-size condition 2 (dt/dx) L <= 1, where L bounds
|du_h| over the invariant region: run() takes it over the bracket, the
nearest pair of steady states around the data, and checks every state
against it. Ghost cells replicate the boundary cell (zero-order
extrapolation), which is exact while the solution stays constant near the
window edges; the runner warns when the influence cone of the heterogeneity
can reach them.

A step touches only the cells that can change: the 3-point update moves
information at most one cell per step, and a cell whose two edge fluxes
did not change has F_{j+1/2} - F_{j-1/2} = +0.0, so u_j' = u_j bit for
bit. The Scheme keeps the span of cells that changed, and the next step
evaluates only the edges next to it (the band rule, see Scheme).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, InvariantBreach, NumericalError
from .flux_model import FluxModel, frozen_flux, ghost_alphas
from .steady import Envelope, SteadyState, bracket, envelope

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(5)

# Wave speeds up to this count as none (the step would be unbounded).
_NO_SPEED = 1e-300
# States may pass the range that set L by this many ulps of its ends: the
# bracket states are fixed points up to rounding.
_CONTAIN_ULPS = 16


@dataclass(frozen=True)
class Mesh:
    """Uniform cell-centered mesh on [x_min, x_max]."""

    x_min: float
    x_max: float
    dx: float
    n_cells: int

    @classmethod
    def make(cls, x_min: float, x_max: float, dx: float) -> "Mesh":
        span = float(x_max) - float(x_min)
        if span <= 0 or dx <= 0:
            raise ConfigError(f"bad mesh window [{x_min}, {x_max}] with dx={dx}")
        n = int(round(span / dx))
        if n < 3:
            raise ConfigError("mesh must have at least 3 cells")
        if abs(n * dx - span) > 1e-9 * max(1.0, span):
            raise ConfigError(
                f"window length {span} is not an integer multiple of dx={dx}"
            )
        return cls(x_min=float(x_min), x_max=float(x_max), dx=float(dx), n_cells=n)

    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx

    def edges(self) -> np.ndarray:
        return self.x_min + np.arange(self.n_cells + 1) * self.dx


@dataclass
class GridState:
    u: np.ndarray
    time: float
    step_index: int = 0


@dataclass(frozen=True)
class CflPolicy:
    """Resolved step-size policy: 2 lam L <= safety must hold."""

    safety: float
    lam: float  # dt / dx
    lipschitz: float  # L
    bound: str = "envelope"  # the state range L was taken over: "bracket" or "envelope"

    def dt(self, dx: float) -> float:
        return self.lam * dx


class Scheme:
    """Per-mesh tables and the step kernel.

    The flux is frozen once at the N+2 ghost-extended centers (ghost_alphas);
    h_pair is that table over the (N+1, 2) edges, the left cell's flux and
    the right one's, so one call evaluates both sides of a range of edges
    (its at, see frozen_flux, kept for the last range: most steps repeat
    it). step_arrays() allocates only the new state. last_range holds the
    (min, max) of the state u the last step started from, and last_edges
    (u, a, b, F) that u with its two edge terms and edge flux at every edge,
    valid until the next step.

    Band rule: band holds the state u_new the last step returned and the
    span [lo, hi) of its cells with nonzero dF. A step handed that very
    array evaluates only the edges [lo, hi], recomputes dF on the cells
    [lo - 1, hi + 1) (last_window) and trims the span to their nonzero dF.
    Every other edge keeps its terms and flux in the buffers, F[0] and
    F[-1] included, and every other cell dF = +0.0. Any other state takes a
    full step: the window is every cell.
    """

    def __init__(self, model: FluxModel, mesh: Mesh, lipschitz: float):
        self.model = model
        self.mesh = mesh
        self.lipschitz = float(lipschitz)
        self.xc_ext, self.al_ext = ghost_alphas(model, mesh)
        n = mesh.n_cells
        pairs = np.arange(n + 1)[:, None] + np.arange(2)  # edge e joins cells e-1, e
        self.h_pair = frozen_flux(model, self.xc_ext).at(pairs)
        self._window_flux = ((0, n + 1), self.h_pair)  # the last range of edges, its h_pair
        self._u_ext, self._sides = np.empty(n + 2), np.empty((n + 1, 2))
        self._flux, self._dflux, self._moved = np.empty(n + 1), np.zeros(n), np.empty(n, bool)
        self.band = (None, 0, n)
        self.last_window = (0, n)
        self.last_range = (math.nan, math.nan)
        self.last_edges = None

    def _edge_terms(self, ue: np.ndarray, out: np.ndarray, e0: int, e1: int) -> None:
        """The terms h_l(max(u_l, alpha_l)), h_r(min(alpha_r, u_r)) of the
        interface flux at the edges [e0, e1) of ghost-extended states ue,
        evaluated in out (..., e1 - e0, 2)."""
        al = self.al_ext
        np.maximum(ue[..., e0:e1], al[e0:e1], out=out[..., 0])
        np.minimum(al[e0 + 1:e1 + 1], ue[..., e0 + 1:e1 + 1], out=out[..., 1])
        if self._window_flux[0] != (e0, e1):
            self._window_flux = ((e0, e1), self.h_pair.at(slice(e0, e1)))
        self._window_flux[1](out, out=out)

    def edge_sides(self, u: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
        """The two terms of the interface flux at every edge, for cell states
        u of shape (..., n_cells), into the optional (2, ..., n_cells + 1)
        array out. Ghost cells replicate the boundary cells."""
        u = np.asarray(u, dtype=float)
        if out is None:
            out = np.empty((2,) + u.shape[:-1] + (u.shape[-1] + 1,))
        ue = np.concatenate((u[..., :1], u, u[..., -1:]), axis=-1)
        self._edge_terms(ue, np.moveaxis(out, 0, -1), 0, u.shape[-1] + 1)
        return out[0], out[1]

    def edge_fluxes(self, u: np.ndarray) -> np.ndarray:
        """Interface flux max of the two edge_sides terms at every edge."""
        return np.maximum(*self.edge_sides(u))

    def step_arrays(self, u: np.ndarray, dt: float):
        """One update; returns (u_new, boundary fluxes (F_in, F_out)).

        u_new is a new array; u is not modified. Sets last_range,
        last_edges and last_window for u, and band for u_new (see Scheme)."""
        self.last_range = _finite_range(u, "entering step")
        lam = dt / self.mesh.dx
        if 2.0 * lam * self.lipschitz > 1.0 + 1e-9:
            raise NumericalError(
                f"step size violates 2 (dt/dx) L <= 1: dt={dt}, L={self.lipschitz}"
            )
        n = self.mesh.n_cells
        last, lo, hi = self.band
        if u is not last:
            lo, hi = 0, n
        c0, c1 = max(lo - 1, 0), min(hi + 1, n)
        ue, S, F = self._u_ext, self._sides[lo:hi + 1], self._flux
        ue[c0 + 1:c1 + 1] = u[c0:c1]
        ue[0], ue[-1] = u[0], u[-1]
        self._edge_terms(ue, S, lo, hi + 1)
        np.maximum(S[:, 0], S[:, 1], out=F[lo:hi + 1])
        dF = np.subtract(F[c0 + 1:c1 + 1], F[c0:c1], out=self._dflux[c0:c1])
        dF *= lam
        moved = np.not_equal(dF, 0.0, out=self._moved[c0:c1])
        first, end = c0 + int(moved.argmax()), c1 - int(moved[::-1].argmax())
        u_new = np.subtract(u, self._dflux)
        self.band = (u_new, first, end) if moved[first - c0] else (u_new, c0, c0)
        self.last_edges = (u, self._sides[:, 0], self._sides[:, 1], F)
        self.last_window = (c0, c1)
        return u_new, float(F[0]), float(F[-1])


def _finite_range(u: np.ndarray, where: str) -> tuple[float, float]:
    """(min, max) of u; raises NumericalError if u holds a NaN or an infinity.

    NaN propagates through min and max, so one pass checks both."""
    lo, hi = float(u.min()), float(u.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NumericalError(f"non-finite state {where}")
    return lo, hi


def _contained(state_range, contain, within: str, where: str) -> tuple[float, float]:
    """state_range, after checking it lies in contain; raises InvariantBreach."""
    lo, hi = state_range
    if lo < contain[0] or hi > contain[1]:
        raise InvariantBreach(
            f"state range [{lo:.17g}, {hi:.17g}] {where} leaves the {within} "
            f"[{contain[0]:.17g}, {contain[1]:.17g}]"
        )
    return lo, hi


def lipschitz_bound(model: FluxModel, lo: float, hi: float) -> float:
    """sup |du_h| over all x and states in [lo, hi].

    du_h(x, .) is increasing, so the sup in u sits at the interval endpoints;
    the sup in x is over the heterogeneity samples (flux frozen outside).
    """
    xs = model.curve.xs
    a = np.abs(np.asarray(model.du_h(xs, float(lo)), dtype=float))
    b = np.abs(np.asarray(model.du_h(xs, float(hi)), dtype=float))
    return float(max(np.max(a), np.max(b)))


def cfl_dt(
    model: FluxModel,
    mesh: Mesh,
    bounds: tuple[float, float],
    safety: float = 0.9,
    max_dt: Optional[float] = None,
) -> CflPolicy:
    """Largest safe step: dt = safety * dx / (2 L) for L over `bounds`."""
    if not (0 < safety <= 1):
        raise ConfigError(f"safety factor must lie in (0, 1], got {safety}")
    L = lipschitz_bound(model, bounds[0], bounds[1])
    if L <= _NO_SPEED:
        if max_dt is None:
            raise NumericalError(
                "flux carries no wave speeds on the state range; supply max_dt"
            )
        return CflPolicy(safety=safety, lam=max_dt / mesh.dx, lipschitz=L)
    dt = safety * mesh.dx / (2.0 * L)
    if max_dt is not None:
        dt = min(dt, max_dt)
    return CflPolicy(safety=safety, lam=dt / mesh.dx, lipschitz=L)


# ---------------------------------------------------------------------------
# Initial data


@dataclass(frozen=True)
class PiecewiseConstantDatum:
    """Values v_0 | v_1 | ... | v_m between sorted breakpoints b_1 < ... < b_m."""

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        if len(self.values) != len(self.breakpoints) + 1:
            raise ConfigError("piecewise datum needs one more value than breakpoints")
        if any(b2 <= b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise ConfigError("piecewise datum breakpoints must be strictly increasing")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(np.asarray(self.breakpoints), x, side="right")
        return np.asarray(self.values, dtype=float)[idx]

    def bounds(self, mesh: Optional[Mesh] = None) -> tuple[float, float]:
        return (float(min(self.values)), float(max(self.values)))


@dataclass(frozen=True)
class SmoothDatum:
    """Datum given by a callable; projected by 5-point Gauss quadrature per cell."""

    fn: Callable

    def __call__(self, x):
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)

    def bounds(self, mesh: Mesh) -> tuple[float, float]:
        xs = np.linspace(mesh.x_min, mesh.x_max, 16 * mesh.n_cells + 1)
        vals = self(xs)
        return (float(np.min(vals)), float(np.max(vals)))


def datum_constant(value: float) -> PiecewiseConstantDatum:
    return PiecewiseConstantDatum(breakpoints=(0.0,), values=(float(value), float(value)))


def datum_step(left: float, right: float, location: float = 0.0) -> PiecewiseConstantDatum:
    return PiecewiseConstantDatum(breakpoints=(float(location),), values=(float(left), float(right)))


def datum_bump(base: float, amplitude: float, center: float = 0.0, width: float = 1.0) -> SmoothDatum:
    from .profiles import bump

    if width <= 0:
        raise ConfigError("bump datum needs width > 0")
    return SmoothDatum(fn=lambda x: base + amplitude * bump((np.asarray(x, dtype=float) - center) / width))


def datum_from_table(xs, us) -> SmoothDatum:
    """Piecewise-linear interpolant through sampled points (flat extrapolation)."""
    xs = np.asarray(xs, dtype=float)
    us = np.asarray(us, dtype=float)
    if xs.ndim != 1 or xs.size < 2 or np.any(np.diff(xs) <= 0):
        raise ConfigError("file datum needs at least two strictly increasing x samples")
    return SmoothDatum(fn=lambda x: np.interp(np.asarray(x, dtype=float), xs, us))


def project_initial(datum, mesh: Mesh) -> GridState:
    """Cell averages of the datum: exact for piecewise-constant data, 5-point
    Gauss per cell otherwise."""
    if isinstance(datum, GridState):
        if datum.u.shape != (mesh.n_cells,):
            raise ConfigError("grid state does not match the mesh")
        return GridState(u=np.array(datum.u, dtype=float), time=datum.time, step_index=datum.step_index)
    if isinstance(datum, PiecewiseConstantDatum):
        # Each cell takes the value at its left edge, and each breakpoint
        # strictly inside a cell adds its jump times the share of the cell
        # right of it: a cell no breakpoint cuts gets its piece's value
        # exactly, and the clip keeps rounding within the data's range.
        edges = mesh.edges()
        b = np.asarray(datum.breakpoints, dtype=float)
        v = np.asarray(datum.values, dtype=float)
        u = datum(edges[:-1])
        cell = np.searchsorted(edges, b, side="right") - 1
        cut = (cell >= 0) & (cell < mesh.n_cells) & (edges[np.clip(cell, 0, mesh.n_cells)] < b)
        cell, i = cell[cut], np.flatnonzero(cut)
        np.add.at(u, cell, (v[i + 1] - v[i]) * (edges[cell + 1] - b[i]) / mesh.dx)
        return GridState(u=np.clip(u, v.min(), v.max(), out=u), time=0.0)
    if not callable(datum):
        raise ConfigError(f"cannot project datum of type {type(datum).__name__}")
    xg = mesh.centers()[:, None] + 0.5 * mesh.dx * _GAUSS_NODES[None, :]
    vals = np.asarray(datum(xg), dtype=float)
    u = vals @ _GAUSS_WEIGHTS / 2.0
    return GridState(u=u, time=0.0)


# ---------------------------------------------------------------------------
# Time marching


@dataclass
class RunResult:
    mesh: Mesh
    model: FluxModel
    snapshots: list
    cfl: CflPolicy
    envelope: Envelope
    bracket: Optional[tuple[SteadyState, SteadyState]]  # (lower, upper), see run
    n_steps: int
    running_min: float
    running_max: float
    mass_initial: float
    mass_final: float
    boundary_net_outflow: float
    mass_drift: float

    @property
    def final(self) -> GridState:
        return self.snapshots[-1]


def run(
    model: FluxModel,
    mesh: Mesh,
    datum,
    t_end: float,
    snapshot_times=(),
    safety: float = 0.9,
    observers: Sequence = (),
    datum_bounds: Optional[tuple[float, float]] = None,
    max_dt: Optional[float] = None,
) -> RunResult:
    """March the scheme to t_end with the step size fixed by the bracket.

    The bracket is the pair of steady states nearest to the projected data
    u0 that sandwich it (steady.bracket). Constant-level states are fixed
    points of the scheme and the scheme is monotone under the CFL bound, so
    by comparison (Crandall-Majda) u never leaves [min lower, max upper], and
    L is taken over that range. The Legendre envelope, wider, is the
    fallback: when the bracket carries no wave speed (constant data at
    alpha), and when a boundary cell lies inside (-X, X), where its ghost
    carries another flux and the bracket states need not be fixed points.
    Every state is checked against the range L came from (the envelope
    constants when there is no bracket), to a few ulps, and InvariantBreach
    is raised when it leaves.

    Snapshot times are hit exactly by shortening the step. Each observer gets
    obs.start(scheme, envelope, u0) before the first step and obs.step(u,
    u_new, dt) after each, with the dt used; no one may modify these arrays.
    A NaN or infinite state raises NumericalError.
    """
    if t_end < 0:
        raise ConfigError(f"t_end must be >= 0, got {t_end}")
    u = project_initial(datum, mesh).u
    if datum_bounds is None:
        if isinstance(datum, GridState):
            datum_bounds = (float(np.min(u)), float(np.max(u)))
        else:
            datum_bounds = datum.bounds(mesh)
    env = envelope(model, mesh, datum_bounds[0], datum_bounds[1])
    X = model.hetero_radius
    xc = mesh.centers()
    if X == 0.0 or (xc[0] <= -X and xc[-1] >= X):
        brk = bracket(model, mesh, u)
        within, contain = "bracket", (brk[0].bound, brk[1].bound)
    else:
        brk, within, contain = None, "envelope", (env.lower_bound, env.upper_bound)
    if brk is not None and lipschitz_bound(model, *contain) > _NO_SPEED:
        policy = replace(cfl_dt(model, mesh, contain, safety, max_dt), bound="bracket")
    else:
        policy = cfl_dt(model, mesh, (env.lower_bound, env.upper_bound), safety, max_dt)
    slack = _CONTAIN_ULPS * np.finfo(float).eps * (1.0 + max(map(abs, contain)))
    contain = (contain[0] - slack, contain[1] + slack)
    influence = policy.lipschitz * t_end
    if mesh.x_min > -X - influence or mesh.x_max < X + influence:
        warnings.warn(
            "window does not contain the influence cone of the heterogeneity "
            f"([-{X + influence:.3g}, {X + influence:.3g}]); boundary replication "
            "may contaminate the solution",
            stacklevel=2,
        )

    scheme = Scheme(model, mesh, policy.lipschitz)
    dt_nominal = policy.dt(mesh.dx)
    events = sorted({float(t) for t in snapshot_times if 0.0 < t < t_end})
    events.append(float(t_end))

    snapshots = []
    if t_end > 0 and any(abs(t) <= 1e-14 * max(1.0, t_end) for t in snapshot_times):
        snapshots.append(GridState(u=u.copy(), time=0.0, step_index=0))
    for obs in observers:
        obs.start(scheme, env, u)

    mass0 = float(np.sum(u)) * mesh.dx
    net_out = 0.0
    rmin, rmax = math.inf, -math.inf
    t = 0.0
    n_steps = 0
    tol_t = 1e-12 * max(1.0, t_end)
    for target in events:
        while t < target - tol_t:
            dt = min(dt_nominal, target - t)
            u_new, f_in, f_out = scheme.step_arrays(u, dt)
            lo, hi = _contained(scheme.last_range, contain, within, "entering step")
            rmin, rmax = min(rmin, lo), max(rmax, hi)
            for obs in observers:
                obs.step(u, u_new, dt)
            net_out += dt * (f_out - f_in)
            t += dt
            n_steps += 1
            u = u_new
        t = target
        snapshots.append(GridState(u=u.copy(), time=target, step_index=n_steps))
    # Every state but the last was checked and measured by the step it entered.
    lo, hi = _contained(_finite_range(u, "at the end of the run"), contain, within,
                        "at the end of the run")
    rmin, rmax = min(rmin, lo), max(rmax, hi)

    mass_final = float(np.sum(u)) * mesh.dx
    scale = max(abs(mass0), abs(mass_final), float(np.sum(np.abs(snapshots[-1].u))) * mesh.dx, 1e-30)
    drift = abs(mass_final - (mass0 - net_out)) / scale
    return RunResult(
        mesh=mesh,
        model=model,
        snapshots=snapshots,
        cfl=policy,
        envelope=env,
        bracket=brk,
        n_steps=n_steps,
        running_min=rmin,
        running_max=rmax,
        mass_initial=mass0,
        mass_final=mass_final,
        boundary_net_outflow=net_out,
        mass_drift=drift,
    )
