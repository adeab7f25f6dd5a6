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
against it. Ghost cells replicate the boundary cell, position and flux
included (zero-order extrapolation), so every steady state is a fixed point
on any window; this is exact while the solution stays constant near the
window edges, and the runner warns when the influence cone of the
heterogeneity can reach them.

A step touches only the cells that can change: the 3-point update moves
information at most one cell per step, and a cell whose two edge fluxes
did not change has F_{j+1/2} - F_{j-1/2} = +0.0, so u_j' = u_j bit for
bit. The Scheme keeps the span of cells that changed, and the next step
evaluates only the blocks of edges around it (the band rule, see Scheme).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, InvariantBreach, NumericalError
from .flux_model import FluxModel, ghost_cells, ghost_minima, lipschitz_bound
from .profiles import bump
from .rootfind import TOL_ROOT
from .steady import Envelope, SteadyState, bracket, envelope

GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(5)

# Wave speeds up to this count as none (the step would be unbounded).
_NO_SPEED = 1e-300
# States may pass the range that set L by this many ulps of its ends: the
# bracket states are fixed points up to rounding.
_CONTAIN_ULPS = 16
# Relative mass drift (initial mass minus boundary outflow against the mass
# of a snapshot) beyond which run() raises InvariantBreach.
MASS_DRIFT_TOL = 1e-10
# A banded step evaluates its edges in whole blocks of this many (see Scheme).
_EDGE_BLOCK = 64
# The largest mesh cone_mesh sizes by itself.
MAX_AUTO_CELLS = 10**6
# The most steps run() takes: a longer march is refused before its first step.
MAX_STEPS = 10**7


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


def cone(model: FluxModel, lo: float, hi: float, reach: float) -> tuple[float, float]:
    """[lo, hi] joined with the heterogeneity [-X, X] and widened by reach on
    both sides. With reach = L * t_end it holds every cell that data or flux
    variation on [lo, hi] can influence by t_end, waves moving at most L."""
    X = model.hetero_radius
    return min(lo, -X) - reach, max(hi, X) + reach


def cone_mesh(model: FluxModel, lo: float, hi: float, reach: float, dx: float,
              pad: int = 2, *, advice: str) -> Mesh:
    """The mesh of step dx on floor(a/dx - pad) dx ... ceil(b/dx + pad) dx for
    (a, b) = cone(model, lo, hi, reach); one of more than MAX_AUTO_CELLS
    cells is refused before anything is allocated, with the caller's
    advice on the way out."""
    a, b = cone(model, lo, hi, reach)
    first, last = a / dx - pad, b / dx + pad
    if not last - first <= MAX_AUTO_CELLS or math.ceil(last) - math.floor(first) > MAX_AUTO_CELLS:
        raise ConfigError(
            f"the automatic window needs {last - first:.3g} cells, more than "
            f"{MAX_AUTO_CELLS}; {advice}"
        )
    return Mesh.make(math.floor(first) * dx, math.ceil(last) * dx, dx)


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
    lipschitz: float  # L, taken over the bracket

    def dt(self, dx: float) -> float:
        return self.lam * dx


class Scheme:
    """Per-mesh tables and the step kernel.

    The flux is frozen once at the N+2 ghost-extended centers (ghost_cells,
    kept by the model), each ghost on its boundary cell's center, so it
    copies that cell's flux; h_pair is that table over the (N+1, 2) edges,
    the left cell's flux and the right one's, so one call evaluates both
    sides of a range of edges. step_arrays() allocates only the new state.
    last_range holds the (min, max) of the state u the last step started
    from, and last_edges (u, a, b, F) that u with its two edge terms and
    edge flux at every edge, valid until the next step.

    Band rule: band holds the state u_new the last step returned and the
    span [lo, hi) of its cells with nonzero dF. A step handed that very
    array evaluates the edges [lo, hi], recomputes dF on the cells
    [lo - 1, hi + 1) (last_window) and trims the span to their nonzero dF.
    Every other edge keeps its terms and flux in the buffers, F[0] and
    F[-1] included, and every other cell dF = +0.0. Any other state takes a
    full step: the window is every cell. What a banded step pays for:

    * Edge blocks. The edges are evaluated in whole blocks of _EDGE_BLOCK
      that contain [lo, hi], with h_pair.at of that block range, kept until
      the band leaves it, so the band moves for many steps on one frozen
      form. An edge outside [lo, hi] joins two cells the last step left
      alone, so it evaluates to the bits it already holds.
    * Ghosts. The ghost-extended state keeps u between steps; a step copies
      the window and refreshes a ghost cell only when the window reaches
      that end of the mesh.
    * End probe. The band moves at most one cell per step at either end, so
      its new ends lie next to the window's: the trim reads the two cells at
      each end of the window, and scans the whole window only when one pair
      is quiet (a band that shrinks, or none left).
    * Block views. All a step reads or writes that depends only on its
      range of edge blocks (_block_views: the frozen flux, both clamps'
      operands, the (m, 2) terms, their columns and the block's flux) is
      built when that range changes, and last_edges' two columns once, so
      a step slices only its window. It takes the state's range with
      np.minimum.reduce / np.maximum.reduce, the bits of min / max without
      numpy's Python wrappers.
    """

    def __init__(self, model: FluxModel, mesh: Mesh, lipschitz: float):
        self.model = model
        self.mesh = mesh
        self.lipschitz = float(lipschitz)
        self.xc_ext, self.al_ext, f = ghost_cells(model, mesh)
        n = self._n = mesh.n_cells
        self._dx = mesh.dx
        pairs = np.arange(n + 1)[:, None] + np.arange(2)  # edge e joins cells e-1, e
        self.h_pair = f.at(pairs)
        self._u_ext, self._sides = np.zeros(n + 2), np.empty((n + 1, 2))
        self._flux, self._dflux, self._moved = np.empty(n + 1), np.zeros(n), np.empty(n, bool)
        self._columns = (self._sides[:, 0], self._sides[:, 1])
        self._block = self._block_views(0, n + 1)
        self.band = (None, 0, n)
        self.last_window = (0, n)
        self.last_range = (math.nan, math.nan)
        self.last_edges = None

    def edge_sides(self, u: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
        """The two terms of the interface flux at every edge, for cell states
        u of shape (..., n_cells): h_l(max(u_l, alpha_l)) and
        h_r(min(alpha_r, u_r)), the two columns of the optional
        C-contiguous (..., n_cells + 1, 2) array out, the pair layout of
        h_pair and of the step kernel. Ghost cells replicate the boundary
        cells."""
        u = np.asarray(u, dtype=float)
        if out is None:
            out = np.empty(u.shape[:-1] + (u.shape[-1] + 1, 2))
        ue = np.concatenate((u[..., :1], u, u[..., -1:]), axis=-1)
        np.maximum(ue[..., :-1], self.al_ext[:-1], out=out[..., 0])
        np.minimum(self.al_ext[1:], ue[..., 1:], out=out[..., 1])
        self.h_pair(out, out=out)
        return out[..., 0], out[..., 1]

    def edge_fluxes(self, u: np.ndarray) -> np.ndarray:
        """Interface flux max of the two edge_sides terms at every edge."""
        return np.maximum(*self.edge_sides(u))

    def _block_views(self, e0: int, e1: int) -> tuple:
        """(e0, e1, h, u_l, al_l, al_r, u_r, S, a, b, F): everything a step
        on the edges [e0, e1) reads or writes that depends only on that
        range. h is h_pair frozen there; u_l, al_l and al_r, u_r the ghost-
        extended state and alpha left and right of each edge; S the (m, 2)
        terms, a and b its columns; F the edges' slice of the flux."""
        ue, al, S = self._u_ext, self.al_ext, self._sides[e0:e1]
        h = self.h_pair if e1 - e0 == self._n + 1 else self.h_pair.at(slice(e0, e1))
        return (e0, e1, h, ue[e0:e1], al[e0:e1], al[e0 + 1:e1 + 1], ue[e0 + 1:e1 + 1],
                S, S[:, 0], S[:, 1], self._flux[e0:e1])

    def step_arrays(self, u: np.ndarray, dt: float):
        """One update; returns (u_new, boundary fluxes (F_in, F_out)).

        u_new is a new array; u is not modified. Sets last_range,
        last_edges and last_window for u, and band for u_new (see Scheme)."""
        # NaN propagates through minimum and maximum, so one pass checks both.
        umin, umax = np.minimum.reduce(u), np.maximum.reduce(u)
        if not (math.isfinite(umin) and math.isfinite(umax)):
            raise NumericalError("non-finite state entering step")
        self.last_range = (float(umin), float(umax))
        lam = dt / self._dx
        if 2.0 * lam * self.lipschitz > 1.0 + 1e-9:
            raise NumericalError(
                f"step size violates 2 (dt/dx) L <= 1: dt={dt}, L={self.lipschitz}"
            )
        n = self._n
        last, lo, hi = self.band
        if u is not last:
            lo, hi = 0, n
        c0, c1 = max(lo - 1, 0), min(hi + 1, n)
        ue, F = self._u_ext, self._flux
        ue[c0 + 1:c1 + 1] = u[c0:c1]
        if c0 == 0:
            ue[0] = u[0]
        if c1 == n:
            ue[-1] = u[-1]
        e0, e1 = lo - lo % _EDGE_BLOCK, min(hi - hi % _EDGE_BLOCK + _EDGE_BLOCK, n + 1)
        block = self._block
        if block[0] != e0 or block[1] != e1:
            block = self._block = self._block_views(e0, e1)
        _, _, h, u_l, al_l, al_r, u_r, S, a, b, F_block = block
        # The two terms h_l(max(u_l, alpha_l)) and h_r(min(alpha_r, u_r)).
        np.maximum(u_l, al_l, out=a)
        np.minimum(al_r, u_r, out=b)
        h(S, out=S)
        np.maximum(a, b, out=F_block)
        dF = np.subtract(F[c0 + 1:c1 + 1], F[c0:c1], out=self._dflux[c0:c1])
        dF *= lam
        if c1 - c0 >= 2 and (dF[0] != 0.0 or dF[1] != 0.0) and (dF[-1] != 0.0 or dF[-2] != 0.0):
            first, end = (c0 if dF[0] != 0.0 else c0 + 1), (c1 if dF[-1] != 0.0 else c1 - 1)
        else:
            moved = np.not_equal(dF, 0.0, out=self._moved[c0:c1])
            first, end = c0 + int(moved.argmax()), c1 - int(moved[::-1].argmax())
            if not moved[first - c0]:
                first = end = c0
        u_new = np.subtract(u, self._dflux)
        self.band = (u_new, first, end)
        self.last_edges = (u, *self._columns, F)
        self.last_window = (c0, c1)
        return u_new, float(F[0]), float(F[-1])


def steady_residual(state: SteadyState, model: FluxModel, mesh: Mesh) -> float:
    """Max interface-flux imbalance of the sequence (0 for an exact fixed point)."""
    F = Scheme(model, mesh, lipschitz=1.0).edge_fluxes(state.values)
    return float(np.max(np.abs(np.diff(F))))


def _breach(lo: float, hi: float, contain, where: str) -> InvariantBreach:
    """The error for a state range [lo, hi] that leaves the bracket contain."""
    return InvariantBreach(
        f"state range [{lo:.17g}, {hi:.17g}] {where} leaves the bracket "
        f"[{contain[0]:.17g}, {contain[1]:.17g}]"
    )


def _mass_balance(u: np.ndarray, dx: float, mass0: float, net_out: float,
                  t: float) -> tuple[float, float]:
    """(mass of u, its drift from mass0 - net_out relative to the largest of
    the two masses and the mass of |u|); raises InvariantBreach when the
    drift passes MASS_DRIFT_TOL. A non-finite u gives a NaN drift, left to
    the state checks."""
    mass = float(np.sum(u)) * dx
    scale = max(abs(mass0), abs(mass), float(np.sum(np.abs(u))) * dx, 1e-30)
    drift = abs(mass - (mass0 - net_out)) / scale
    if drift > MASS_DRIFT_TOL:
        raise InvariantBreach(
            f"relative mass drift {drift:.3e} at t={t:.6g} passes {MASS_DRIFT_TOL:g}"
        )
    return mass, drift


def _cfl_policy(L: float, mesh: Mesh, safety: float, max_dt: Optional[float],
                t_end: float) -> CflPolicy:
    """The step-size policy for the wave-speed bound L on mesh: dt = safety *
    dx / (2 L), or t_end when L counts as no speed (then no step breaks
    monotonicity, see run), capped at max_dt."""
    if not (0 < safety <= 1):
        raise ConfigError(f"safety factor must lie in (0, 1], got {safety}")
    dt = safety * mesh.dx / (2.0 * L) if L > _NO_SPEED else t_end
    if max_dt is not None:
        dt = min(dt, max_dt)
    return CflPolicy(safety=safety, lam=dt / mesh.dx, lipschitz=L)


# ---------------------------------------------------------------------------
# Initial data
#
# A datum answers for itself: datum(x) its values, support how far from the
# origin it is non-constant (math.inf when unknown), and map(fn) the datum
# fn(u) with the same support, so callers ask no datum of its kind. Beyond
# +-support a datum is one constant on each side, bit for bit: datum_bump,
# datum_from_table and every map of them are, and project_initial evaluates
# a smooth datum only near [-support, support] on that account. Its range
# on a mesh is that of its projected cells (project_initial), the u0 the
# scheme starts from.


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

    @property
    def support(self) -> float:
        return max(map(abs, self.breakpoints), default=0.0)

    def map(self, fn: Callable) -> "PiecewiseConstantDatum":
        return replace(self, values=tuple(float(fn(v)) for v in self.values))


@dataclass(frozen=True)
class SmoothDatum:
    """Datum given by a callable; projected by 5-point Gauss quadrature per cell.

    A finite support is a promise: fn is one constant, bit for bit, on each
    side beyond +-support, and project_initial copies it there instead of
    evaluating fn. A bare callable gets support inf and is evaluated on
    every cell."""

    fn: Callable
    support: float = math.inf

    def __call__(self, x):
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)

    def map(self, fn: Callable) -> "SmoothDatum":
        return replace(self, fn=lambda x: fn(self(x)))


def datum_constant(value: float) -> PiecewiseConstantDatum:
    return PiecewiseConstantDatum(breakpoints=(0.0,), values=(float(value), float(value)))


def datum_step(left: float, right: float, location: float = 0.0) -> PiecewiseConstantDatum:
    return PiecewiseConstantDatum(breakpoints=(float(location),), values=(float(left), float(right)))


def datum_bump(base: float, amplitude: float, center: float = 0.0, width: float = 1.0) -> SmoothDatum:
    if width <= 0:
        raise ConfigError("bump datum needs width > 0")
    return SmoothDatum(fn=lambda x: base + amplitude * bump((np.asarray(x, dtype=float) - center) / width),
                       support=abs(center) + width)


def datum_from_table(xs, us) -> SmoothDatum:
    """Piecewise-linear interpolant through sampled points (flat extrapolation)."""
    xs = np.asarray(xs, dtype=float)
    us = np.asarray(us, dtype=float)
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(us))):
        raise ConfigError("file datum needs finite x and u samples")
    if xs.ndim != 1 or xs.size < 2 or np.any(np.diff(xs) <= 0):
        raise ConfigError("file datum needs at least two strictly increasing x samples")
    return SmoothDatum(fn=lambda x: np.interp(np.asarray(x, dtype=float), xs, us),
                       support=float(np.max(np.abs(xs))))


def project_initial(datum, mesh: Mesh) -> GridState:
    """Cell averages of the datum: exact for piecewise-constant data, 5-point
    Gauss per cell otherwise. The Gauss rule runs on the cells meeting
    [-support - dx, support + dx] and on one cell past each end of them
    (two cells at least); every cell further out takes the value of the one
    on its side, so the result is that of the rule on every cell, bit for
    bit, for a datum constant beyond +-support (see "Initial data")."""
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
    # Quadrature on the cells meeting [-s - dx, s + dx] and on one cell past
    # each end of them; every cell beyond takes its side's value, the datum
    # being one constant there (see "Initial data"). A mesh wholly on one
    # side still gets two rows: numpy sends a one-row product to dot, not
    # gemv, and dot rounds differently.
    edges, n = mesh.edges(), mesh.n_cells
    reach = getattr(datum, "support", math.inf) + mesh.dx
    a = max(int(np.searchsorted(edges[1:], -reach, side="left")) - 1, 0)
    b = min(int(np.searchsorted(edges[:-1], reach, side="right")) + 1, n)
    if b - a < 2:
        a, b = max(b - 2, 0), min(a + 2, n)
    xg = mesh.centers()[a:b, None] + 0.5 * mesh.dx * GAUSS_NODES[None, :]
    u = np.asarray(datum(xg), dtype=float) @ GAUSS_WEIGHTS / 2.0
    return GridState(u=np.pad(u, (a, n - b), mode="edge"), time=0.0)


# ---------------------------------------------------------------------------
# Time marching


@dataclass
class RunResult:
    mesh: Mesh
    model: FluxModel
    snapshots: list
    cfl: CflPolicy
    envelope: Envelope
    bracket: tuple[SteadyState, SteadyState]  # (lower, upper), see run
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
    L is taken over that range. The ghost cells copy their boundary cells,
    flux included, so this holds on every window, one that cuts [-X, X]
    too. InvariantBreach is raised when a bracket state is no fixed point of
    the run's Scheme, and when a state leaves the range (to a few ulps). A
    bracket that carries no wave speed (constant data at alpha) holds every
    edge flux equal, so the data are a fixed point and the step is t_end,
    capped at max_dt: without it each step runs to the next event.
    RunResult.envelope (over datum_bounds, or the range of u0) is a report:
    run() reads none of it.
    The scheme is conservative, so at every snapshot, the last one at t_end,
    the mass must equal the initial mass minus the boundary outflow to a
    relative MASS_DRIFT_TOL, or InvariantBreach is raised.

    Snapshot times are hit exactly by shortening the step. Each observer gets
    obs.start(scheme, certified, u0) before the first step, certified the
    bracket's range (min lower, max upper), and obs.step(u, u_new, dt) after
    each, with the dt used; no one may modify these arrays. A NaN or
    infinite state raises NumericalError. Before the first step, a
    non-finite L, or more than MAX_STEPS steps of the nominal dt to t_end,
    raises ConfigError.
    """
    if t_end < 0:
        raise ConfigError(f"t_end must be >= 0, got {t_end}")
    u = project_initial(datum, mesh).u
    env = envelope(model, mesh, *((u.min(), u.max()) if datum_bounds is None else datum_bounds))
    brk = bracket(model, mesh, u)
    certified = (brk[0].bound, brk[1].bound)
    policy = _cfl_policy(lipschitz_bound(model, *certified), mesh, safety, max_dt, t_end)
    dt_nominal = policy.dt(mesh.dx)
    if not math.isfinite(policy.lipschitz):
        raise ConfigError(f"the wave-speed bound L = {policy.lipschitz} is not finite")
    if t_end > MAX_STEPS * dt_nominal:
        raise ConfigError(f"dt = {dt_nominal:.3g} (wave-speed bound L = {policy.lipschitz:.3g}) "
                          f"takes more than MAX_STEPS = {MAX_STEPS} steps to t_end = {t_end:g}")
    slack = _CONTAIN_ULPS * np.finfo(float).eps * (1.0 + max(map(abs, certified)))
    contain = (certified[0] - slack, certified[1] + slack)
    a, b = cone(model, 0.0, 0.0, policy.lipschitz * t_end)
    if mesh.x_min > a or mesh.x_max < b:
        warnings.warn(
            "window does not contain the influence cone of the heterogeneity "
            f"([-{b:.3g}, {b:.3g}]); boundary replication "
            "may contaminate the solution",
            stacklevel=2,
        )

    scheme = Scheme(model, mesh, policy.lipschitz)
    # Both bracket states must be fixed points of this Scheme. invert_branch leaves each
    # cell's flux within TOL_ROOT (1 + |level| + |H(x_j, alpha_j)|) of the level, so each
    # edge flux difference within twice that: the flux minima set the scale, not the level.
    scale = 1.0 + float(np.max(np.abs(ghost_minima(model, mesh))))
    F = scheme.edge_fluxes(np.stack([s.values for s in brk]))
    for branch, s, res in zip(("lower", "upper"), brk, np.max(np.abs(np.diff(F)), axis=-1)):
        if not res <= (tol := 2.0 * TOL_ROOT * (scale + abs(s.flux_level))):
            raise InvariantBreach(f"the {branch} bracket state of flux level {s.flux_level:.17g} "
                                  f"is no fixed point of the Scheme: residual {res:.3e} > {tol:.3e}")
    events = sorted({float(t) for t in snapshot_times if 0.0 < t < t_end})
    events.append(float(t_end))

    snapshots = []
    if t_end > 0 and any(abs(t) <= 1e-14 * max(1.0, t_end) for t in snapshot_times):
        snapshots.append(GridState(u=u.copy(), time=0.0, step_index=0))
    for obs in observers:
        obs.start(scheme, certified, u)

    mass0 = float(np.sum(u)) * mesh.dx
    net_out = 0.0
    rmin, rmax = math.inf, -math.inf
    cmin, cmax = contain
    t = 0.0
    n_steps = 0
    tol_t = 1e-12 * max(1.0, t_end)
    for target in events:
        while t < target - tol_t:
            dt = min(dt_nominal, target - t)
            u_new, f_in, f_out = scheme.step_arrays(u, dt)
            lo, hi = scheme.last_range
            if lo < cmin or hi > cmax:
                raise _breach(lo, hi, contain, "entering step")
            if lo < rmin:
                rmin = lo
            if hi > rmax:
                rmax = hi
            for obs in observers:
                obs.step(u, u_new, dt)
            net_out += dt * (f_out - f_in)
            t += dt
            n_steps += 1
            u = u_new
        t = target
        snapshots.append(GridState(u=u.copy(), time=target, step_index=n_steps))
        if target < t_end:
            _mass_balance(u, mesh.dx, mass0, net_out, target)
    # Every state but the last was checked and measured by the step it entered.
    lo, hi = float(u.min()), float(u.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NumericalError("non-finite state at the end of the run")
    if lo < cmin or hi > cmax:
        raise _breach(lo, hi, contain, "at the end of the run")
    rmin, rmax = min(rmin, lo), max(rmax, hi)
    mass_final, drift = _mass_balance(u, mesh.dx, mass0, net_out, t_end)
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
