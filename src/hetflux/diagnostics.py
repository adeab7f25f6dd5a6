"""Entropy, consistency, and convergence diagnostics for the scheme.

The per-step checks (EntropyCheck, TimeVariation) are run observers: pass
them in run(..., observers=...) and they see every update as it happens,
holding state bounded by the mesh, not by the step count. The others take
a finished state (or run fresh ones at several resolutions). All of them
measure the quantities the method is supposed to control; none feed back
into time stepping.

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
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError
from .flux_model import FluxModel
from .riemann import RiemannSolution, fan_flux, invert_fan, pieces
from .solver import (
    GAUSS_NODES,
    GAUSS_WEIGHTS,
    MAX_AUTO_CELLS,
    Mesh,
    Scheme,
    cone_mesh,
    project_initial,
    run,
)
from .steady import envelope

DEFAULT_K_LEVELS = 33
# EntropyCheck keeps nine (cells x levels) tables, about 58 B per cell-level:
# this many let any automatic mesh run the default levels.
MAX_CELL_LEVELS = MAX_AUTO_CELLS * (DEFAULT_K_LEVELS + 2)
# consistency_rate: successive rates this close count as settled, and the
# finest dx of a sweep is halved at most this often to get there.
_SETTLED = 0.05
_MAX_HALVINGS = 4
# convergence_study, consistency_rate: the way out of a mesh too large to allocate.
_STUDY_ADVICE = "narrow the window or use a coarser dx"
_SWEEP_ADVICE = "use coarser dx_values or a narrower heterogeneity"


# ---------------------------------------------------------------------------
# discrete entropy inequality


@dataclass(frozen=True)
class EntropyReport:
    """Worst-case entropy slack over the steps of a run.

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


def default_k_levels(
    certified: tuple[float, float], u0: np.ndarray, n_levels: int = DEFAULT_K_LEVELS
) -> np.ndarray:
    """Evenly spaced levels across the certified range (lower, upper) that
    run() hands its observers, plus the data extremes."""
    ks = np.linspace(*certified, n_levels)
    extra = np.array([float(np.min(u0)), float(np.max(u0))])
    return np.unique(np.concatenate([ks, extra]))


class EntropyCheck:
    """Run observer evaluating the discrete entropy inequality on every step.

    Pass it in run(..., observers=...), then read report(). Without k_values
    the levels are default_k_levels(certified, u0, n_levels); they run and
    are reported in the caller's order. When u is the state the run's
    Scheme last stepped from (as run() hands it over), the edge terms come
    from that step (Scheme.last_edges); otherwise they are evaluated here.

    Every level takes the one lattice formula: phi from maxima/minima of
    the u and k edge terms, |u_new - k| and sign(u_new - k) d_kk. At a
    level outside the range of u (of u_new) it gives the plain differences
    F(u) - F(k, k) and +-(u_new - k) with the same bits.

    Repeated slack: a cell's slack depends only on its 3-cell stencil of u,
    its u_new and dt. When u is the u_new of the last step seen, dt is
    unchanged and the Scheme's last step took u to u_new, a cell outside its
    last_window kept its stencil and u_new = u, so its slack repeats last
    step's value bit for bit, and a repeated value never strictly beats the
    running worst. So only the window is evaluated, with the same
    max_slack_per_k and worst (k, step, cell). The first step, a new dt and
    a step after a NaN slack evaluate every cell.

    last_window holds the cells [c0, c1) the last step evaluated.

    Sign term: d_kk is +-0.0 on every row whose two edges carry the same
    F(k, k), and there sign(u_new - k) d_kk dt is +-0.0 (NaN where u_new
    is NaN, whose slack is NaN already). Adding +-0.0 changes no slack but
    a -0.0 one, and the slack before this term is -0.0 only if both of its
    terms are: (|u_new - k| - |u - k|) dx, a difference of two numbers
    >= +0.0, is -0.0 only when a negative difference at the subnormal scale
    underflows. So start finds the rows [kk0, kk1) holding every nonzero
    d_kk (the heterogeneity's; none when X = 0), and a step evaluates the
    term only on its window's rows among them.

    Layout: every (cells x levels) table is cell-major, C-contiguous, so the
    window [c0, c1) of a step is one contiguous block of rows. start
    allocates all of them once: the k edge terms, d_kk, the levels along
    the cells, four work arrays and the carried |u - k|, kept since a
    window overwrites only its rows. A step copies u's terms and states
    along the levels into the work arrays, so no operand of a (cells x
    levels) operation is broadcast or strided and numpy runs every one
    without iteration buffers: step allocates only O(K) and the
    temporaries of a flux with no freeze hook that fills out.
    """

    def __init__(
        self, k_values: Optional[Sequence[float]] = None, n_levels: int = DEFAULT_K_LEVELS
    ):
        self.k_values = None if k_values is None else np.asarray(k_values, dtype=float)
        if self.k_values is not None and (self.k_values.ndim != 1 or self.k_values.size == 0):
            raise ConfigError("k_values must be a non-empty 1d sequence")
        self.n_levels = n_levels
        self._n_steps = 0

    def check_budget(self, n_cells: int) -> None:
        """Refuse, with ConfigError, tables of more than MAX_CELL_LEVELS
        cell-levels on n_cells cells. It needs only the mesh's size, so a
        caller can ask before anything is built; start asks again."""
        # The default levels are at most n_levels and the two data extremes.
        n_k = self.n_levels + 2 if self.k_values is None else self.k_values.size
        if n_cells * n_k > MAX_CELL_LEVELS:
            raise ConfigError(
                f"the entropy check needs {n_k:.3g} levels on {n_cells} cells, more than "
                f"{MAX_CELL_LEVELS:.3g} cell-levels; lower diagnostics.k_levels or "
                "use a coarser mesh.dx")

    def start(self, scheme: Scheme, certified: tuple[float, float], u0: np.ndarray) -> None:
        ks, n = self.k_values, scheme.mesh.n_cells
        self.check_budget(n)
        if ks is None:
            ks = default_k_levels(certified, u0, self.n_levels)
        self._scheme, self._ks = scheme, ks
        n_k = ks.size
        # The k edge terms and d_kk, the difference of F(k, k), are time
        # independent. Each level-major temporary is freed once transposed.
        k_sides = scheme.edge_sides(np.broadcast_to(self._ks[:, None], (n_k, n)))
        self._kl, self._kr = (np.ascontiguousarray(side.T) for side in k_sides)
        del k_sides
        f_kk = np.maximum(self._kl, self._kr)
        self._d_kk = np.subtract(f_kk[1:], f_kk[:-1])
        del f_kk
        # The cells [kk0, kk1) hold every nonzero d_kk: the sign term's rows.
        rows = np.flatnonzero(np.any(self._d_kk != 0.0, axis=1))
        self._kk0, self._kk1 = (int(rows[0]), int(rows[-1]) + 1) if rows.size else (0, 0)
        self._k_rows = np.tile(ks, (n, 1))  # the levels along the cells
        self._work, self._abs_old = np.empty((4, n + 1, n_k)), np.empty((n, n_k))
        self._sides = np.empty((n + 1, 2))  # edge_sides of a u not last stepped from
        self._carried, self._dt = None, None  # the last u_new (|u_new - k| in _abs_old) and dt
        self._clean = True  # no NaN slack in the last step
        self._max_slack = np.full(n_k, -np.inf)
        self._worst = (-math.inf, 0, 0, 0)  # slack, k index, step, cell
        self._n_steps = 0

    def step(self, u: np.ndarray, u_new: np.ndarray, dt: float) -> None:
        sch = self._scheme
        last = sch.last_edges
        # The edge terms of u, and the cells [c0, c1) whose slack can differ
        # from last step's (see Repeated slack).
        if last is None or last[0] is not u:
            a, b = sch.edge_sides(u, out=self._sides)
            c0, c1 = 0, u.size
        else:
            a, b = last[1], last[2]
            if u is self._carried and dt == self._dt and self._clean and sch.band[0] is u_new:
                c0, c1 = sch.last_window
            else:
                c0, c1 = 0, u.size
        # Cells [c0, c1) and their edges [c0, c1], rows of the work arrays.
        m, e = c1 - c0, slice(c0, c1 + 1)
        p, q, r, s = self._work[:, :m + 1]
        kl, kr, ks = self._kl[e], self._kr[e], self._k_rows[:m]
        # h_l rises on [alpha_l, inf) and h_r falls on (-inf, alpha_r], so the
        # terms of F(max(u, k)) and F(min(u, k)) are maxima/minima of u and k
        # terms: phi = max(max(a, kl), min(b, kr)) - max(min(a, kl), max(b, kr)).
        np.copyto(r, a[e, None])
        np.copyto(s, b[e, None])
        np.maximum(np.maximum(r, kl, out=p), np.minimum(s, kr, out=q), out=p)
        np.maximum(np.minimum(r, kl, out=q), np.maximum(s, kr, out=r), out=q)
        np.subtract(p, q, out=p)
        # slack = (|u_new - k| - |u - k|) dx + (phi_{j+1/2} - phi_{j-1/2}) dt
        #         + sign(u_new - k) d_kk dt
        abs_old = self._abs_old
        if u is not self._carried:  # a full window: m = n
            np.copyto(abs_old, u[:, None])
            np.abs(np.subtract(abs_old, ks, out=abs_old), out=abs_old)
        du = r[:m]
        np.copyto(du, u_new[c0:c1, None])
        np.subtract(du, ks, out=du)
        new, old = np.abs(du, out=s[:m]), abs_old[c0:c1]
        slack = np.subtract(new, old, out=old)
        slack *= sch.mesh.dx
        dphi = np.subtract(p[1:], p[:-1], out=q[:m])
        dphi *= dt
        slack += dphi
        j0, j1 = max(c0, self._kk0) - c0, min(c1, self._kk1) - c0
        if j0 < j1:  # rows with d_kk = +-0.0 add +-0.0 (see Sign term)
            d, rows = du[j0:j1], slack[j0:j1]
            np.multiply(np.sign(d, out=d), self._d_kk[c0 + j0:c0 + j1], out=d)
            np.add(rows, np.multiply(d, dt, out=d), out=rows)
        # The first level reaching the overall max holds the row-major
        # argmax of the (levels x cells) slack; a NaN level max propagates
        # to max_slack and never beats the worst.
        level_max = np.maximum.reduce(slack, axis=0)
        np.maximum(self._max_slack, level_max, out=self._max_slack)
        ik = int(level_max.argmax())
        top = float(level_max[ik])
        if top > self._worst[0]:
            column = slack[:, ik]
            jc = int(column.argmax())
            self._worst = (float(column[jc]), ik, self._n_steps, c0 + jc)
        np.copyto(old, new)  # the carry: |u_new - k| is the next step's |u - k|
        self._carried, self._dt, self._clean = u_new, dt, not math.isnan(top)
        self.last_window = (c0, c1)
        self._n_steps += 1

    def report(self) -> EntropyReport:
        if self._n_steps == 0:
            raise ConfigError("entropy check observed no step; run with t_end > 0")
        slack, ik, step, cell = self._worst
        return EntropyReport(k_values=self._ks, max_slack_per_k=self._max_slack.copy(),
                             worst_slack=slack, worst_k=float(self._ks[ik]), worst_step=step,
                             worst_cell=cell, n_steps=self._n_steps)


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
) -> ConsistencyReport:
    """Measure max_j |F_{j+1/2}(k, k) - H(x_{j+1}, k)| across a dx sweep.

    The deviation vanishes identically where the flux is frozen in x, so the
    max is taken over solver.cone_mesh of [-X, X] with pad 4, the window rule
    of every automatic mesh (one of more than MAX_AUTO_CELLS cells is refused
    before anything is allocated). For smooth heterogeneity the deviation
    is first order in dx. The slope is the rate
    log(d_i / d_{i-1}) / log(dx_i / dx_{i-1}) of the finest pair; while it
    differs from the rate of the pair before by more than _SETTLED, the
    sweep is still pre-asymptotic and the finest dx is halved again, at
    most _MAX_HALVINGS times. `exact` is set when every deviation sits at
    rounding level, which is the homogeneous (X = 0) signature.
    """
    k = float(k)
    if dx_values is None:
        dx_values = [0.1 / 2**i for i in range(5)]
    dxs = sorted({float(dx) for dx in dx_values}, reverse=True)
    if not dxs or dxs[-1] <= 0:
        raise ConfigError("dx_values must be positive")

    def deviation(dx: float) -> float:
        mesh = cone_mesh(model, 0.0, 0.0, 0.0, dx, pad=4, advice=_SWEEP_ADVICE)
        sch = Scheme(model, mesh, lipschitz=1.0)
        f_kk = sch.edge_fluxes(np.full(mesh.n_cells, k))
        target = np.asarray(model.h(sch.xc_ext[1:], k), dtype=float)
        return float(np.max(np.abs(f_kk - target)))

    devs = [deviation(dx) for dx in dxs]
    scale = 1.0 + float(np.max(np.abs(model.curve.flux(k))))
    exact = all(d <= 1e-14 * scale for d in devs)
    for halving in range(_MAX_HALVINGS + 1):
        if exact or 0.0 in devs:
            break
        rates = np.diff(np.log(devs)) / np.diff(np.log(dxs))
        if halving == _MAX_HALVINGS or rates.size > 1 and abs(rates[-1] - rates[-2]) <= _SETTLED:
            break
        dxs.append(dxs[-1] / 2)
        devs.append(deviation(dxs[-1]))
    slope = math.inf if exact or 0.0 in devs else float(rates[-1])
    return ConsistencyReport(
        k=k, dx_values=np.asarray(dxs), deviations=np.asarray(devs), slope=slope, exact=exact
    )


# ---------------------------------------------------------------------------
# error against an exact Riemann solution


def _gauss_nodes(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(half, xs): the half widths of the segments [a_i, b_i] and their
    5-point Gauss nodes, shape (n, 5), one row per segment. The integral of
    f over segment i is half[i] * (f(xs[i]) @ GAUSS_WEIGHTS)."""
    half = 0.5 * (b - a)
    return half, (0.5 * (a + b))[:, None] + half[:, None] * GAUSS_NODES


def riemann_error(
    u: np.ndarray,
    mesh: Mesh,
    sol: RiemannSolution,
    t: float,
    window: tuple[float, float],
    norm: str = "l1",
) -> float:
    """Norm of (numerical - exact) over a window at time t.

    The integral is evaluated over riemann.pieces(sol, t), the exact
    profile's intervals, over all cells at once: constant pieces contribute
    in closed form, fan pieces via 5-point Gauss segments per cell. For the
    L1 norm the single sign change the integrand can have inside a fan lands
    at x = t f'(u_j), f the fan's flux (riemann.fan_flux), so the split point
    is explicit and no quadrature error leaks through the kink.

    A fan piece inverts the fan once, at the nodes of both halves of its
    cells (the halves before and after the split points, the second only
    where a cell is split), and splits the values before each half's
    weighted sum, so each sum has the operands, in the order, of an
    inversion of its half alone.
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
    for wlo, whi, wave, const in pieces(sol, t):
        s0 = np.maximum(a, wlo)
        s1 = np.minimum(b, whi)
        cut = s1 > s0
        s0, s1, uj = s0[cut], s1[cut], u[cut]
        if wave is None:
            total += float(np.sum(np.abs(uj - const) ** power * (s1 - s0)))
            continue
        lo, hi, n = s0, s1, s0.size
        if power == 1:
            # u_j - fan(x) is monotone in x; it changes sign only where the
            # characteristic through u_j lands.
            cross = t * np.asarray(fan_flux(sol, wave).df(uj), dtype=float)
            split = (s0 < cross) & (cross < s1)
            mid = np.where(split, cross, s1)
            lo, hi = np.concatenate((s0, mid[split])), np.concatenate((mid, s1[split]))
            uj = np.concatenate((uj, uj[split]))
        half, xs = _gauss_nodes(lo, hi)
        err = uj[:, None] - invert_fan(sol, wave, xs / t)
        if power == 2:
            total += float(np.sum(half * (err**2 @ GAUSS_WEIGHTS)))
            continue
        for part in (slice(None, n), slice(n, None)):
            total += float(np.sum(np.abs(half[part] * (err[part] @ GAUSS_WEIGHTS))))
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


def convergence_study(
    model: FluxModel,
    datum,
    t_end: float,
    window: tuple[float, float],
    dx_values: Sequence[float],
    reference: str = "exact",
    exact: Optional[RiemannSolution] = None,
    safety: float = 0.9,
) -> ConvergenceReport:
    """L1 convergence of the scheme on a fixed window under mesh refinement.

    Each level runs on solver.cone_mesh of the window with reach L * t_end,
    L the envelope's over the range of the datum's projected cells on that
    mesh with reach 0 at the finest dx. It holds the window and [-X, X],
    each widened by that reach, so boundary replication cannot pollute the
    measured window and run() sees its whole influence cone. Each level
    steps at safety dx / (2 L) with L over its own bracket (see run), so
    the sweep refines space and time together at a near-fixed ratio.

    reference='exact' compares against a supplied Riemann solution, which
    is only meaningful when the model's heterogeneity is the two-flux jump
    the solution was built for. reference='fine_grid' runs one extra level
    4 times finer than the finest requested and measures against it.
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

    u0 = project_initial(datum, cone_mesh(model, *window, 0.0, dxs[-1], advice=_STUDY_ADVICE)).u
    margin = envelope(model, None, u0.min(), u0.max()).lipschitz * t_end

    def run_level(dx: float) -> tuple[np.ndarray, Mesh, int]:
        mesh = cone_mesh(model, *window, margin, dx, advice=_STUDY_ADVICE)
        res = run(model, mesh, datum, t_end, safety=safety)
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
        u_ref, mesh_ref, _ = run_level(dxs[-1] / 4)
        errors = np.array(
            [
                norm_between_grids(u, mesh, u_ref, mesh_ref, window)
                for u, mesh, _ in levels
            ]
        )
        ref_name = f"fine_grid(dx={dxs[-1] / 4:.4g})"
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


class TimeVariation:
    """Run observer summing (u^{n+1}_j - u^n_j)^2 dx over steps and cells,
    optionally over the cells whose centers lie in a window.

    Boundedness of this functional under refinement is the compactness-side
    stability estimate; it is what the refinement sweep in the test suite
    monitors. Read `value` after the run.
    """

    def __init__(self, window: Optional[tuple[float, float]] = None):
        self.window = window
        self._sum = self._dx = 0.0

    def start(self, scheme: Scheme, certified: tuple[float, float], u0: np.ndarray) -> None:
        self._sum, self._dx, xc = 0.0, scheme.mesh.dx, scheme.mesh.centers()
        w = self.window
        self._cells = slice(None) if w is None else (xc >= w[0]) & (xc <= w[1])

    def step(self, u: np.ndarray, u_new: np.ndarray, dt: float) -> None:
        d = (u_new - u)[self._cells]
        self._sum += float(np.dot(d, d))

    @property
    def value(self) -> float:
        return self._sum * self._dx
