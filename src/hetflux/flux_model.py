"""Flux models H(x, u) for scalar conservation laws u_t + H(x, u)_x = 0.

A model bundles the flux and its first derivatives plus the radius X of the
compact region carrying all x-dependence: for |x| >= X the flux is frozen to
its value at sign(x) * X. In state, the flux is convex with u -> du_h(x, u) a
strictly increasing map onto the real line, so H(x, .) has a unique minimizer
alpha(x) (the critical point) and two monotone branches on either side of it.

Concave fluxes (road-traffic type) are handled by the substitution u -> -u,
which turns them convex: such a model stores the convex flux of the
substituted state, carries orientation "concave", and callers convert states
at the input/output boundary with to_internal/to_physical.

All callables are expected to broadcast over numpy arrays in both arguments.
The critical point and the inversions of H(x, .) are parts of the frozen
flux (frozen_flux): closed forms where the freeze hook gives them, else one
vectorized root solve over all their points. invert_branch and
legendre_transform check their residuals, and a scalar comes back from
them as a float; interface.FluxSide.from_model(model, x) gives alpha(x)
and the branch inverses at the positions x. A branch is a sign, +1 for the
plus branch and -1 for the minus one, that broadcasts against the levels,
so both branches invert in one solve.

What depends on the flux alone is computed once per model instance, on
first use: the critical curve and the flux frozen at its samples
(FluxModel.curve), the Legendre bound sup L(x, +-1) (FluxModel.legendre_sup_1),
the findings of validate_assumptions (FluxModel.violations), and the
MeshTables of the last mesh asked for (mesh_tables): the ghost-extended
cell centers with alpha and the flux frozen there, and the edge-pair
table the edge fluxes and the Scheme read, O(N + ALPHA_GRID_SAMPLES) values
per model. A dataclasses.replace copy starts with none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NumericalError
from .rootfind import TOL_ROOT, check_residual, solve_increasing

# Inversions h(x, .) = y tolerate y this far below the minimum before failing;
# such y are clamped to the minimum and the critical point is returned.
CLAMP_SLACK = 1e-10

ALPHA_GRID_SAMPLES = 4096


@dataclass(frozen=True, eq=False)
class FluxModel:
    """Heterogeneous convex flux H(x, u) with derivatives.

    h, du_h, dx_h: callables (x, u) -> values, numpy-broadcastable.
    hetero_radius: X >= 0; H(x, .) == H(sign(x) X, .) for |x| >= X, so the
        setup's root solves over a mesh run once per exterior side.
    orientation: "convex", or "concave" when h, du_h and dx_h act on the
        substituted state -u of a concave physical flux (see to_internal).
    freeze: optional xs -> f, with f(u, out=None) = H(xs, u), that evaluates
        the x-dependent coefficients once; frozen_flux completes what f
        lacks of its contract. None freezes as h(xs, u). An f without
        f.at(index) is frozen again, by a new call of the hook on a range
        of whole blocks of edges, whenever the band crosses into another
        block (see solver.Scheme): a costly hook wants an at that slices.
        f may give its critical points and inverses too (see frozen_flux).
        Each freezing compares f with h and du_h, unless both carry
        frozen_by naming this hook (see frozen_flux).

    The model is immutable, so `curve`, `legendre_sup_1`, `violations` and
    the MeshTables of its last mesh (mesh_tables; after a run, up to 64 B
    per cell for a built-in family's pair table) are cached in the instance
    on first access; a dataclasses.replace copy recomputes them.
    """

    h: Callable
    du_h: Callable
    dx_h: Callable
    hetero_radius: float
    orientation: str = "convex"
    name: str = "custom"
    freeze: Optional[Callable] = None

    def __post_init__(self):
        if self.hetero_radius < 0:
            raise ValueError("hetero_radius must be >= 0")
        if self.orientation not in ("convex", "concave"):
            raise ValueError(f"unknown orientation {self.orientation!r}")

    @cached_property
    def curve(self) -> CriticalCurve:
        """The sampled critical curve, CriticalCurve.build(self)."""
        return CriticalCurve.build(self)

    @cached_property
    def legendre_sup_1(self) -> float:
        """legendre_sup(self, 1.0), the slope-1 bound of the envelope."""
        return legendre_sup(self, 1.0)

    @cached_property
    def violations(self) -> tuple:
        """The Violations validate_assumptions reports, found once."""
        return _find_violations(self)

    def to_internal(self, u):
        """Map a physical state to solver coordinates (negation iff concave).
        The map is its own inverse, so to_physical is the same map."""
        return -np.asarray(u, dtype=float) if self.orientation == "concave" else u

    to_physical = to_internal


def frozen_flux(model: FluxModel, xs) -> Callable:
    """f(u, out=None) = H(xs, u), the flux frozen at the positions xs, with
    its slope f.du(u) = du_h(xs, u), f.at(index), the flux frozen at
    xs[index], for any numpy index (say, a range of columns), f.alpha(), the
    minimizers alpha(xs), and two inverses, unchecked (their callers bound
    the residuals): f.inverse(y, sign, alpha), s with sign (s - alpha) >= 0
    and f(s) = y for levels y >= f(alpha), sign +1 (the plus branch) or -1
    (the minus one), broadcasting against y; and f.du_inverse(v, seed=0.0),
    p with f.du(p) = v, the seed a guess of p that a closed form ignores.

    The one contract: f broadcasts u against xs; given an array out (which
    may be u itself), f writes the result there and returns out; its parts
    are always there, with the same bits as f, and every f.at(index) keeps
    the contract. A freeze hook evaluates the x-dependent coefficients once;
    the default freezing is u -> h(xs, u). f wraps the hook, at every level
    of at, and gives it what it lacks: a result not written into out is
    copied there, du calls du_h at xs, at freezes again, unchecked, at
    xs[index] (positions in the checked xs): a costly freezing wants an at;
    alpha is the root solve of f.du (a hook's alpha is broadcast to
    xs.shape), inverse one seeded at alpha (_branch_solve), du_inverse one
    from the bracket [seed - 1, seed + 1].

    A dataclasses.replace copy with a new h keeps the old hook, so f is
    checked against h (f.du against du_h) at xs for u = 0 and 1, with and
    without out, and a hook's alpha by |du_h(xs, alpha)| <= 1e-12: a
    difference, or a hook taking no out=, raises ConfigError. The check is
    skipped when h and du_h both carry frozen_by naming model.freeze (the
    built-in families, whose h and du_h evaluate that hook): then only a
    non-finite f.du at u = 0, 1 or alpha, an overflowing coefficient,
    raises ConfigError.
    """
    xs = np.asarray(xs, dtype=float)
    hook = _freeze(model, xs)
    f = _completed(model, xs, hook)
    if model.freeze is None:
        return f
    probe = np.stack((np.zeros(xs.shape), np.ones(xs.shape)))
    if getattr(model.h, "frozen_by", None) is getattr(model.du_h, "frozen_by", None) is model.freeze:
        if not np.all(np.isfinite(f.du(np.concatenate((probe, f.alpha()[None]))))):
            raise ConfigError(f"flux model {model.name!r}: du_h is not finite at u = 0, 1 "
                              "or alpha (a coefficient overflows)")
        return f
    want = model.h(xs, probe)
    try:
        into_out = f(probe, out=np.empty_like(probe))
    except TypeError as exc:
        raise ConfigError(
            f"flux model {model.name!r}: freeze hook must return f(u, out=None) ({exc})"
        ) from exc
    # One du_h call: at the probe, and at the hook's alpha, if it gives one.
    rows = (probe, f.alpha()[None]) if getattr(hook, "alpha", None) else (probe,)
    slope = np.asarray(model.du_h(xs, np.concatenate(rows)), dtype=float)
    if not (np.array_equal(f(probe), want) and np.array_equal(into_out, want)
            and np.array_equal(f.du(probe), slope[:2])):
        raise ConfigError(f"flux model {model.name!r}: freeze hook disagrees with h")
    if not np.all(np.abs(slope[2:]) <= TOL_ROOT):
        raise ConfigError(f"flux model {model.name!r}: freeze hook's alpha is no root of du_h")
    return f


def _freeze(model: FluxModel, xs: np.ndarray) -> Callable:
    """The model's freeze hook at xs, or the default freezing u -> h(xs, u)."""
    return (lambda u, out=None: model.h(xs, u)) if model.freeze is None else model.freeze(xs)


def _completed(model: FluxModel, xs: np.ndarray, hook: Callable) -> Callable:
    """hook, the flux frozen at xs, under the frozen_flux contract."""

    def f(u, out=None):
        val = hook(u, out=out)
        if out is None:
            return np.asarray(val, dtype=float)
        if val is not out:
            out[...] = val
        return out

    f.du = getattr(hook, "du", None) or (lambda u: np.asarray(model.du_h(xs, u), dtype=float))
    alpha = getattr(hook, "alpha", None)
    f.alpha = (lambda: np.broadcast_to(alpha(), xs.shape).astype(float)) if alpha else (
        lambda: solve_increasing(f.du, xs.shape))
    f.inverse = getattr(hook, "inverse", None) or partial(_branch_solve, f)
    f.du_inverse = getattr(hook, "du_inverse", None) or (lambda v, seed=0.0: solve_increasing(
        lambda p: f.du(p) - v, np.broadcast(xs, v).shape, lo0=seed - 1.0, hi0=seed + 1.0,
        tol_res=np.inf))
    at = getattr(hook, "at", None) or (lambda index: _freeze(model, xs[index]))
    f.at = lambda index: _completed(model, xs[index], at(index))
    return f


@dataclass(frozen=True, eq=False)
class CriticalCurve:
    """Sampled critical curve alpha(x), its extremes over the line, the
    floor max_x H(x, alpha(x)), the lowest flux level every position
    carries, and flux = frozen_flux(model, xs), frozen once for the sups
    over x of lipschitz_bound and the envelope (steady.envelope).

    alpha is constant for |x| >= hetero_radius, so sampling [-X, X] plus the
    boundary captures inf/sup alpha exactly up to grid resolution.
    """

    xs: np.ndarray
    alphas: np.ndarray
    alpha_min: float
    alpha_max: float
    floor: float
    flux: Callable

    @classmethod
    def build(cls, model: FluxModel):
        X = model.hetero_radius
        if X == 0.0:
            xs = np.array([0.0])
        else:
            # Include the center: bump-built coefficient curves peak there and
            # an even linspace count would skip it.
            xs = np.union1d(np.linspace(-X, X, ALPHA_GRID_SAMPLES), [0.0])
        f = frozen_flux(model, xs)
        alphas = f.alpha()
        # Shared by every caller of model.curve.
        xs.flags.writeable = alphas.flags.writeable = False
        return cls(
            xs=xs,
            alphas=alphas,
            alpha_min=float(np.min(alphas)),
            alpha_max=float(np.max(alphas)),
            floor=float(np.max(f(alphas))),
            flux=f,
        )


def lipschitz_bound(model: FluxModel, lo: float, hi: float) -> float:
    """sup |du_h| over all x and states in [lo, hi].

    du_h(x, .) is increasing, so the sup in u sits at the interval endpoints;
    the sup in x is over the heterogeneity samples (flux frozen outside), of
    the slope of model.curve.flux, the flux the model keeps frozen there.
    """
    du = model.curve.flux.du
    return float(max(np.max(np.abs(du(float(lo)))), np.max(np.abs(du(float(hi))))))


@dataclass(frozen=True, eq=False)
class MeshTables:
    """What a model keeps for one mesh (mesh_tables): the read-only centers
    xc_ext with a ghost cell per side on its boundary cell's center, alpha
    (al_ext) and the flux (flux) there, scale = 1 + max |flux(al_ext)| for
    run()'s certificate, the flux on the interior distinct_span (span_flux),
    span, spread, and h_pair, flux at the (N+1, 2) edges, when the edge
    fluxes or a Scheme first ask."""

    mesh: object
    xc_ext: np.ndarray
    al_ext: np.ndarray
    flux: Callable
    scale: float
    span_flux: Callable
    span: slice
    spread: Callable

    @cached_property
    def h_pair(self) -> Callable:
        return self.flux.at(np.arange(self.mesh.n_cells + 1)[:, None] + np.arange(2))

    def edge_sides(self, u: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
        """The two terms of the interface flux at every edge, for cell states
        u of shape (..., n_cells): h_l(max(u_l, alpha_l)) and
        h_r(min(alpha_r, u_r)), the two columns of the optional
        C-contiguous (..., n_cells + 1, 2) array out, the pair layout of
        h_pair and of the Scheme's step kernel. Ghost cells replicate the
        boundary cells."""
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


def mesh_tables(model: FluxModel, mesh) -> MeshTables:
    """The MeshTables of mesh, kept in the model for the last mesh asked about:
    a run's steady states, bracket and Schemes share one solve, freeze and table."""
    tables = model.__dict__.get("_mesh_tables")
    if tables is None or tables.mesh != mesh:
        xc = mesh.centers()
        xc_ext = np.concatenate((xc[:1], xc, xc[-1:]))
        # The span of the interior centers: xc_ext repeats its ends.
        span, spread = distinct_span(model, xc)
        f = frozen_flux(model, xc_ext)
        fs = f.at(slice(1, -1)).at(span)
        al = spread(fs.alpha())
        al_ext = np.concatenate((al[:1], al, al[-1:]))
        xc_ext.flags.writeable = al_ext.flags.writeable = False
        # Written like a cached_property: the frozen dataclass has a __dict__.
        tables = model.__dict__["_mesh_tables"] = MeshTables(
            mesh, xc_ext, al_ext, f, 1.0 + float(np.max(np.abs(f(al_ext)))), fs, span, spread)
    return tables


def distinct_span(model: FluxModel, xs: np.ndarray) -> tuple[slice, Callable]:
    """(span, spread): the slice of the strictly increasing positions xs
    (repeated ones can leave it empty) whose fluxes can differ, every x in
    (-X, X) and the nearest x with |x| >= X on each side, which carries the
    flux of the rest of its side; and spread(v), which replicates values at
    xs[span], along v's last axis, onto the rest, as the ghost cells do. An
    elementwise solve on the span, spread, has the bits of one at all of xs."""
    X = model.hetero_radius
    a = max(int(np.searchsorted(xs, -X, side="right")) - 1, 0)
    b = int(np.searchsorted(xs, X, side="left")) + 1
    shift = np.arange(len(xs)) - a
    return slice(a, b), lambda v: v.take(shift, axis=-1, mode="clip")


def _branch_solve(f: Callable, y, sign, alpha) -> np.ndarray:
    """f.inverse by a root solve: s on the branch of a convex f that sign
    (+1 plus, -1 minus, broadcasting against y) names, with f(s) = y; a
    level below the minimum f(alpha) gives alpha. Every element is one
    problem of the one solve, both branches too.

    The solve runs along the branch, in x = s on the plus side and x = -s
    on the minus side, so that x grows away from alpha, on
    phi(x) = sqrt(f(s) - f(alpha)) - sqrt(y - f(alpha)), with each element's
    bracket seeded at its own alpha end, x = +-alpha, where phi <= 0. This is
    the branch coordinate r = |s - alpha| shifted by +-alpha, so the solver's
    stop rule counts ulps of s, the precision the result can have (in r it
    would ask for ulps of r, which s = alpha +- r cannot resolve when
    r << |alpha|). Near the minimum f - y has a near-double root, where
    interpolation fails and the solver (see rootfind) bisects; phi has a
    simple root there (linear in r for a quadratic f), so a level 1e-218
    above the minimum takes as few evaluations as any other.
    """
    a = np.asarray(alpha, dtype=float)
    sign = np.asarray(sign, dtype=float)
    hmin = np.asarray(f(a), dtype=float)
    depth = np.sqrt(np.maximum(y - hmin, 0.0))
    # f(s) rounds below f(alpha) near alpha; phi is flat there.
    phi = lambda x: np.sqrt(np.maximum(np.asarray(f(sign * x), dtype=float) - hmin, 0.0)) - depth
    return sign * solve_increasing(phi, np.broadcast(hmin, y, sign).shape, lo0=sign * a,
                                   hi0=sign * a + 1.0, tol_res=np.inf)


def side_sign(side: str) -> float:
    """The sign of a branch word: +1.0 for "plus", -1.0 for "minus"."""
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    return 1.0 if side == "plus" else -1.0


def invert_branch(f: Callable, alpha, y, sign):
    """Solve f(s) = y on one monotone branch of a convex frozen flux f, elementwise.

    f is a frozen flux (see frozen_flux); alpha holds the minimizers of f and
    broadcasts against the levels y and the signs: sign +1 returns the
    solution >= alpha (the plus branch), -1 the one <= alpha (minus), so
    levels and signs stacked along a new axis invert both branches in one
    f.inverse. A level at the minimum returns alpha exactly, and levels
    slightly below it (within 1e-10) are clamped to it and return alpha
    too; any level further below raises NumericalError, naming the one
    furthest below (the first in C order on a tie).

    f.inverse finds s, and s is returned as found: a closed form is exact to
    rounding, and the root solve stops within a few ulps of s. Its residual
    |f(s) - y| is bounded relative to the flux scale, as
    TOL_ROOT * (1 + |y| + |f(alpha)|) per element: f(s) - y is rounded at
    that scale, so an absolute bound would reject exact roots of large
    levels.
    """
    a = np.asarray(alpha, dtype=float)
    y = np.asarray(y, dtype=float)
    hmin = np.asarray(f(a), dtype=float)
    deficit = hmin - y
    if np.any(deficit > CLAMP_SLACK):
        j = np.unravel_index(np.argmax(deficit), deficit.shape)
        raise NumericalError(
            f"branch inversion: level y={float(np.broadcast_to(y, deficit.shape)[j]):g} "
            f"below flux minimum {float(np.broadcast_to(hmin, deficit.shape)[j]):g}"
        )
    clamped = deficit >= 0.0
    # Clamped elements target their own minimum.
    y_eff = np.maximum(y, hmin)
    out = np.asarray(f.inverse(y_eff, sign, a), dtype=float)
    check_residual(np.abs(f(out) - y_eff), TOL_ROOT * (1.0 + np.abs(y_eff) + np.abs(hmin)))
    out = np.where(clamped, a, out)
    return float(out) if out.ndim == 0 else out


def legendre_transform(model: FluxModel, x, v):
    """L(x, v) = sup_p (p v - H(x, p)), attained where du_h(x, p) = v.

    Broadcasts over x and v. The slope equation is solved by the frozen
    flux's f.du_inverse, to a residual of 1e-12 * (1 + |v|).
    """
    xs = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    f = frozen_flux(model, xs)
    ps = np.broadcast_to(f.du_inverse(v), np.broadcast(xs, v).shape)
    check_residual(np.abs(f.du(ps) - v), TOL_ROOT * (1.0 + np.abs(v)))
    val = ps * v - f(ps)
    return float(val) if val.ndim == 0 else val


def legendre_sup(model: FluxModel, lam: float) -> float:
    """sup over x and |v| <= lam of L(x, v).

    L(x, .) is convex (a sup of affine functions), so the v-sup sits at the
    endpoints +-lam. The x-sup is over [-X, X] (the flux is frozen outside);
    the grid is refined until the value is stable to 1e-10 * (1 + |value|).
    """
    lam = abs(float(lam))
    X = model.hetero_radius

    def sup_on(xs):
        # One solve for both slopes: row 0 is +lam, row 1 is -lam.
        both = legendre_transform(model, xs, np.array([[lam], [-lam]]))
        return float(np.max(np.maximum(both[0], both[1])))

    if X == 0.0:
        return sup_on(np.array([0.0]))
    n = 513
    prev = sup_on(np.linspace(-X, X, n))
    for _ in range(5):
        n = 2 * n - 1
        cur = sup_on(np.linspace(-X, X, n))
        if abs(cur - prev) <= 1e-10 * (1.0 + abs(cur)):
            return max(cur, prev)
        prev = cur
    return prev


@dataclass(frozen=True)
class Violation:
    kind: str
    x: float
    u: float
    magnitude: float


@dataclass
class ValidationReport:
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return "assumptions hold on the sampled grid"
        lines = [f"{len(self.violations)} violation(s):"]
        for v in self.violations[:20]:
            lines.append(
                f"  {v.kind} at x={v.x:.6g}, u={v.u:.6g}, magnitude {v.magnitude:.3e}"
            )
        if len(self.violations) > 20:
            lines.append(f"  ... {len(self.violations) - 20} more")
        return "\n".join(lines)


def validate_assumptions(model: FluxModel) -> ValidationReport:
    """Report-only spot check of the structural assumptions.

    Checks, on a sampled grid: strict monotonicity of du_h in u (convexity),
    agreement of du_h / dx_h with centered differences of h, and that the flux
    is literally frozen outside the heterogeneity radius. Never raises.
    The findings depend on the model alone, so they are found once per
    instance (FluxModel.violations); each call returns a new report, with
    a new list, over them.
    """
    return ValidationReport(violations=list(model.violations))


@np.errstate(invalid="ignore")  # inf - inf in the differences: only finite points are read
def _find_violations(model: FluxModel) -> tuple:
    """The Violations of validate_assumptions, per kind in checklist order."""
    n_x, n_u, d, tol_fd, tol_exact, max_records = 41, 33, 1e-5, 1e-6, 1e-12, 200
    X = model.hetero_radius
    span = max(X, 0.5)
    xs = np.linspace(-X - 0.5, X + 0.5, n_x) if X > 0 else np.linspace(-0.5, 0.5, n_x)
    us = np.linspace(-3.0, 3.0, n_u)
    XX = xs[:, None]
    UU = us[None, :]
    violations: list[Violation] = []
    per_kind: dict[str, int] = {}

    def record(kind, xi, ui, mag):
        # Cap per kind, not globally: a convexity flood must not hide a
        # compactness breach further down the checklist.
        if per_kind.get(kind, 0) < max_records:
            per_kind[kind] = per_kind.get(kind, 0) + 1
            violations.append(Violation(kind, float(xi), float(ui), float(mag)))

    H, DU, DX = (np.broadcast_to(np.asarray(fn(XX, UU), dtype=float), (n_x, n_u))
                 for fn in (model.h, model.du_h, model.dx_h))
    # NaN or inf in h, du_h or dx_h; the later checks, whose comparisons a
    # NaN passes, read only the finite points (ok).
    mag = np.max(np.abs((H, DU, DX)), axis=0)
    ok = np.isfinite(mag)
    for i, j in np.argwhere(~ok):
        record("non-finite", xs[i], us[j], mag[i, j])

    # (CVX): du_h strictly increasing along u.
    diffs = np.diff(DU, axis=1)
    for i, j in np.argwhere(ok[:, 1:] & ok[:, :-1] & (diffs <= 0.0)):
        record("convexity", xs[i], us[j], diffs[i, j])

    # Derivative consistency, centered differences in u and in x.
    FDU = (np.asarray(model.h(XX, UU + d), dtype=float) - np.asarray(model.h(XX, UU - d), dtype=float)) / (2 * d)
    err = np.abs(np.broadcast_to(FDU, (n_x, n_u)) - DU)
    for i, j in np.argwhere(ok & (err > tol_fd * (1.0 + np.abs(DU)))):
        record("derivative-mismatch-u", xs[i], us[j], err[i, j])

    # A narrow bump's truncation error d^2/6 h_xxx grows like 1/X^3, so an
    # x-miss counts only if it stays at d/2, where that error is 4x smaller.
    def miss_x(s):
        fd = np.asarray(model.h(XX + s, UU), dtype=float) - np.asarray(model.h(XX - s, UU), dtype=float)
        return np.abs(fd / (2 * s) - DX)

    err, tol = miss_x(d), tol_fd * (1.0 + np.abs(DX))
    for i, j in np.argwhere(ok & (err > tol) & (miss_x(d / 2) > tol)):
        record("derivative-mismatch-x", xs[i], us[j], err[i, j])

    # (CH): frozen flux outside the radius, against a finite h(+-X, u). Most
    # points lie off the grid, so a NaN fails not miss <= tol, as +inf does.
    for sgn in (-1.0, 1.0):
        ref = np.asarray(model.h(sgn * X, us), dtype=float)
        tol = tol_exact * (1.0 + np.abs(ref))
        for off in (0.5 * span, 2.0 * span, 16.0 * span):
            xo = sgn * (X + off)
            err = np.abs(np.asarray(model.h(xo, us), dtype=float) - ref)
            for miss in (err, np.abs(np.asarray(model.dx_h(xo, us), dtype=float))):
                for j in np.flatnonzero(np.isfinite(ref) & ~(miss <= tol)):
                    record("heterogeneity-compactness", xo, us[j], miss[j])

    return tuple(violations)
