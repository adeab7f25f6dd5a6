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
The inversions of H(x, .) below (critical_point, branch_inverse,
legendre_transform) run one vectorized root solve over all their points; a
scalar is handled as a 0-d array and comes back as a float.

What depends on the flux alone is computed once per model instance, on
first use: the critical curve (FluxModel.curve), the Legendre bound
sup L(x, +-1) (FluxModel.legendre_sup_1), and alpha at the cell centers of
the last mesh asked for (ghost_alphas). A dataclasses.replace copy starts
with none of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NumericalError
from .rootfind import TOL_ROOT, solve_increasing

# Inversions h(x, .) = y tolerate y this far below the minimum before failing;
# such y are clamped to the minimum and the critical point is returned.
CLAMP_SLACK = 1e-10

ALPHA_GRID_SAMPLES = 4096


@dataclass(frozen=True, eq=False)
class FluxModel:
    """Heterogeneous convex flux H(x, u) with derivatives.

    h, du_h, dx_h: callables (x, u) -> values, numpy-broadcastable.
    hetero_radius: X >= 0; H(x, .) == H(sign(x) X, .) for |x| >= X.
    orientation: "convex", or "concave" when h, du_h and dx_h act on the
        substituted state -u of a concave physical flux (see to_internal).
    alpha_hint: optional analytic critical curve x -> alpha(x); used to seed
        and cross-check root solves, never trusted blindly.
    freeze: optional xs -> f, with f(u, out=None) = H(xs, u), that evaluates
        the x-dependent coefficients once; frozen_flux completes what f
        lacks of its contract. None freezes as h(xs, u).

    The model is immutable, so `curve` and `legendre_sup_1` are cached in
    the instance on first access; a dataclasses.replace copy recomputes them.
    """

    h: Callable
    du_h: Callable
    dx_h: Callable
    hetero_radius: float
    orientation: str = "convex"
    name: str = "custom"
    params: dict = field(default_factory=dict)
    alpha_hint: Optional[Callable] = None
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

    def to_internal(self, u):
        """Map a physical state to solver coordinates (negation iff concave)."""
        return -np.asarray(u, dtype=float) if self.orientation == "concave" else u

    def to_physical(self, u):
        """Inverse of to_internal (its own inverse)."""
        return -np.asarray(u, dtype=float) if self.orientation == "concave" else u


def frozen_flux(model: FluxModel, xs) -> Callable:
    """f(u, out=None) = H(xs, u), the flux frozen at the positions xs, with
    its slope f.du(u) = du_h(xs, u) and f.at(index), the flux frozen at
    xs[index], for any numpy index (say, a range of columns).

    The one contract: f broadcasts u against xs; given an array out (which
    may be u itself), f writes the result there and returns out; f.du and
    f.at are always there, with the same bits as f, and every f.at(index)
    keeps the contract. A freeze hook evaluates the x-dependent coefficients
    once; the default freezing is u -> h(xs, u). f wraps the hook, at every
    level of at, and gives it what it lacks: a result not written into out
    is copied there, du calls du_h at xs, and at freezes again, unchecked,
    at xs[index] (positions in the checked xs): a costly freezing wants an at.

    A dataclasses.replace copy with a new h keeps the old hook, so f is
    checked against h (f.du against du_h) at xs for u = 0 and 1, with and
    without out: a difference, or a hook taking no out=, raises ConfigError.
    """
    xs = np.asarray(xs, dtype=float)
    f = _completed(model, xs, _freeze(model, xs))
    if model.freeze is None:
        return f
    probe = np.stack((np.zeros(xs.shape), np.ones(xs.shape)))
    want = model.h(xs, probe)
    try:
        into_out = f(probe, out=np.empty_like(probe))
    except TypeError as exc:
        raise ConfigError(
            f"flux model {model.name!r}: freeze hook must return f(u, out=None) ({exc})"
        ) from exc
    if not (np.array_equal(f(probe), want) and np.array_equal(into_out, want)
            and np.array_equal(f.du(probe), model.du_h(xs, probe))):
        raise ConfigError(f"flux model {model.name!r}: freeze hook disagrees with h")
    return f


def _freeze(model: FluxModel, xs: np.ndarray) -> Callable:
    """The model's freeze hook at xs, or the default freezing u -> h(xs, u)."""
    return (lambda u, out=None: model.h(xs, u)) if model.freeze is None else model.freeze(xs)


def _completed(model: FluxModel, xs: np.ndarray, hook: Callable) -> Callable:
    """hook, the flux frozen at xs, under the frozen_flux contract."""

    def f(u, out=None):
        val = hook(u, out=out)
        if out is None or val is out:
            return np.asarray(val, dtype=float)
        out[...] = val
        return out

    f.du = getattr(hook, "du", None) or (lambda u: np.asarray(model.du_h(xs, u), dtype=float))
    at = getattr(hook, "at", None) or (lambda index: _freeze(model, xs[index]))
    f.at = lambda index: _completed(model, xs[index], at(index))
    return f


def critical_point(model: FluxModel, x):
    """Unique minimizer alpha(x) of H(x, .), the root of du_h(x, .), elementwise.

    The model's alpha_hint is taken when |du_h| <= 1e-9 there at every x;
    otherwise the root solve runs, to a residual |du_h| <= 1e-12.
    """
    xs = np.asarray(x, dtype=float)
    a = None
    if model.alpha_hint is not None:
        hint = np.broadcast_to(
            np.asarray(model.alpha_hint(xs), dtype=float), xs.shape
        ).astype(float)
        # A hint that disagrees with du_h is dropped for the generic solve.
        if np.all(np.abs(np.asarray(model.du_h(xs, hint), dtype=float)) <= 1e-9):
            a = hint
    if a is None:
        a = solve_increasing(frozen_flux(model, xs).du, xs.shape)
    return float(a) if a.ndim == 0 else a


@dataclass(frozen=True, eq=False)
class CriticalCurve:
    """Sampled critical curve alpha(x) with its extremes over the line.

    alpha is constant for |x| >= hetero_radius, so sampling [-X, X] plus the
    boundary captures inf/sup alpha exactly up to grid resolution.
    """

    xs: np.ndarray
    alphas: np.ndarray
    alpha_min: float
    alpha_max: float

    @classmethod
    def build(cls, model: FluxModel):
        X = model.hetero_radius
        if X == 0.0:
            xs = np.array([0.0])
        else:
            # Include the center: bump-built coefficient curves peak there and
            # an even linspace count would skip it.
            xs = np.union1d(np.linspace(-X, X, ALPHA_GRID_SAMPLES), [0.0])
        alphas = critical_point(model, xs)
        # Shared by every caller of model.curve.
        xs.flags.writeable = alphas.flags.writeable = False
        return cls(
            xs=xs,
            alphas=alphas,
            alpha_min=float(np.min(alphas)),
            alpha_max=float(np.max(alphas)),
        )


def ghost_alphas(model: FluxModel, mesh) -> tuple[np.ndarray, np.ndarray]:
    """Read-only centers of mesh with one ghost cell per side, and alpha at
    them. The model keeps them for the last mesh asked about, so the steady
    states and the Scheme of a run share one solve."""
    memo = model.__dict__.get("_ghost_alphas")
    if memo is None or memo[0] != mesh:
        xc = mesh.centers()
        xc_ext = np.concatenate(([xc[0] - mesh.dx], xc, [xc[-1] + mesh.dx]))
        al_ext = critical_point(model, xc_ext)
        xc_ext.flags.writeable = al_ext.flags.writeable = False
        # Written like a cached_property: the frozen dataclass has a __dict__.
        memo = model.__dict__["_ghost_alphas"] = (mesh, xc_ext, al_ext)
    return memo[1], memo[2]


def invert_branch(f: Callable, df: Callable, alpha, y, side: str):
    """Solve f(s) = y on one monotone branch of a convex f, elementwise.

    f and df broadcast over arrays; alpha holds the minimizers of f and
    broadcasts against the levels y. side "plus" returns the solution >= alpha,
    "minus" the one <= alpha. A level at the minimum returns alpha exactly,
    and levels slightly below it (within 1e-10) are clamped to it and return
    alpha too; any level further below raises NumericalError. The residual
    |f(s) - y| is bounded relative to the flux scale, as
    TOL_ROOT * (1 + |y| + |f(alpha)|) per element: f(s) - y is rounded at
    that scale, so an absolute bound would reject exact roots of large levels.
    """
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
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
    # Clamped elements target their own minimum, so the bracketed search below
    # still sees a sign change (y itself sits at or below their range).
    y_eff = np.maximum(y, hmin)
    if side == "plus":
        g = lambda s: np.asarray(f(np.maximum(s, a)), dtype=float) - y_eff
    else:
        g = lambda s: y_eff - np.asarray(f(np.minimum(s, a)), dtype=float)
    out = solve_increasing(
        g,
        deficit.shape,
        lo0=float(np.min(a)) - 1.0,
        hi0=float(np.max(a)) + 1.0,
        tol_res=TOL_ROOT * (1.0 + np.abs(y_eff) + np.abs(hmin)),
    )
    out = np.maximum(out, a) if side == "plus" else np.minimum(out, a)
    out = np.where(clamped, a, out)
    # Three vectorized Newton polish passes; near-critical elements keep the
    # bisected value.
    for _ in range(3):
        res = np.asarray(f(out), dtype=float) - y
        d = np.asarray(df(out), dtype=float)
        safe = np.abs(d) > 1e-8
        upd = out - np.where(safe, res / np.where(safe, d, 1.0), 0.0)
        upd = np.maximum(upd, a) if side == "plus" else np.minimum(upd, a)
        better = np.abs(np.asarray(f(upd), dtype=float) - y) <= np.abs(res)
        out = np.where(better & ~clamped, upd, out)
    return float(out) if out.ndim == 0 else out


def branch_inverse(model: FluxModel, x, y, side: str, alpha=None):
    """Solve H(x, s) = y on one monotone branch, elementwise over x and y.

    side "plus" returns the solution >= alpha(x), "minus" the one <= alpha(x);
    alpha defaults to critical_point(model, x). Used by steady-state
    construction with one level over every cell, so the flux-level invariant
    cannot drift along the recursion. The flux is frozen at x once for all
    rounds of the solve. Clamping and errors as in invert_branch.
    """
    xs = np.asarray(x, dtype=float)
    a = critical_point(model, xs) if alpha is None else alpha
    f = frozen_flux(model, xs)
    return invert_branch(f, f.du, a, y, side)


def legendre_transform(model: FluxModel, x, v):
    """L(x, v) = sup_p (p v - H(x, p)), attained where du_h(x, p) = v.

    Broadcasts over x and v. The slope equation is solved to a residual of
    1e-12 * (1 + |v|).
    """
    xs = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    f = frozen_flux(model, xs)
    ps = solve_increasing(
        lambda p: f.du(p) - v,
        np.broadcast(xs, v).shape,
        tol_res=TOL_ROOT * (1.0 + np.abs(v)),
    )
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


@dataclass
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
    """
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

    DU = np.broadcast_to(np.asarray(model.du_h(XX, UU), dtype=float), (n_x, n_u))
    DX = np.broadcast_to(np.asarray(model.dx_h(XX, UU), dtype=float), (n_x, n_u))

    # (CVX): du_h strictly increasing along u.
    diffs = np.diff(DU, axis=1)
    bad = np.argwhere(diffs <= 0.0)
    for i, j in bad:
        record("convexity", xs[i], us[j], diffs[i, j])

    # Derivative consistency, centered differences in u and in x.
    FDU = (np.asarray(model.h(XX, UU + d), dtype=float) - np.asarray(model.h(XX, UU - d), dtype=float)) / (2 * d)
    err = np.abs(np.broadcast_to(FDU, (n_x, n_u)) - DU)
    bad = np.argwhere(err > tol_fd * (1.0 + np.abs(DU)))
    for i, j in bad:
        record("derivative-mismatch-u", xs[i], us[j], err[i, j])

    FDX = (np.asarray(model.h(XX + d, UU), dtype=float) - np.asarray(model.h(XX - d, UU), dtype=float)) / (2 * d)
    err = np.abs(np.broadcast_to(FDX, (n_x, n_u)) - DX)
    bad = np.argwhere(err > tol_fd * (1.0 + np.abs(DX)))
    for i, j in bad:
        record("derivative-mismatch-x", xs[i], us[j], err[i, j])

    # (CH): frozen flux outside the radius.
    for sgn in (-1.0, 1.0):
        ref = np.asarray(model.h(sgn * X, us), dtype=float)
        for off in (0.5 * span, 2.0 * span, 16.0 * span):
            xo = sgn * (X + off)
            hvals = np.asarray(model.h(xo, us), dtype=float)
            err = np.abs(hvals - ref)
            for j in np.flatnonzero(err > tol_exact * (1.0 + np.abs(ref))):
                record("heterogeneity-compactness", xo, us[j], err[j])
            dxv = np.abs(np.asarray(model.dx_h(xo, us), dtype=float))
            for j in np.flatnonzero(dxv > tol_exact * (1.0 + np.abs(ref))):
                record("heterogeneity-compactness", xo, us[j], dxv[j])

    return ValidationReport(violations=violations)
