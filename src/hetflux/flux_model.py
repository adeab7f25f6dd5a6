"""Flux models H(x, u) for scalar conservation laws u_t + H(x, u)_x = 0.

A model bundles the flux and its first derivatives plus the radius X of the
compact region carrying all x-dependence: for |x| >= X the flux is frozen to
its value at sign(x) * X. In state, the flux is convex with u -> du_h(x, u) a
strictly increasing map onto the real line, so H(x, .) has a unique minimizer
alpha(x) (the critical point) and two monotone branches on either side of it.

Concave fluxes (road-traffic type) are handled by the substitution u -> -u,
which turns them convex; such models carry orientation "concave" and callers
convert states at the input/output boundary with to_internal/to_physical.

All callables are expected to broadcast over numpy arrays in both arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NumericalError
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
    orientation: "convex", or "concave" when the model was built from a
        concave flux via the state substitution (see from_concave).
    alpha_hint: optional analytic critical curve x -> alpha(x); used to seed
        and cross-check root solves, never trusted blindly.
    freeze: optional xs -> (u -> H(xs, u)) that evaluates the x-dependent
        coefficients once; None freezes as u -> h(xs, u) (see frozen_flux).
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

    def to_internal(self, u):
        """Map a physical state to solver coordinates (negation iff concave)."""
        return -np.asarray(u, dtype=float) if self.orientation == "concave" else u

    def to_physical(self, u):
        """Inverse of to_internal (its own inverse)."""
        return -np.asarray(u, dtype=float) if self.orientation == "concave" else u

    @classmethod
    def from_concave(
        cls,
        h,
        du_h,
        dx_h,
        hetero_radius,
        name="custom-concave",
        params=None,
        crit_hint=None,
        freeze=None,
    ):
        """Wrap a concave-in-u flux as a convex model via u -> -u.

        The stored callables act on the substituted state; to_internal /
        to_physical convert at the boundary.
        """

        def h_red(x, w):
            return -h(x, -np.asarray(w, dtype=float))

        def du_red(x, w):
            return du_h(x, -np.asarray(w, dtype=float))

        def dx_red(x, w):
            return -dx_h(x, -np.asarray(w, dtype=float))

        hint = None
        if crit_hint is not None:
            def hint(x, _f=crit_hint):
                return -np.asarray(_f(x), dtype=float)

        freeze_red = None
        if freeze is not None:
            def freeze_red(xs, _f=freeze):
                f = _f(xs)
                return lambda w: -f(-np.asarray(w, dtype=float))

        return cls(
            h=h_red,
            du_h=du_red,
            dx_h=dx_red,
            hetero_radius=hetero_radius,
            orientation="concave",
            name=name,
            params=dict(params or {}),
            alpha_hint=hint,
            freeze=freeze_red,
        )


def frozen_flux(model: FluxModel, xs) -> Callable:
    """u -> H(xs, u) with the flux frozen at the positions xs.

    Uses the model's freeze hook when it has one, so x-dependent coefficients
    are evaluated here once; the returned callable broadcasts u against xs.
    """
    xs = np.asarray(xs, dtype=float)
    if model.freeze is not None:
        return model.freeze(xs)
    return lambda u: np.asarray(model.h(xs, u), dtype=float)


def critical_point(model: FluxModel, x: float, hint: Optional[float] = None) -> float:
    """Unique minimizer alpha(x) of H(x, .): the root of du_h(x, .).

    Bracketed bisection from an expanding search; residual |du_h| <= 1e-12.
    """
    x0 = hint
    if x0 is None and model.alpha_hint is not None:
        x0 = float(model.alpha_hint(x))
    if x0 is None:
        x0 = 0.0
    return solve_increasing(
        lambda p: float(model.du_h(x, p)), x0=x0, step=1.0, tol_res=TOL_ROOT
    )


def _bisect_arrays(g, xs_shape, lo0=-1.0, hi0=1.0, iters=100):
    """Vectorized bisection for g increasing in its argument, elementwise.

    g maps an array of states to an array of residuals. Brackets are expanded
    geometrically per element, then bisected a fixed number of rounds (enough
    for ulp-level intervals from any bracket the expansion can produce).
    """
    lo = np.full(xs_shape, float(lo0))
    hi = np.full(xs_shape, float(hi0))
    step = 1.0
    glo = g(lo)
    for _ in range(120):
        mask = glo > 0.0
        if not mask.any():
            break
        lo = np.where(mask, lo - step, lo)
        glo = g(lo)
        step *= 2.0
    else:
        raise NumericalError("vectorized root search: lower bracket not found")
    step = 1.0
    ghi = g(hi)
    for _ in range(120):
        mask = ghi < 0.0
        if not mask.any():
            break
        hi = np.where(mask, hi + step, hi)
        ghi = g(hi)
        step *= 2.0
    else:
        raise NumericalError("vectorized root search: upper bracket not found")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        neg = g(mid) < 0.0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    return 0.5 * (lo + hi)


def critical_points(model: FluxModel, xs) -> np.ndarray:
    """Vectorized alpha(x) over an array of positions."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if model.alpha_hint is not None:
        a = np.broadcast_to(
            np.asarray(model.alpha_hint(xs), dtype=float), xs.shape
        ).astype(float)
        res = np.abs(np.asarray(model.du_h(xs, a), dtype=float))
        if res.size and float(np.max(res)) <= 1e-9:
            return a
        # Hint disagrees with du_h; fall through to the generic solve.
    return _bisect_arrays(lambda p: np.asarray(model.du_h(xs, p), dtype=float), xs.shape)


@dataclass(frozen=True, eq=False)
class CriticalCurve:
    """Sampled critical curve alpha(x) with its extremes over the line.

    alpha is constant for |x| >= hetero_radius, so sampling [-X, X] plus the
    boundary captures inf/sup alpha exactly up to grid resolution.
    """

    model: FluxModel
    xs: np.ndarray
    alphas: np.ndarray
    alpha_min: float
    alpha_max: float

    @classmethod
    def build(cls, model: FluxModel, n_samples: int = ALPHA_GRID_SAMPLES):
        X = model.hetero_radius
        if X == 0.0:
            xs = np.array([0.0])
        else:
            # Include the center: bump-built coefficient curves peak there and
            # an even linspace count would skip it.
            xs = np.union1d(np.linspace(-X, X, n_samples), [0.0])
        alphas = critical_points(model, xs)
        return cls(
            model=model,
            xs=xs,
            alphas=alphas,
            alpha_min=float(np.min(alphas)),
            alpha_max=float(np.max(alphas)),
        )

    def alpha(self, x):
        """Critical point at x (scalar in, scalar out; array in, array out)."""
        if np.isscalar(x) or np.asarray(x).ndim == 0:
            return critical_point(self.model, float(x))
        return critical_points(self.model, x)

    def hmin(self, x):
        """Pointwise minimum of H(x, .)."""
        return self.model.h(x, self.alpha(x))


def branch_inverse(
    model: FluxModel,
    x: float,
    y: float,
    side: str,
    alpha: Optional[float] = None,
    tol: float = TOL_ROOT,
) -> float:
    """Solve H(x, s) = y on one monotone branch.

    side "plus" returns the solution >= alpha(x), "minus" the one <= alpha(x).
    y slightly below the minimum (within 1e-10) is clamped to the minimum and
    alpha(x) is returned; y further below raises NumericalError.
    """
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    a = critical_point(model, x) if alpha is None else float(alpha)
    hmin = float(model.h(x, a))
    if y < hmin:
        if y >= hmin - CLAMP_SLACK:
            return a
        raise NumericalError(
            f"branch_inverse: level y={y:g} below min H(x,.)={float(hmin):g} at x={x:g}"
        )
    scale = 1.0 + math.sqrt((y - hmin) / max(1e-30, abs(float(model.du_h(x, a + 1.0)))))
    if side == "plus":
        # h - y is increasing on [alpha, inf) and <= 0 at alpha.
        return solve_increasing(
            lambda s: float(model.h(x, s)) - y,
            dg=lambda s: float(model.du_h(x, s)),
            x0=a,
            step=scale,
            tol_res=tol,
        )
    # On (-inf, alpha], h is decreasing, so y - h is increasing with
    # derivative -du_h; the expanding search walks left from alpha.
    return solve_increasing(
        lambda s: y - float(model.h(x, s)),
        dg=lambda s: -float(model.du_h(x, s)),
        x0=a,
        step=scale,
        tol_res=tol,
    )


def branch_inverses(model: FluxModel, xs, y: float, side: str, alphas=None) -> np.ndarray:
    """Vectorized branch inversion at one flux level over many positions.

    Used by steady-state construction: every cell is solved against the same
    level, so the flux-level invariant cannot drift along the recursion.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    a = critical_points(model, xs) if alphas is None else np.asarray(alphas, dtype=float)
    hmin = np.asarray(model.h(xs, a), dtype=float)
    deficit = hmin - y
    if np.any(deficit > CLAMP_SLACK):
        j = int(np.argmax(deficit))
        raise NumericalError(
            f"branch_inverses: level y={y:g} below min H={float(hmin[j]):g} "
            f"at x={float(xs[j]):g}"
        )
    clamped = deficit > 0.0
    # Clamped cells target their own minimum, so the bracketed search below
    # still sees a sign change (y itself sits strictly below their range).
    y_eff = np.maximum(y, hmin)
    if side == "plus":
        g = lambda s: np.asarray(model.h(xs, np.maximum(s, a)), dtype=float) - y_eff
    elif side == "minus":
        g = lambda s: y_eff - np.asarray(model.h(xs, np.minimum(s, a)), dtype=float)
    else:
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    out = _bisect_arrays(g, xs.shape, lo0=float(np.min(a)) - 1.0, hi0=float(np.max(a)) + 1.0)
    out = np.maximum(out, a) if side == "plus" else np.minimum(out, a)
    out = np.where(clamped, a, out)
    # One vectorized Newton polish pass; near-critical cells keep the bisected value.
    for _ in range(3):
        res = np.asarray(model.h(xs, out), dtype=float) - y
        d = np.asarray(model.du_h(xs, out), dtype=float)
        safe = np.abs(d) > 1e-8
        upd = out - np.where(safe, res / np.where(safe, d, 1.0), 0.0)
        upd = np.maximum(upd, a) if side == "plus" else np.minimum(upd, a)
        better = np.abs(np.asarray(model.h(xs, upd), dtype=float) - y) <= np.abs(res)
        out = np.where(better & ~clamped, upd, out)
    return out


def legendre_transform(model: FluxModel, x: float, v: float) -> float:
    """L(x, v) = sup_p (p v - H(x, p)), attained where du_h(x, p) = v."""
    p = solve_increasing(
        lambda q: float(model.du_h(x, q)) - v,
        x0=0.0,
        step=1.0 + abs(v),
        tol_res=TOL_ROOT,
    )
    return p * v - float(model.h(x, p))


def _legendre_vec(model: FluxModel, xs: np.ndarray, v: float) -> np.ndarray:
    ps = _bisect_arrays(
        lambda p: np.asarray(model.du_h(xs, p), dtype=float) - v, xs.shape
    )
    return ps * v - np.asarray(model.h(xs, ps), dtype=float)


def legendre_sup(model: FluxModel, lam: float, rtol: float = 1e-10) -> float:
    """sup over x and |v| <= lam of L(x, v).

    L(x, .) is convex (a sup of affine functions), so the v-sup sits at the
    endpoints +-lam. The x-sup is over [-X, X] (the flux is frozen outside);
    the grid is refined until the value is stable.
    """
    lam = abs(float(lam))
    X = model.hetero_radius

    def sup_on(xs):
        return float(
            np.max(np.maximum(_legendre_vec(model, xs, lam), _legendre_vec(model, xs, -lam)))
        )

    if X == 0.0:
        return sup_on(np.array([0.0]))
    n = 513
    prev = sup_on(np.linspace(-X, X, n))
    for _ in range(5):
        n = 2 * n - 1
        cur = sup_on(np.linspace(-X, X, n))
        if abs(cur - prev) <= rtol * (1.0 + abs(cur)):
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
    n_x: int
    n_u: int
    fd_step: float

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


def validate_assumptions(
    model: FluxModel,
    state_window=(-3.0, 3.0),
    n_x: int = 41,
    n_u: int = 33,
    fd_step: float = 1e-5,
    tol_fd: float = 1e-6,
    tol_exact: float = 1e-12,
    max_records: int = 200,
) -> ValidationReport:
    """Report-only spot check of the structural assumptions.

    Checks, on a sampled grid: strict monotonicity of du_h in u (convexity),
    agreement of du_h / dx_h with centered differences of h, and that the flux
    is literally frozen outside the heterogeneity radius. Never raises.
    """
    X = model.hetero_radius
    span = max(X, 0.5)
    xs = np.linspace(-X - 0.5, X + 0.5, n_x) if X > 0 else np.linspace(-0.5, 0.5, n_x)
    us = np.linspace(float(state_window[0]), float(state_window[1]), n_u)
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
    d = fd_step
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

    return ValidationReport(violations=violations, n_x=n_x, n_u=n_u, fd_step=fd_step)
