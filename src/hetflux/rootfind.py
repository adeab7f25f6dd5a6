"""Root finding for increasing functions, elementwise over arrays.

Everything the package inverts is strictly increasing on the search domain
(u-derivatives of convex fluxes, flux branches on either side of the critical
point), so a bracketed search always converges. solve_increasing is the one
solver, behind a frozen flux's default inverse and du_inverse (see
flux_model.frozen_flux; the closed forms of the built-in families need no
solve): g maps an array of arguments to an array of residuals, each element
is bracketed by geometric expansion from a starting interval, then refined
by Chandrupatla's method (T. R. Chandrupatla, Adv. Eng. Software 28 (1997)
145-149): after a first step of linear interpolation between the bracket
ends, each step is an inverse quadratic interpolation through the last three
points where the test of the method finds it safe, and a bisection
otherwise, never closer to a bracket end than the stop tolerance. On a
simple root it needs a handful of evaluations of g where bisection needs
about 55. A scalar problem is a 0-d array.

Stop rule: an element is done when g is exactly 0 at its best point (the
bracket end with the smaller |g|), or when its bracket is narrower than
4 eps |x| + 2 * 2**-1022, a few ulps of the best point x; it then returns
that best point. An element still open after 100 rounds returns its best
point too, and the residual check decides. Done elements freeze: they leave
the working arrays, so each round's bookkeeping runs only on the open ones,
and an element's iterates, hence its bits, depend on that element alone, not
on the batch it is solved in.

So batch independent problems into one call: a round costs about 40 numpy
calls however many elements it carries, and a question split into separate
solves pays them once per solve. Stacking problems along a new axis (both
branches of a bracket, both halves of a fan's cells) moves no result, as
long as g evaluates each element from that element alone.

It raises NumericalError when g is NaN at a bracket end, when some element
finds no sign change within the expansion budget, and when the final
residual |g(root)| exceeds tol_res (default 1e-12) at any element. tol_res
may be an array that broadcasts to the roots, so callers whose g subtracts a
large level y can allow for rounding at the scale of |y|. The residual check
matters: steady states built from these inversions must be machine-precision
fixed points of the scheme.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericalError

TOL_ROOT = 1e-12
_MAX_EXPAND = 120
_MAX_ROUNDS = 100
_EPS = np.finfo(float).eps
_XATOL = np.finfo(float).tiny


def _expand(g: Callable, x: np.ndarray, sign: float, end: str) -> tuple[np.ndarray, np.ndarray]:
    """Walk x by doubling steps in direction `sign` until sign * g(x) >= 0;
    returns x and g(x)."""
    step = 1.0
    gx = g(x)
    for _ in range(_MAX_EXPAND):
        if np.any(np.isnan(gx)):
            raise NumericalError(f"root search: g is NaN at the {end} bracket end")
        mask = sign * gx < 0.0
        if not mask.any():
            return x, gx
        x = np.where(mask, x + sign * step, x)
        gx = g(x)
        step *= 2.0
    raise NumericalError(
        f"root search: no sign change found, {end} bracket end not reached "
        "(function not coercive on this side?)"
    )


def check_residual(res, tol_res) -> None:
    """Raise NumericalError unless res <= tol_res at every element (NaN fails)."""
    res = np.asarray(res, dtype=float)
    tol = np.broadcast_to(np.asarray(tol_res, dtype=float), res.shape)
    bad = np.flatnonzero(~(res <= tol))
    if bad.size:
        j = bad[0]
        raise NumericalError(
            f"root search: residual {res.flat[j]:.3e} exceeds tolerance {tol.flat[j]:.3e}"
        )


def _best(a, fa, b, fb):
    """The bracket end with the smaller |g| (a on ties), the stop tolerance
    over the bracket width, and whether the element is done."""
    use_b = np.abs(fb) < np.abs(fa)
    xm, fm = np.where(use_b, b, a), np.where(use_b, fb, fa)
    tl = (2.0 * _EPS * np.abs(xm) + _XATOL) / np.abs(b - a)
    return xm, fm, tl, (tl > 0.5) | (fm == 0.0)


def _chandrupatla(g: Callable, a, fa, b, fb) -> tuple[np.ndarray, np.ndarray]:
    """Roots of g in the brackets [a, b] with fa <= 0 <= fb, and g there.

    The working arrays hold the open elements only (flat, indexed by `open_`
    into the result); g is still called on the full shape of root, the done
    elements sitting at their roots.
    """
    shape = a.shape
    a, fa, b, fb = (np.ravel(v).astype(float) for v in (a, fa, b, fb))
    with np.errstate(divide="ignore"):  # ends that meet at a zero of g
        root, groot, tl, done = _best(a, fa, b, fb)
    open_ = np.flatnonzero(~done)
    a, fa, b, fb, tl = a[open_], fa[open_], b[open_], fb[open_], tl[open_]
    # With two points known, the first step interpolates linearly (and
    # bisects between infinite ends).
    with np.errstate(invalid="ignore"):
        t = fa / (fa - fb)
    t = np.clip(np.where(np.isnan(t), 0.5, t), tl, 1.0 - tl)
    for _ in range(_MAX_ROUNDS):
        if not open_.size:
            break
        xt = a + t * (b - a)
        root[open_] = xt
        ft = np.ravel(g(root.reshape(shape)))[open_]
        # (a, b) is the new bracket with a the newest point, c the point
        # it displaced.
        keep_b = np.sign(ft) == np.sign(fa)
        c, fc = np.where(keep_b, a, b), np.where(keep_b, fa, fb)
        b, fb = np.where(keep_b, b, a), np.where(keep_b, fb, fa)
        a, fa = xt, ft
        xm, fm, tl, done = _best(a, fa, b, fb)
        root[open_], groot[open_] = xm, fm
        if done.any():
            keep = ~done
            open_, a, fa, b, fb, c, fc, tl = (
                v[keep] for v in (open_, a, fa, b, fb, c, fc, tl))
        # Inverse quadratic interpolation through (a, b, c) where it stays
        # monotone on the bracket (Chandrupatla's test), bisection elsewhere;
        # never closer than the stop tolerance to either end.
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = (a - b) / (c - b)
            ph = (fa - fb) / (fc - fb)
            iqi = (ph * ph < xi) & ((1.0 - ph) * (1.0 - ph) < 1.0 - xi)
            t = np.where(
                iqi,
                fa / (fb - fa) * fc / (fb - fc)
                + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb),
                0.5,
            )
        t = np.clip(t, tl, 1.0 - tl)
    return root.reshape(shape), groot.reshape(shape)


def solve_increasing(
    g: Callable[[np.ndarray], np.ndarray],
    xs_shape: tuple = (),
    lo0: float = -1.0,
    hi0: float = 1.0,
    tol_res=TOL_ROOT,
) -> np.ndarray:
    """Roots of g, increasing in its argument elementwise, as an array of xs_shape.

    Every element starts from the bracket [lo0, hi0], floats or arrays
    broadcasting to xs_shape; ends that do not straddle zero move outward by
    steps 1, 2, 4, ... per element. tol_res is a float or an array
    broadcasting to xs_shape, the bound on |g(root)|.
    """
    lo, g_lo = _expand(g, np.broadcast_to(np.asarray(lo0, dtype=float), xs_shape), -1.0, "lower")
    hi, g_hi = _expand(g, np.broadcast_to(np.asarray(hi0, dtype=float), xs_shape), 1.0, "upper")
    root, g_root = _chandrupatla(g, lo, g_lo, hi, g_hi)
    check_residual(np.abs(g_root), tol_res)
    return root
