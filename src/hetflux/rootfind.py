"""Root finding for increasing functions, elementwise over arrays.

Everything the package inverts is strictly increasing on the search domain
(u-derivatives of convex fluxes, flux branches on either side of the critical
point), so bracketed bisection always converges. solve_increasing is the one
solver: g maps an array of arguments to an array of residuals, each element
is bracketed by geometric expansion from a common starting interval and then
bisected for 100 rounds, enough for ulp-level intervals from any bracket the
expansion can produce (the loop ends sooner once a round moves no bracket
end, which changes no result). A scalar problem is a 0-d array.

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
_BISECT_ROUNDS = 100


def _expand(g: Callable, x: np.ndarray, sign: float, end: str) -> np.ndarray:
    """Walk x by doubling steps in direction `sign` until sign * g(x) >= 0."""
    step = 1.0
    gx = g(x)
    for _ in range(_MAX_EXPAND):
        if np.any(np.isnan(gx)):
            raise NumericalError(f"root search: g is NaN at the {end} bracket end")
        mask = sign * gx < 0.0
        if not mask.any():
            return x
        x = np.where(mask, x + sign * step, x)
        gx = g(x)
        step *= 2.0
    raise NumericalError(
        f"root search: no sign change found, {end} bracket end not reached "
        "(function not coercive on this side?)"
    )


def solve_increasing(
    g: Callable[[np.ndarray], np.ndarray],
    xs_shape: tuple = (),
    lo0: float = -1.0,
    hi0: float = 1.0,
    tol_res=TOL_ROOT,
) -> np.ndarray:
    """Roots of g, increasing in its argument elementwise, as an array of xs_shape.

    Every element starts from the bracket [lo0, hi0]; ends that do not
    straddle zero move outward by steps 1, 2, 4, ... per element. tol_res is
    a float or an array broadcasting to xs_shape, the bound on |g(root)|.
    """
    lo = _expand(g, np.full(xs_shape, float(lo0)), -1.0, "lower")
    hi = _expand(g, np.full(xs_shape, float(hi0)), 1.0, "upper")
    for _ in range(_BISECT_ROUNDS):
        mid = 0.5 * (lo + hi)
        neg = g(mid) < 0.0
        lo_next, hi_next = np.where(neg, mid, lo), np.where(neg, hi, mid)
        # A round that moves no bracket end is a fixed point: every later
        # round would repeat it, so stopping here returns the same bits.
        if not ((lo_next != lo).any() or (hi_next != hi).any()):
            break
        lo, hi = lo_next, hi_next
    root = 0.5 * (lo + hi)
    res = np.abs(g(root))
    tol = np.broadcast_to(np.asarray(tol_res, dtype=float), res.shape)
    bad = np.flatnonzero(~(res <= tol))
    if bad.size:
        j = bad[0]
        raise NumericalError(
            f"root search: residual {res.flat[j]:.3e} exceeds tolerance {tol.flat[j]:.3e}"
        )
    return root
