"""Seeded differential fuzz of the library.

Models drawn at random, each keeping the compactness contract (H varies in
x only on [-X, X]): bump-built heterogeneous_quadratic, two_state and lwr
parameters, and hook-less fluxes g(x) (cosh u - 1) + b(x) u with g > 0,
given by callables only, whose every solve is a generic root solve. On
each model:

* validate_assumptions passes (two_state's one report is its jump at 0);
* both bracket states of each datum are fixed points of the scheme;
* run() completes, so its mass balance and containment checks held;
* the scheme is an L1 contraction: two data that agree at both ends of
  the window, run at one shared max_dt, end no farther apart than they
  started;
* the entropy slack stays within 1e-10 (1 + |k|) at every level;
* a quadratic model agrees with its freeze=None copy, whose critical
  points and inverses are root solves: same step count, and final states
  within the root solves' residual tolerance TOL_ROOT.
"""

import dataclasses

import numpy as np

from hetflux.diagnostics import EntropyCheck
from hetflux.families import heterogeneous_quadratic, lwr, two_state
from hetflux.flux_model import FluxModel, lipschitz_bound, validate_assumptions
from hetflux.profiles import bump, bump_prime
from hetflux.rootfind import TOL_ROOT
from hetflux.solver import (
    PiecewiseConstantDatum,
    cone_mesh,
    project_initial,
    run,
    steady_residual,
)
from hetflux.steady import bracket

SEED = 29
N_CASES = 24
KINDS = ("heterogeneous_quadratic", "two_state", "lwr", "cosh")
DX, T_END, SAFETY = 0.1, 0.2, 0.9
ADVICE = "draw a smaller model"
EPS = np.finfo(float).eps


def _cosh_flux(rng, X):
    """g(x) (cosh u - 1) + b(x) u, with g = g0 + g1 B(x / X) > 0 and
    b = b0 + b1 B(x / X) for the bump B: constant for |x| >= X."""
    g0 = rng.uniform(0.5, 2.0)
    g1 = rng.uniform(-0.4, 1.0) * g0
    b0, b1 = rng.uniform(-1.0, 1.0, 2)

    def coefficients(x):
        s = bump(np.asarray(x, dtype=float) / X)
        return g0 + g1 * s, b0 + b1 * s

    def dx_h(x, u):
        s = bump_prime(np.asarray(x, dtype=float) / X) / X
        return g1 * s * (np.cosh(u) - 1.0) + b1 * s * u

    def h(x, u):
        g, b = coefficients(x)
        return g * (np.cosh(u) - 1.0) + b * u

    def du_h(x, u):
        g, b = coefficients(x)
        return g * np.sinh(u) + b

    return FluxModel(h=h, du_h=du_h, dx_h=dx_h, hetero_radius=X, name="cosh")


def _model(rng, kind):
    X = float(rng.uniform(0.4, 1.5))
    if kind == "cosh":
        return _cosh_flux(rng, X)
    if kind == "heterogeneous_quadratic":
        return heterogeneous_quadratic(
            theta_base=rng.uniform(0.5, 2.0), theta_bump=rng.uniform(-0.4, 0.8),
            ell_base=rng.uniform(-0.5, 0.5), ell_bump=rng.uniform(-0.5, 0.5),
            g_base=rng.uniform(-0.5, 0.5), g_bump=rng.uniform(-0.5, 0.5), radius=X)
    if kind == "two_state":
        c = rng.uniform(0.2, 2.0, 2)
        s, o = rng.uniform(-0.5, 0.5, (2, 2))
        return two_state(c[0], s[0], o[0], c[1], s[1], o[1], radius=X)
    v, r = rng.uniform(0.3, 1.5, 2), rng.uniform(0.5, 1.5, 2)
    return lwr(v[0], v[1], r[0], r[1], radius=X)


def _data(rng, model, support):
    """Two piecewise-constant data on [-support, support] that share their
    two outer values, in solver coordinates (u = -rho, rho in [0, 1.2],
    for lwr)."""
    lo, hi = (-1.2, 0.0) if model.orientation == "concave" else (-1.0, 1.0)
    outer = rng.uniform(lo, hi, 2)
    data = []
    for _ in range(2):
        n = int(rng.integers(1, 4))
        cuts = np.sort(rng.uniform(-support, support, n))
        values = [outer[0], *rng.uniform(lo, hi, n - 1), outer[1]]
        data.append(PiecewiseConstantDatum(tuple(map(float, cuts)), tuple(map(float, values))))
    return data


def _l1(u, v, dx):
    return float(np.sum(np.abs(u - v))) * dx


def test_seeded_library_fuzz():
    rng = np.random.default_rng(SEED)
    for i in range(N_CASES):
        kind = KINDS[i % len(KINDS)]
        model = _model(rng, kind)
        report = validate_assumptions(model)
        # two_state jumps at x = 0 by construction, and the screener says so.
        jumps = [v for v in report.violations
                 if kind == "two_state" and (v.kind, v.x) == ("derivative-mismatch-x", 0.0)]
        assert report.violations == jumps, (i, kind, report.summary())
        support = model.hetero_radius + 0.5
        data = _data(rng, model, support)
        # L over the bracket of both data on a first mesh sizes the window,
        # so it holds the influence cone, and one step size below both
        # runs' own CFL steps, so both take it.
        probe = cone_mesh(model, -support, support, 0.0, DX, advice=ADVICE)
        u0 = np.stack([project_initial(d, probe).u for d in data])
        lower, upper = bracket(model, probe, u0)
        L = lipschitz_bound(model, lower.bound, upper.bound)
        mesh = cone_mesh(model, -support, support, 2.0 * L * T_END, DX, advice=ADVICE)
        max_dt = 0.5 * SAFETY * DX / (2.0 * L)
        start = [project_initial(d, mesh).u for d in data]
        for u in start:
            for state in bracket(model, mesh, u):
                residual = steady_residual(state, model, mesh)
                assert residual <= 1e-12 * (1.0 + abs(state.flux_level)), (i, kind, residual)
        check = EntropyCheck()
        first = run(model, mesh, data[0], T_END, safety=SAFETY, max_dt=max_dt,
                    observers=(check,))
        second = run(model, mesh, data[1], T_END, safety=SAFETY, max_dt=max_dt)
        assert first.cfl.lam == second.cfl.lam == max_dt / mesh.dx, (i, kind)
        assert first.n_steps == second.n_steps > 0
        before = _l1(*start, mesh.dx)
        after = _l1(first.final.u, second.final.u, mesh.dx)
        # Exact in exact arithmetic; each step rounds every cell once.
        rounding = 4 * EPS * first.n_steps * mesh.n_cells * mesh.dx * max(
            map(abs, (lower.bound, upper.bound)))
        assert after <= before + rounding, (i, kind, before, after)
        entropy = check.report()
        assert entropy.ok(), (i, kind, entropy.summary())
        if kind == "cosh":
            continue
        generic = run(dataclasses.replace(model, freeze=None), mesh, data[0], T_END,
                      safety=SAFETY, max_dt=max_dt)
        assert generic.n_steps == first.n_steps, (i, kind)
        gap = float(np.max(np.abs(generic.final.u - first.final.u)))
        scale = 1.0 + float(np.max(np.abs(first.final.u)))
        assert gap <= TOL_ROOT * scale, (i, kind, gap)
