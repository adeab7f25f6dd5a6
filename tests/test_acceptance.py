"""End-to-end acceptance battery.

Each test is one numbered criterion; its pytest -v line is the pass/fail
record. Criteria cover: steady-state preservation, envelope stability on
randomized data, the two golden interface Riemann solutions, convergence
to them, first-order flux consistency on the smooth heterogeneous
families, discrete entropy inequalities, the germ algebra (dissipativity,
remainder/membership equivalence, maximality), reduction to the classical
Godunov scheme for homogeneous flux, convex-conjugate identities, and
mass conservation. Tolerances and runtime budgets are part of the
criteria and are asserted, not just observed.

The pair-flux family (f_l = u^2/2 | f_r = u^2, radius 1/2) supplies the
golden scenarios; closed forms used below:

    datum (-1, -1): traces (-sqrt(2), -1), one left shock of speed
        -1 / (2 (sqrt(2) - 1)), one stationary jump at the interface;
    datum (-1, 1): traces (0, 0), profile in xi = x/t equal to
        -1 | xi | xi/2 | 1 with breakpoints -1, 0, 2 (i.e. -t, 0, 2t).
"""

import math
import os
import time

import numpy as np
import pytest

from hetflux.config import parse_config
from hetflux.diagnostics import EntropyCheck, consistency_rate, convergence_study
from hetflux.flux_model import CriticalCurve, legendre_transform
from hetflux.interface import (
    InterfaceContext,
    classify_germ,
    dissipativity_gap,
    interface_flux,
    remainder,
)
from hetflux.riemann import (
    KIND_RAREFACTION,
    KIND_SHOCK,
    KIND_STATIONARY_JUMP,
    sample,
    solve_interface,
    wave_census,
)
from hetflux.solver import (
    GridState,
    Mesh,
    Scheme,
    cfl_dt,
    datum_step,
    lipschitz_bound,
    project_initial,
    run,
)
from hetflux.steady import envelope, envelope_constants

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
GOLDEN_CONFIGS = (
    "golden_shock_interface",
    "golden_rarefactions_interface",
    "golden_homogeneous_shock",
)


@pytest.fixture(scope="module")
def golden_runs():
    """Runs of the three golden configs with the entropy check of every step
    over 33 levels, keyed by name: (RunResult, EntropyReport)."""
    results = {}
    for name in GOLDEN_CONFIGS:
        cfg = parse_config(os.path.join(CONFIG_DIR, name + ".ini"))
        mesh = Mesh.make(cfg.mesh["x_min"], cfg.mesh["x_max"], cfg.mesh["dx"])
        check = EntropyCheck(n_levels=33)
        res = run(
            cfg.build_model(),
            mesh,
            cfg.build_datum(),
            cfg.time["t_end"],
            safety=cfg.time["safety"],
            observers=(check,),
        )
        results[name] = (res, check.report())
    return results


def test_criterion_01_steady_states_are_fixed_points(hq_model):
    # smooth heterogeneous family, X = 1, dx = 1/100: both envelope steady
    # states survive 1000 steps with per-cell drift <= 1e-12, within 5 s
    t0 = time.monotonic()
    mesh = Mesh.make(-2.0, 2.0, 0.01)
    env = envelope(hq_model, mesh, 0.0, 1.0)
    policy = cfl_dt(hq_model, mesh, (env.lower_bound, env.upper_bound))
    scheme = Scheme(hq_model, mesh, policy.lipschitz)
    dt = policy.dt(mesh.dx)
    for state in (env.upper_state, env.lower_state):
        u = state.values.copy()
        for _ in range(1000):
            u, _, _ = scheme.step_arrays(u, dt)
        drift = float(np.max(np.abs(u - state.values)))
        assert drift <= 1e-12, f"{state.bound} steady state drifted by {drift:.3e}"
    assert time.monotonic() - t0 <= 5.0


def test_criterion_02_randomized_data_stay_in_envelope(
    hq_model, pair_model, lwr_model
):
    # 50 randomized bounded data: every cell of every step (tracked by the
    # running extrema) lies in the envelope bounds, within 60 s
    t0 = time.monotonic()
    rng = np.random.default_rng(20240518)
    cases = [(hq_model, 0.0, 1.0, 17), (pair_model, -1.0, 1.0, 17),
             (lwr_model, -0.8, 0.0, 16)]
    for model, m, M, n_runs in cases:
        consts = envelope_constants(model, m, M)
        lip = lipschitz_bound(model, consts.lower_bound, consts.upper_bound)
        t_end, dx = 0.2, 0.05
        half = math.ceil((model.hetero_radius + lip * t_end) / dx + 2.0) * dx
        mesh = Mesh.make(-half, half, dx)
        for _ in range(n_runs):
            u0 = rng.uniform(m, M, mesh.n_cells)
            res = run(model, mesh, GridState(u=u0, time=0.0), t_end,
                      datum_bounds=(m, M))
            assert res.running_min >= consts.lower_bound - 1e-12
            assert res.running_max <= consts.upper_bound + 1e-12
    assert time.monotonic() - t0 <= 60.0


def test_criterion_03_golden_shock_riemann_solution(pair_ctx):
    sol = solve_interface(pair_ctx, -1.0, -1.0)
    assert sol.trace_left == pytest.approx(-math.sqrt(2.0), abs=1e-12)
    assert sol.trace_right == pytest.approx(-1.0, abs=1e-12)
    census = wave_census(sol)
    assert census[KIND_SHOCK] == 1 and census[KIND_STATIONARY_JUMP] == 1
    shock = next(w for w in sol.waves if w.kind == KIND_SHOCK)
    speed = -1.0 / (2.0 * (math.sqrt(2.0) - 1.0))
    assert shock.speed_min == pytest.approx(speed, abs=1e-12)
    assert shock.speed_max == pytest.approx(speed, abs=1e-12)
    # piecewise states (-1, -sqrt(2), -1) around the shock and the interface
    for xi, expected in ((-2.0, -1.0), (-0.6, -math.sqrt(2.0)), (1.0, -1.0)):
        assert float(sample(sol, xi)) == pytest.approx(expected, abs=1e-12)


def test_criterion_04_golden_rarefaction_riemann_solution(pair_ctx):
    sol = solve_interface(pair_ctx, -1.0, 1.0)
    assert sol.trace_left == pytest.approx(0.0, abs=1e-12)
    assert sol.trace_right == pytest.approx(0.0, abs=1e-12)
    fans = [w for w in sol.waves if w.kind == KIND_RAREFACTION]
    assert len(fans) == 2
    # breakpoints -1, 0, 2 in xi = x/t, i.e. -t, 0, 2t in space
    (left, right) = sorted(fans, key=lambda w: w.speed_min)
    assert left.speed_min == pytest.approx(-1.0, abs=1e-12)
    assert left.speed_max == pytest.approx(0.0, abs=1e-12)
    assert right.speed_min == pytest.approx(0.0, abs=1e-12)
    assert right.speed_max == pytest.approx(2.0, abs=1e-12)
    xi = np.linspace(-3.0, 3.0, 6001)
    expected = np.where(
        xi <= -1.0, -1.0,
        np.where(xi <= 0.0, xi, np.where(xi <= 2.0, 0.5 * xi, 1.0)),
    )
    assert float(np.max(np.abs(sample(sol, xi) - expected))) <= 1e-12


def test_criterion_05_convergence_to_exact_solutions(pair_ctx, pair_model):
    # L1 errors strictly decrease over 4 dyadic refinements from dx = 1/50
    # and the observed order lands in [0.6, 1.2], within 120 s
    t0 = time.monotonic()
    dxs = [1.0 / 50, 1.0 / 100, 1.0 / 200, 1.0 / 400, 1.0 / 800]
    for u_l, u_r in ((-1.0, -1.0), (-1.0, 1.0)):
        sol = solve_interface(pair_ctx, u_l, u_r)
        rep = convergence_study(
            pair_model, datum_step(u_l, u_r), 0.5, (-1.0, 1.0), dxs,
            reference="exact", exact=sol,
        )
        assert np.all(np.diff(rep.errors) < 0), (u_l, u_r, rep.errors)
        assert 0.6 <= rep.slope <= 1.2, (u_l, u_r, rep.slope)
    assert time.monotonic() - t0 <= 120.0


def test_criterion_06_consistency_first_order(hq_model, lwr_model):
    # log-log slope >= 0.9 over dx in {1/50 .. 1/400} for three k levels on
    # each smooth heterogeneous family: below the critical band, crossing
    # it, and above it. The crossing level sits at 90% of the band; the
    # transition profiles are flat at their ends, so a crossing next to a
    # band edge is degenerate and pre-asymptotic on these meshes. The
    # pair-flux family is excluded: first-order consistency needs a bounded
    # d/dx of the flux, and the two-state model's deviation is O(1) by
    # construction (see the negative control in test_diagnostics).
    dxs = (1.0 / 50, 1.0 / 100, 1.0 / 200, 1.0 / 400)
    for model in (hq_model, lwr_model):
        curve = CriticalCurve.build(model)
        ks = (curve.alpha_min - 1.0,
              curve.alpha_min + 0.9 * (curve.alpha_max - curve.alpha_min),
              curve.alpha_max + 1.0)
        for k in ks:
            rep = consistency_rate(model, k, dx_values=dxs, curve=curve)
            assert rep.exact or rep.slope >= 0.9, (model.name, k, rep.summary())


def test_criterion_07_discrete_entropy_inequalities(golden_runs):
    # max slack <= 1e-10 (1 + |k|) over 33 reference levels per scenario
    for name, (_, rep) in golden_runs.items():
        assert len(rep.k_values) >= 33
        bound = 1e-10 * (1.0 + np.abs(rep.k_values))
        assert np.all(rep.max_slack_per_k <= bound), (name, rep.summary())


def test_criterion_08_germ_algebra(pair_model, hq_model, lwr_model, germ_pairs):
    rng = np.random.default_rng(20240519)
    contexts = (
        InterfaceContext.from_model(pair_model, -1.0, 1.0),
        InterfaceContext.from_model(hq_model, -0.6, 0.4),
        InterfaceContext.from_model(lwr_model, -2.0, 2.0),
    )
    branches = ("G1", "G2", "G3")
    for ctx in contexts:
        floor = max(ctx.left.fmin, ctx.right.fmin)

        # dissipativity over 100 x 100 sampled germ pairs
        levels = floor + rng.uniform(1e-6, 2.0, 100)
        pool = germ_pairs(ctx, levels, [branches[i % 3] for i in range(levels.size)])
        for u in pool:
            for k in pool:
                assert dissipativity_gap(ctx, u, k) >= -1e-12

        # remainder-zero iff membership on 10^4 randomized pairs; the
        # constructed pool covers the zero side exactly
        al, ar = ctx.left.alpha, ctx.right.alpha
        u_ls = rng.uniform(al - 2.5, al + 2.5, 10_000)
        u_rs = rng.uniform(ar - 2.5, ar + 2.5, 10_000)
        rs = remainder(ctx, u_ls, u_rs)
        gray = 0
        for u_l, u_r, r in zip(u_ls, u_rs, rs):
            member = classify_germ(ctx, float(u_l), float(u_r)).is_member
            if r <= 1e-12:
                assert member
            elif r >= 1e-6:
                assert not member
            else:
                gray += 1  # borderline roundoff band, must stay rare
        assert gray <= 10
        for k_l, k_r in pool:
            assert remainder(ctx, k_l, k_r) <= 1e-12
            assert classify_germ(ctx, k_l, k_r).is_member

        # excluded-branch pairs break dissipativity against some germ pair;
        # only members at strictly lower flux level can witness this, so
        # sample one below each excluded level in case the pool has none
        zs = rng.uniform(1e-3, 2.0, 100)
        excluded = germ_pairs(ctx, floor + zs, ["excluded"] * zs.size)
        below = germ_pairs(ctx, floor + 0.5 * zs, ["G1"] * zs.size)
        for exc, k_below in zip(excluded, below):
            assert not classify_germ(ctx, *exc).is_member
            witnesses = pool + [k_below]
            assert any(dissipativity_gap(ctx, exc, k) < -1e-12 for k in witnesses)


def test_criterion_09_homogeneous_reduction(burgers_model):
    # independent classical Godunov closed form for f = u^2/2 (minimum at 0)
    def godunov_ref(a, b):
        return np.maximum(0.5 * np.maximum(a, 0.0) ** 2,
                          0.5 * np.minimum(b, 0.0) ** 2)

    ctx = InterfaceContext.from_model(burgers_model, -1.0, 1.0)
    grid = np.linspace(-2.0, 2.0, 200)
    a, b = np.meshgrid(grid, grid, indexing="ij")
    assert float(np.max(np.abs(interface_flux(ctx, a, b) - godunov_ref(a, b)))) <= 1e-14

    # 500 steps against a hand-rolled Godunov march, compared every step
    mesh = Mesh.make(-2.0, 2.0, 0.02)
    u = project_initial(datum_step(1.0, -0.5), mesh).u
    v = u.copy()
    lip = lipschitz_bound(burgers_model, -1.0, 1.5)
    scheme = Scheme(burgers_model, mesh, lip)
    dt = 0.9 * mesh.dx / (2.0 * lip)
    lam = dt / mesh.dx
    for _ in range(500):
        u, _, _ = scheme.step_arrays(u, dt)
        pad = np.concatenate(([v[0]], v, [v[-1]]))
        flux = godunov_ref(pad[:-1], pad[1:])
        v = v - lam * (flux[1:] - flux[:-1])
        assert float(np.max(np.abs(u - v))) <= 1e-14


def test_criterion_10_convex_conjugate_identities(
    burgers_model, pair_model, hq_model, lwr_model
):
    rng = np.random.default_rng(20240520)
    models = (burgers_model, pair_model, hq_model, lwr_model)

    # double transform: H(x,u) = u v* - L(x,v*) at v* = dH/du(x,u)
    for model in models:
        span = model.hetero_radius + 1.0
        x = rng.uniform(-span, span, 500)
        u = rng.uniform(-2.5, 2.5, 500)
        v = np.asarray(model.du_h(x, u), dtype=float)
        lt = legendre_transform(model, x, v)
        assert np.all(np.abs(u * v - lt - np.asarray(model.h(x, u), dtype=float)) <= 1e-8)

    # pairing inequality p v <= H(x,p) + L(x,v) on 10^4 sampled triples
    for model in models:
        span = model.hetero_radius + 1.0
        x = rng.uniform(-span, span, 2500)
        p = rng.uniform(-2.5, 2.5, 2500)
        v = rng.uniform(-4.0, 4.0, 2500)
        lt = legendre_transform(model, x, v)
        assert np.all(p * v <= np.asarray(model.h(x, p), dtype=float) + lt + 1e-8)


def test_criterion_11_mass_conservation_on_golden_runs(golden_runs):
    for name, (res, _) in golden_runs.items():
        assert res.mass_drift <= 1e-10, (name, res.mass_drift)
