"""Mesh, CFL policy, datum projection, and the explicit update loop.

Numbers frozen below:

* quadratic u^2/2 with states in [-1, 1] has Lipschitz bound 1, so
  dt = safety * dx / 2; dx = 0.01 and safety 1 give dt = 0.005.
* homogeneous shock datum 1.0 | -0.5 moves at speed (f(1)-f(-1/2))/1.5 = 1/4;
  boundary inflow exceeds outflow by 3/8, so on [-2, 2] the total mass is
  1 + 3 t / 8 and the mass-weighted front sits at (mass - 1) / 1.5.
"""

import dataclasses
import math

import numpy as np
import pytest
from conftest import RecordStates

from hetflux.diagnostics import TimeVariation
from hetflux.errors import ConfigError, NumericalError
from hetflux.families import heterogeneous_quadratic, lwr, quadratic, two_state
from hetflux.flux_model import FluxModel
from hetflux.interface import FluxSide, InterfaceContext, interface_flux, interface_flux_profile
from hetflux.solver import (
    GridState,
    Mesh,
    PiecewiseConstantDatum,
    Scheme,
    SmoothDatum,
    cfl_dt,
    datum_bump,
    datum_constant,
    datum_from_table,
    datum_step,
    lipschitz_bound,
    project_initial,
    run,
)


# ---------------------------------------------------------------------------
# mesh


def test_mesh_geometry():
    mesh = Mesh.make(0.0, 1.0, 0.25)
    assert mesh.n_cells == 4
    assert np.allclose(mesh.edges(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(mesh.centers(), [0.125, 0.375, 0.625, 0.875])


def test_mesh_validation():
    with pytest.raises(ConfigError, match="bad mesh window"):
        Mesh.make(1.0, 0.0, 0.1)
    with pytest.raises(ConfigError, match="bad mesh window"):
        Mesh.make(0.0, 1.0, 0.0)
    with pytest.raises(ConfigError, match="at least 3 cells"):
        Mesh.make(0.0, 1.0, 0.5)
    with pytest.raises(ConfigError, match="integer multiple"):
        Mesh.make(0.0, 1.0, 0.3)


# ---------------------------------------------------------------------------
# datum projection


def test_step_datum_projects_to_exact_cell_averages():
    mesh = Mesh.make(0.0, 1.0, 0.25)
    state = project_initial(datum_step(1.0, -0.5, location=0.3), mesh)
    # cell [0.25, 0.5) holds 0.05 of the left state and 0.20 of the right
    assert state.u == pytest.approx([1.0, -0.2, -0.5, -0.5], abs=1e-15)


def test_multi_piece_datum_projection():
    datum = PiecewiseConstantDatum(breakpoints=(0.25, 1.25), values=(2.0, -1.0, 0.5))
    mesh = Mesh.make(-1.0, 2.0, 0.5)
    state = project_initial(datum, mesh)
    want = [2.0, 2.0, (0.25 * 2.0 + 0.25 * -1.0) / 0.5, -1.0, (0.25 * -1.0 + 0.25 * 0.5) / 0.5, 0.5]
    assert state.u == pytest.approx(want, abs=1e-15)
    assert datum.bounds() == (-1.0, 2.0)


def test_gauss_projection_is_exact_for_polynomials():
    mesh = Mesh.make(-1.0, 1.0, 0.125)
    for p in (2, 5, 7):
        state = project_initial(SmoothDatum(fn=lambda x, p=p: x**p), mesh)
        a, b = mesh.edges()[:-1], mesh.edges()[1:]
        exact = (b ** (p + 1) - a ** (p + 1)) / ((p + 1) * mesh.dx)
        assert np.max(np.abs(state.u - exact)) < 1e-14


def test_grid_state_passthrough_and_shape_check():
    mesh = Mesh.make(0.0, 1.0, 0.25)
    src = GridState(u=np.array([1.0, 2.0, 3.0, 4.0]), time=0.7, step_index=9)
    out = project_initial(src, mesh)
    assert np.array_equal(out.u, src.u) and out.u is not src.u
    assert out.time == 0.7 and out.step_index == 9
    with pytest.raises(ConfigError, match="does not match"):
        project_initial(GridState(u=np.zeros(5), time=0.0), mesh)


def test_datum_constructor_validation():
    with pytest.raises(ConfigError, match="one more value"):
        PiecewiseConstantDatum(breakpoints=(0.0, 1.0), values=(1.0, 2.0))
    with pytest.raises(ConfigError, match="strictly increasing"):
        PiecewiseConstantDatum(breakpoints=(1.0, 0.0), values=(1.0, 2.0, 3.0))
    with pytest.raises(ConfigError, match="width"):
        datum_bump(0.0, 1.0, width=0.0)
    with pytest.raises(ConfigError, match="strictly increasing"):
        datum_from_table([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])


def test_table_datum_interpolates_and_extrapolates_flat():
    d = datum_from_table([0.0, 1.0], [0.0, 2.0])
    assert d(0.5) == 1.0
    assert d(-10.0) == 0.0 and d(10.0) == 2.0


def test_smooth_datum_bounds_sample_inside_cells():
    mesh = Mesh.make(-1.0, 1.0, 0.5)
    d = datum_bump(0.0, 1.0, center=0.25, width=0.3)
    lo, hi = d.bounds(mesh)
    assert lo == 0.0
    assert hi > 0.9  # the peak sits between cell centers but sampling finds it


# ---------------------------------------------------------------------------
# CFL policy


def test_cfl_dt_closed_form(burgers_model):
    mesh = Mesh.make(-1.0, 1.0, 0.01)
    policy = cfl_dt(burgers_model, mesh, (-1.0, 1.0), safety=1.0)
    assert policy.lipschitz == pytest.approx(1.0)
    assert policy.dt(mesh.dx) == pytest.approx(0.005, abs=1e-15)
    half = cfl_dt(burgers_model, mesh, (-1.0, 1.0), safety=0.5)
    assert half.dt(mesh.dx) == pytest.approx(0.0025, abs=1e-15)
    with pytest.raises(ConfigError, match="safety"):
        cfl_dt(burgers_model, mesh, (-1.0, 1.0), safety=0.0)


def test_cfl_degenerate_state_range_needs_max_dt(burgers_model):
    mesh = Mesh.make(-1.0, 1.0, 0.1)
    with pytest.raises(NumericalError, match="no wave speeds"):
        cfl_dt(burgers_model, mesh, (0.0, 0.0))
    policy = cfl_dt(burgers_model, mesh, (0.0, 0.0), max_dt=0.05)
    assert policy.dt(mesh.dx) == pytest.approx(0.05)


def test_lipschitz_bound_heterogeneous(hq_model):
    # slope 2 theta(x) |u - ell(x)| peaks at the bump center for u = -1
    L = lipschitz_bound(hq_model, -1.0, 1.0)
    assert L == pytest.approx(2.0 * 1.5 * 1.3, rel=1e-6)


# ---------------------------------------------------------------------------
# stepping


def test_step_guards(burgers_model):
    mesh = Mesh.make(-1.0, 1.0, 0.1)
    scheme = Scheme(burgers_model, mesh, lipschitz=1.0)
    with pytest.raises(NumericalError, match="violates"):
        scheme.step_arrays(np.zeros(mesh.n_cells), dt=0.2)
    bad = np.zeros(mesh.n_cells)
    bad[3] = np.nan
    with pytest.raises(NumericalError, match="non-finite"):
        scheme.step_arrays(bad, dt=0.01)


def test_scheme_is_monotone(hq_model, rng):
    # comparison principle: ordered data stay ordered under a common CFL
    mesh = Mesh.make(-2.0, 2.0, 0.05)
    u = rng.uniform(-1.0, 1.0, mesh.n_cells)
    v = u + rng.uniform(0.0, 0.5, mesh.n_cells)
    L = lipschitz_bound(hq_model, -1.5, 2.0)
    scheme = Scheme(hq_model, mesh, L)
    dt = 0.9 * mesh.dx / (2.0 * L)
    for _ in range(20):
        u, _, _ = scheme.step_arrays(u, dt)
        v, _, _ = scheme.step_arrays(v, dt)
        assert np.all(u <= v + 1e-12)


def test_homogeneous_update_matches_godunov(burgers_model, rng):
    mesh = Mesh.make(-1.0, 1.0, 0.02)
    u = rng.uniform(-1.0, 1.0, mesh.n_cells)
    scheme = Scheme(burgers_model, mesh, lipschitz=1.0)
    dt = 0.4 * mesh.dx
    f = lambda s: np.asarray(s, dtype=float) ** 2 / 2.0
    side = FluxSide(f=f, df=lambda s: np.asarray(s, dtype=float), alpha=0.0, fmin=0.0)
    godunov = InterfaceContext(side, side)
    for _ in range(50):
        u_new, _, _ = scheme.step_arrays(u, dt)
        ext = np.pad(u, 1, mode="edge")
        F = interface_flux(godunov, ext[:-1], ext[1:])
        want = u - (dt / mesh.dx) * np.diff(F)
        assert np.max(np.abs(u_new - want)) <= 1e-14
        u = u_new


# ---------------------------------------------------------------------------
# frozen per-cell fluxes


def _custom_model():
    """x-dependent cosh flux with no freeze hook (the default freezing)."""
    a = lambda x: 1.5 + 0.5 * np.clip(np.asarray(x, dtype=float), -1.0, 1.0)
    return FluxModel(
        h=lambda x, u: a(x) * (np.cosh(np.asarray(u, dtype=float) - 0.2) - 1.0),
        du_h=lambda x, u: a(x) * np.sinh(np.asarray(u, dtype=float) - 0.2),
        dx_h=lambda x, u: np.where(np.abs(np.asarray(x, dtype=float)) < 1.0, 0.5, 0.0)
        * (np.cosh(np.asarray(u, dtype=float) - 0.2) - 1.0),
        hetero_radius=1.0,
    )


MODELS = {
    "quadratic": quadratic,
    "two_state": two_state,
    "heterogeneous_quadratic": heterogeneous_quadratic,
    "lwr": lwr,
    "custom": _custom_model,
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_edge_fluxes_match_unfrozen_oracle(name, rng):
    model = MODELS[name]()
    mesh = Mesh.make(-2.0, 2.0, 0.05)
    sch = Scheme(model, mesh, lipschitz=1.0)
    xl, xr = sch.xc_ext[:-1], sch.xc_ext[1:]
    al, ar = sch.al_ext[:-1], sch.al_ext[1:]
    # states on both sides of the critical curve, one row per level as in EntropyCheck
    U = sch.al_ext[1:-1] + rng.uniform(-1.0, 1.0, (4, mesh.n_cells))
    ext = np.concatenate((U[:, :1], U, U[:, -1:]), axis=1)
    want = interface_flux_profile(
        model, xl[None, :], xr[None, :], al[None, :], ar[None, :], ext[:, :-1], ext[:, 1:]
    )
    assert np.array_equal(sch.edge_fluxes(U), want)
    for row in range(U.shape[0]):
        want_1d = interface_flux_profile(model, xl, xr, al, ar, ext[row, :-1], ext[row, 1:])
        assert np.array_equal(sch.edge_fluxes(U[row]), want_1d)


@pytest.mark.filterwarnings("ignore:.*influence cone")
@pytest.mark.parametrize("name", ["quadratic", "two_state", "heterogeneous_quadratic", "lwr"])
def test_run_matches_default_freeze_bitwise(name):
    model = MODELS[name]()
    plain = dataclasses.replace(model, freeze=None)
    mesh = Mesh.make(-3.0, 3.0, 0.05)
    datum = datum_bump(-0.5, 0.3, center=-0.3) if name == "lwr" else datum_step(1.0, -0.5)
    a = run(model, mesh, datum, t_end=0.3)
    b = run(plain, mesh, datum, t_end=0.3)
    assert a.n_steps == b.n_steps > 0
    assert a.final.u.tobytes() == b.final.u.tobytes()


def test_stale_freeze_hook_is_rejected():
    model = heterogeneous_quadratic()
    mesh = Mesh.make(-2.0, 2.0, 0.05)
    stale = dataclasses.replace(model, h=heterogeneous_quadratic(g_bump=0.2).h)
    with pytest.raises(ConfigError, match="freeze hook"):
        Scheme(stale, mesh, lipschitz=1.0)
    # a wrapper around the same h (say, a call counter) still agrees exactly
    Scheme(dataclasses.replace(model, h=lambda x, u: model.h(x, u)), mesh, lipschitz=1.0)


# ---------------------------------------------------------------------------
# run loop


def test_run_hits_snapshots_exactly(pair_model):
    mesh = Mesh.make(-2.0, 2.0, 0.05)
    res = run(pair_model, mesh, datum_step(-1.0, -1.0), t_end=0.3,
              snapshot_times=(0.0, 0.1, 0.25))
    times = [s.time for s in res.snapshots]
    assert times == [0.0, 0.1, 0.25, 0.3]
    assert res.final.time == 0.3
    assert res.n_steps == res.final.step_index
    # running extrema enclose every snapshot
    for s in res.snapshots:
        assert res.running_min <= float(np.min(s.u)) + 1e-15
        assert res.running_max >= float(np.max(s.u)) - 1e-15


def test_run_zero_horizon(pair_model):
    mesh = Mesh.make(-1.0, 1.0, 0.1)
    res = run(pair_model, mesh, datum_constant(0.4), t_end=0.0)
    assert len(res.snapshots) == 1
    assert res.snapshots[0].time == 0.0
    assert res.n_steps == 0
    assert res.mass_drift == 0.0


def test_run_is_deterministic(hq_model):
    mesh = Mesh.make(-3.0, 3.0, 0.05)
    datum = datum_bump(0.1, 0.8, center=-0.2, width=0.6)
    a = run(hq_model, mesh, datum, t_end=0.2)
    b = run(hq_model, mesh, datum, t_end=0.2)
    assert np.array_equal(a.final.u, b.final.u)
    assert a.n_steps == b.n_steps
    assert a.mass_final == b.mass_final


def test_run_mass_accounting(pair_model):
    mesh = Mesh.make(-2.0, 2.0, 0.02)
    rec = RecordStates()
    res = run(pair_model, mesh, datum_step(-1.0, 1.0), t_end=0.4, observers=(rec,))
    assert res.mass_drift <= 1e-11
    assert len(rec.states) == res.n_steps + 1
    # balance recomputed from the recorded trajectory
    assert res.mass_final == pytest.approx(
        float(np.sum(rec.states[-1])) * mesh.dx, abs=1e-15
    )


def test_run_hands_every_step_to_observers(pair_model):
    # A snapshot at 0.13 shortens one step, so the dts are not all equal.
    mesh = Mesh.make(-2.0, 2.0, 0.02)
    rec = RecordStates()
    full, windowed = TimeVariation(), TimeVariation(window=(-0.5, 0.5))
    res = run(pair_model, mesh, datum_step(-1.0, 1.0), t_end=0.4, snapshot_times=(0.13,),
              observers=(rec, full, windowed))
    assert len(rec.steps) == res.n_steps
    prev = rec.u0
    for u, u_new, _ in rec.steps:
        assert u is prev
        prev = u_new
    assert np.array_equal(prev, res.final.u)
    dts = [dt for _, _, dt in rec.steps]
    assert len(set(dts)) > 1
    assert abs(sum(dts) - 0.4) <= 1e-12
    # the running sums match the sum over the recorded trajectory
    sq = np.diff(np.stack(rec.states), axis=0) ** 2
    cells = (mesh.centers() >= -0.5) & (mesh.centers() <= 0.5)
    for tv, want in ((full, sq.sum() * mesh.dx), (windowed, sq[:, cells].sum() * mesh.dx)):
        assert abs(tv.value - want) <= 1e-14 * want


def test_run_warns_when_window_misses_influence_cone(hq_model):
    mesh = Mesh.make(-2.0, 2.0, 0.1)
    with pytest.warns(UserWarning, match="influence cone"):
        run(hq_model, mesh, datum_constant(0.5), t_end=2.0)


def test_run_rejects_negative_horizon(pair_model):
    mesh = Mesh.make(-1.0, 1.0, 0.1)
    with pytest.raises(ConfigError, match="t_end"):
        run(pair_model, mesh, datum_constant(0.0), t_end=-1.0)


def test_shock_front_position(burgers_model):
    # mass-weighted front: x_s = (mass - 1) / 1.5 on [-2, 2]
    mesh = Mesh.make(-2.0, 2.0, 0.01)
    res = run(burgers_model, mesh, datum_step(1.0, -0.5), t_end=0.5)
    mass = res.mass_final
    assert mass == pytest.approx(1.0 + 0.375 * 0.5, abs=1e-10)
    x_s = (mass - 1.0) / 1.5
    assert abs(x_s - 0.125) < mesh.dx


def test_run_accepts_grid_state_datum(pair_model):
    mesh = Mesh.make(-1.0, 1.0, 0.1)
    datum = GridState(u=np.linspace(-0.5, 0.5, mesh.n_cells), time=0.0)
    res = run(pair_model, mesh, datum, t_end=0.05)
    assert res.final.u.shape == (mesh.n_cells,)
    assert res.envelope.M >= 0.5
