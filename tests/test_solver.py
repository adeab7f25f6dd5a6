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
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import (
    ReferenceEntropyCheck,
    RecordStates,
    assert_same_entropy_report,
    cosh_model,
    mirror,
    reference_edge_sides,
    reference_step,
    unfrozen_side,
)

import hetflux.flux_model as fm
import hetflux.solver as solver
import hetflux.steady as steady
from hetflux.diagnostics import EntropyCheck, TimeVariation
from hetflux.errors import ConfigError, InvariantBreach, NumericalError
from hetflux.families import heterogeneous_quadratic, lwr, quadratic, two_state
from hetflux.flux_model import FluxModel
from hetflux.interface import FluxSide, InterfaceContext, interface_flux
from hetflux.solver import (
    GridState,
    Mesh,
    PiecewiseConstantDatum,
    Scheme,
    SmoothDatum,
    _cfl_policy,
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
    assert (state.u.min(), state.u.max()) == (-1.0, 2.0)  # the data range run() reports


def test_piecewise_projection_is_exact_on_uncut_cells_and_stays_in_range(rng):
    # A cell no breakpoint cuts takes its piece's value, bit for bit; a cut
    # cell is the exact average and no cell leaves [min value, max value].
    mesh = Mesh.make(-4.0, 4.0, 0.02)
    edges, centers = mesh.edges(), mesh.centers()
    data = [datum_step(1.0, -0.5), datum_step(1.0, -0.5, location=0.3), datum_constant(0.7)]
    for _ in range(20):
        breaks = np.sort(rng.uniform(-4.5, 4.5, 3))
        data.append(PiecewiseConstantDatum(tuple(breaks), tuple(rng.uniform(-2.0, 2.0, 4))))
    for datum in data:
        u = project_initial(datum, mesh).u
        b, v = np.asarray(datum.breakpoints), np.asarray(datum.values)
        cut = ((edges[:-1, None] < b) & (b < edges[1:, None])).any(axis=1)
        assert np.array_equal(u[~cut], datum(centers)[~cut]), datum
        assert v.min() <= u.min() and u.max() <= v.max(), datum
        ends = np.clip(np.concatenate(([mesh.x_min], b, [mesh.x_max])), mesh.x_min, mesh.x_max)
        assert abs(np.sum(u) * mesh.dx - np.sum(v * np.diff(ends))) <= 1e-12, datum


def test_gauss_projection_is_exact_for_polynomials():
    mesh = Mesh.make(-1.0, 1.0, 0.125)
    for p in (2, 5, 7):
        state = project_initial(SmoothDatum(fn=lambda x, p=p: x**p), mesh)
        a, b = mesh.edges()[:-1], mesh.edges()[1:]
        exact = (b ** (p + 1) - a ** (p + 1)) / ((p + 1) * mesh.dx)
        assert np.max(np.abs(state.u - exact)) < 1e-14


def _full_gauss(datum, mesh):
    """The 5-point Gauss rule on every cell: the reference project_initial
    must match bit for bit, though it evaluates only where the datum varies."""
    xg = mesh.centers()[:, None] + 0.5 * mesh.dx * solver.GAUSS_NODES[None, :]
    return np.asarray(datum(xg), dtype=float) @ solver.GAUSS_WEIGHTS / 2.0


SMOOTH_DATA = [
    datum_bump(0.2, 0.6, width=1.0),
    datum_bump(0.5, -0.7, center=0.3, width=0.45),
    datum_bump(0.2, 0.6, width=1.0).map(lambda u: -u),
    datum_from_table([-0.5, 0.2, 0.7], [1.0, -0.3, 2.5]),
    datum_from_table([0.0, 1e-3], [0.4, -0.9]),
    SmoothDatum(fn=lambda x: np.where(x < 0.0, 0.3, -0.4), support=0.0),
    datum_bump(0.1, 0.9, width=50.0),  # covers the whole mesh
    SmoothDatum(fn=np.sin),  # support inf
]
# Edges on -1, 0 and 1 (the supports 0 and 1 and the table's ends at a
# multiple of 0.1), edges that miss every support, and meshes that lie
# wholly on one side of it.
PROJECTION_MESHES = [
    Mesh.make(-2.0, 2.0, 0.25), Mesh.make(-1.0, 1.0, 0.1), Mesh.make(-3.0, 3.0, 0.01),
    Mesh.make(-1.037, 2.963, 0.125), Mesh.make(-2.31, 1.69, 0.002),
    Mesh.make(1.5, 4.5, 0.1), Mesh.make(-9.0, -6.0, 0.3),
]


@pytest.mark.parametrize("datum", SMOOTH_DATA)
def test_smooth_projection_matches_the_full_gauss_rule_bitwise(datum):
    for mesh in PROJECTION_MESHES:
        u = project_initial(datum, mesh).u
        assert u.shape == (mesh.n_cells,)
        assert u.tobytes() == _full_gauss(datum, mesh).tobytes(), (datum, mesh)


@pytest.mark.parametrize("datum", [d for d in SMOOTH_DATA if d.support < math.inf])
def test_smooth_projection_evaluates_the_datum_only_where_it_varies(datum):
    """At most 5 nodes for each cell meeting [-s - dx, s + dx] and for one
    cell past each end of them; the full rule evaluates 5 per cell."""
    nodes = []

    def counted(x):
        nodes.append(np.size(x))
        return datum(x)

    for mesh in PROJECTION_MESHES:
        nodes.clear()
        project_initial(SmoothDatum(fn=counted, support=datum.support), mesh)
        edges, reach = mesh.edges(), datum.support + mesh.dx
        meeting = np.count_nonzero((edges[:-1] <= reach) & (edges[1:] >= -reach))
        assert sum(nodes) <= 5 * (meeting + 2), (datum, mesh, sum(nodes), meeting)


def test_grid_state_passthrough_and_shape_check():
    mesh = Mesh.make(0.0, 1.0, 0.25)
    src = GridState(u=np.array([1.0, 2.0, 3.0, 4.0]), time=0.7, step_index=9)
    out = project_initial(src, mesh)
    assert np.array_equal(out.u, src.u) and out.u is not src.u
    assert out.time == 0.7 and out.step_index == 9
    with pytest.raises(ConfigError, match="does not match"):
        project_initial(GridState(u=np.zeros(5), time=0.0), mesh)


@pytest.mark.parametrize("datum", [0.5, (0.0, 1.0), None])
def test_project_initial_refuses_a_datum_it_cannot_evaluate(datum):
    with pytest.raises(ConfigError, match=rf"^cannot project datum of type {type(datum).__name__}$"):
        project_initial(datum, Mesh.make(0.0, 1.0, 0.25))


def test_datum_constructor_validation():
    with pytest.raises(ConfigError, match="one more value"):
        PiecewiseConstantDatum(breakpoints=(0.0, 1.0), values=(1.0, 2.0))
    with pytest.raises(ConfigError, match="strictly increasing"):
        PiecewiseConstantDatum(breakpoints=(1.0, 0.0), values=(1.0, 2.0, 3.0))
    with pytest.raises(ConfigError, match="width"):
        datum_bump(0.0, 1.0, width=0.0)
    with pytest.raises(ConfigError, match="strictly increasing"):
        datum_from_table([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
    for xs, us in (([0.0, math.nan, 1.0], [1.0, 2.0, 3.0]), ([0.0, 1.0], [1.0, math.inf])):
        with pytest.raises(ConfigError, match="finite x and u"):
            datum_from_table(xs, us)


NON_FINITE_DATA = {
    "step location": lambda v: datum_step(0.0, 1.0, v),
    "step value": lambda v: datum_step(v, 1.0),
    "constant": datum_constant,
    "breakpoint": lambda v: PiecewiseConstantDatum((v, 0.5), (0.0, 1.0, 2.0)),
    "bump base": lambda v: datum_bump(v, 1.0),
    "bump amplitude": lambda v: datum_bump(0.2, v),
    "bump center": lambda v: datum_bump(0.2, 1.0, center=v),
    "bump width": lambda v: datum_bump(0.2, 1.0, width=v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(NON_FINITE_DATA))
def test_datum_constructors_refuse_a_non_finite_number(name, value):
    # Every check of order passes NaN: a NaN breakpoint ran to a state of
    # zeros, and a NaN bump center or width projected to the constant base.
    with pytest.raises(ConfigError, match="datum needs (finite|a finite)"):
        NON_FINITE_DATA[name](value)


def test_table_datum_interpolates_and_extrapolates_flat():
    d = datum_from_table([0.0, 1.0], [0.0, 2.0])
    assert d(0.5) == 1.0
    assert d(-10.0) == 0.0 and d(10.0) == 2.0


def test_every_datum_carries_its_support():
    assert datum_constant(0.7).support == 0.0
    assert datum_step(1.0, -1.0, location=-0.5).support == 0.5
    assert PiecewiseConstantDatum(breakpoints=(-0.3, 1.25), values=(0.0, 1.0, 2.0)).support == 1.25
    assert datum_bump(0.2, 0.5, center=-1.0, width=0.5).support == 1.5
    assert datum_from_table([-1.0, 0.0, 2.0], [0.5, 1.5, 0.25]).support == 2.0
    assert SmoothDatum(fn=np.sin).support == math.inf  # unknown


def test_mapped_datum_flips_like_the_old_negation_and_keeps_its_support():
    flip = lwr().to_internal
    mesh = Mesh.make(-2.0, 2.0, 0.1)
    step = datum_step(0.3, 0.7, location=0.4)
    flipped = step.map(flip)
    assert flipped.breakpoints == step.breakpoints and flipped.support == step.support
    assert [repr(v) for v in flipped.values] == [repr(-float(v)) for v in step.values]
    for datum in (datum_bump(0.3, 0.4, center=0.5, width=0.7),
                  datum_from_table([-1.3, 0.0, 0.8], [0.2, 0.6, 0.35])):
        flipped = datum.map(flip)
        assert flipped.support == datum.support
        xg = mesh.centers()[:, None] + np.linspace(-0.05, 0.05, 5)
        assert flipped(xg).tobytes() == (-datum(xg)).tobytes()
        assert project_initial(flipped, mesh).u.tobytes() == project_initial(
            SmoothDatum(fn=lambda x, d=datum: -d(x)), mesh).u.tobytes()
    assert datum_constant(0.5).map(quadratic().to_internal) == datum_constant(0.5)


# ---------------------------------------------------------------------------
# CFL policy


def test_cfl_dt_closed_form(burgers_model):
    mesh = Mesh.make(-1.0, 1.0, 0.01)
    L = lipschitz_bound(burgers_model, -1.0, 1.0)
    policy = _cfl_policy(L, mesh, 1.0, None, 1.0)
    assert policy.lipschitz == pytest.approx(1.0)
    assert policy.dt(mesh.dx) == pytest.approx(0.005, abs=1e-15)
    half = _cfl_policy(L, mesh, 0.5, None, 1.0)
    assert half.dt(mesh.dx) == pytest.approx(0.0025, abs=1e-15)
    with pytest.raises(ConfigError, match="safety"):
        _cfl_policy(L, mesh, 0.0, None, 1.0)


@pytest.mark.parametrize("L", [math.inf, math.nan, None])
def test_run_refuses_a_non_finite_bound_or_too_many_steps_before_the_first(L, monkeypatch):
    def no_step(self, u, dt):
        raise AssertionError("no step may run")

    monkeypatch.setattr(Scheme, "step_arrays", no_step)
    if L is not None:
        monkeypatch.setattr(solver, "lipschitz_bound", lambda *args: L)
    mesh, datum = Mesh.make(-1.0, 1.0, 0.1), datum_step(0.2, 0.8)
    # max_dt = t_end / (MAX_STEPS + 1) asks for one step too many
    max_dt = None if L is not None else 1.0 / (solver.MAX_STEPS + 1)
    with pytest.raises(ConfigError, match="not finite" if L is not None else "MAX_STEPS"):
        run(quadratic(), mesh, datum, t_end=1.0, max_dt=max_dt)


def test_cfl_degenerate_state_range_steps_to_max_dt_or_t_end(burgers_model):
    # No wave speed bounds no step: dt is t_end, capped at max_dt.
    mesh = Mesh.make(-1.0, 1.0, 0.1)
    L = lipschitz_bound(burgers_model, 0.0, 0.0)
    assert L == 0.0
    for max_dt in (None, 1.0):
        assert _cfl_policy(L, mesh, 0.9, max_dt, 0.5).dt(mesh.dx) == pytest.approx(0.5)
    policy = _cfl_policy(L, mesh, 0.9, 0.05, 0.5)
    assert policy.dt(mesh.dx) == pytest.approx(0.05) and policy.lipschitz == 0.0


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


def _bare_hook(model):
    """model behind a freeze hook with no du or at, that ignores out:
    frozen_flux completes all three."""
    return dataclasses.replace(model, freeze=lambda xs: lambda u, out=None: model.h(xs, u))


def _bare_at(model):
    """model behind the built-in hook, which fills out and has du and at,
    but with an at that gives a bare hook: frozen_flux completes that too."""

    def freeze(xs):
        f = model.freeze(xs)
        f.at = lambda index: lambda u, out=None: model.h(xs[index], u)
        return f

    return dataclasses.replace(model, freeze=freeze)


MODELS = {
    "quadratic": quadratic,
    "two_state": two_state,
    "heterogeneous_quadratic": heterogeneous_quadratic,
    "lwr": lwr,
    "custom": _custom_model,
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_a_run_solves_for_roots_only_without_closed_forms(name, solve_calls):
    # The built-in hook inverts the flux in closed form; a model without a
    # hook has its critical points, bracket and Legendre bound solved for.
    res = run(MODELS[name](), Mesh.make(-2.0, 2.0, 0.05), datum_step(-0.6, 0.4, 0.3), 0.2)
    assert res.n_steps > 0
    assert (len(solve_calls) > 0) == (name == "custom")


@pytest.mark.parametrize("name", sorted(MODELS))
def test_edge_fluxes_match_unfrozen_oracle(name, rng):
    model = MODELS[name]()
    mesh = Mesh.make(-2.0, 2.0, 0.05)
    tables = fm.mesh_tables(model, mesh)
    xl, xr = tables.xc_ext[:-1], tables.xc_ext[1:]
    # one interface per edge, its fluxes evaluated through h, not frozen
    edges = InterfaceContext(unfrozen_side(model, xl), unfrozen_side(model, xr))
    # states on both sides of the critical curve, one row per level as in EntropyCheck
    U = tables.al_ext[1:-1] + rng.uniform(-1.0, 1.0, (4, mesh.n_cells))
    ext = np.concatenate((U[:, :1], U, U[:, -1:]), axis=1)
    assert np.array_equal(tables.edge_fluxes(U), interface_flux(edges, ext[:, :-1], ext[:, 1:]))
    for row in range(U.shape[0]):
        want_1d = interface_flux(edges, ext[row, :-1], ext[row, 1:])
        assert np.array_equal(tables.edge_fluxes(U[row]), want_1d)


@pytest.mark.filterwarnings("ignore:.*influence cone")
@pytest.mark.parametrize("name", ["quadratic", "two_state", "heterogeneous_quadratic", "lwr"])
def test_run_matches_default_freeze_bitwise(name):
    # and a bare hook, which frozen_flux gives out, du and at
    model = MODELS[name]()
    mesh = Mesh.make(-3.0, 3.0, 0.05)
    datum = datum_bump(-0.5, 0.3, center=-0.3) if name == "lwr" else datum_step(1.0, -0.5)
    a = run(model, mesh, datum, t_end=0.3)
    for other in (dataclasses.replace(model, freeze=None), _bare_hook(model)):
        b = run(other, mesh, datum, t_end=0.3)
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


def test_stale_freeze_hook_is_rejected_by_steady_state_solves():
    # FluxSide freezes the flux, so a stale hook must not reach its branches silently
    model = heterogeneous_quadratic()
    stale = dataclasses.replace(model, h=heterogeneous_quadratic(g_bump=0.2).h)
    xs = np.linspace(-2.0, 2.0, 41)
    with pytest.raises(ConfigError, match="freeze hook"):
        FluxSide.from_model(stale, xs).branch(1.0, "plus")
    side = FluxSide.from_model(model, xs)
    assert np.all(side.branch(1.0, "plus") >= side.alpha)


def test_freeze_hook_out_path_is_checked():
    model = heterogeneous_quadratic()

    def sloppy(xs):
        f = model.freeze(xs)
        return lambda u, out=None: f(u) if out is None else 1.5 * f(u, out=out)

    with pytest.raises(ConfigError, match="freeze hook"):
        Scheme(dataclasses.replace(model, freeze=sloppy), Mesh.make(-2.0, 2.0, 0.05), 1.0)


def test_freeze_hook_without_out_is_a_config_error():
    model = heterogeneous_quadratic()

    def no_out(xs):
        f = model.freeze(xs)
        return lambda u: f(u)

    stale = dataclasses.replace(model, freeze=no_out)
    with pytest.raises(ConfigError, match="out=None"):
        Scheme(stale, Mesh.make(-2.0, 2.0, 0.05), 1.0)
    with pytest.raises(ConfigError, match="out=None"):
        FluxSide.from_model(stale, np.array([0.0])).branch(np.array([1.0]), "plus")


def test_frozen_flux_keeps_the_at_of_a_hook_that_ignores_out():
    # A hook's own at is used at every level, even where frozen_flux has to
    # copy into out: the model is frozen once, never again at an index.
    base, frozen = heterogeneous_quadratic(), []

    def freeze(xs):
        frozen.append(xs.shape)
        g = base.freeze(xs)
        f = lambda u, out=None: g(u)
        f.at = g.at
        return f

    xs, u = np.linspace(-2.0, 2.0, 81), np.linspace(-1.5, 1.5, 81)
    g = fm.frozen_flux(dataclasses.replace(base, freeze=freeze), xs).at(slice(10, 50))
    h, buf = g.at(slice(2, 5)), np.full(3, np.nan)
    assert h(u[12:15], out=buf) is buf and buf.tobytes() == base.h(xs, u)[12:15].tobytes()
    assert frozen == [(81,)]


# ---------------------------------------------------------------------------
# step kernel in the Scheme's buffers

KERNEL_MODELS = {
    **MODELS,
    "heterogeneous_quadratic/freeze=None":
        lambda: dataclasses.replace(heterogeneous_quadratic(), freeze=None),
    "heterogeneous_quadratic/bare hook": lambda: _bare_hook(heterogeneous_quadratic()),
    "heterogeneous_quadratic/bare at": lambda: _bare_at(heterogeneous_quadratic()),
}


@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
def test_edge_sides_match_allocating_reference_bitwise(name, rng):
    model = KERNEL_MODELS[name]()
    mesh = Mesh.make(-2.0, 2.0, 0.05)
    tables = fm.mesh_tables(model, mesh)
    # one row per level, as EntropyCheck passes them, and a single state
    U = tables.al_ext[1:-1] + rng.uniform(-1.0, 1.0, (5, mesh.n_cells))
    for u in (U, U[2]):
        want = reference_edge_sides(model, tables, u)
        buf = np.full(u.shape[:-1] + (mesh.n_cells + 1, 2), np.nan)
        for got in (tables.edge_sides(u), tables.edge_sides(u, out=buf)):
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


@pytest.mark.parametrize("shape", [(), (5,)], ids=["1-D", "(K, N)"])
def test_edge_sides_hand_the_flux_one_contiguous_pair_array(shape, hq_model, monkeypatch):
    # The terms keep the kernel's (..., N+1, 2) pair layout, so the frozen
    # flux runs on one C-contiguous array, not on a strided view.
    mesh = Mesh.make(-2.0, 2.0, 0.05)
    tables = fm.mesh_tables(hq_model, mesh)
    seen, h_pair = [], tables.h_pair

    def recorded(u, out=None):
        seen.append((u, out))
        return h_pair(u, out=out)

    monkeypatch.setitem(vars(tables), "h_pair", recorded)
    a, b = tables.edge_sides(np.zeros(shape + (mesh.n_cells,)))
    ((u, out),) = seen
    assert u is out and u.shape == shape + (mesh.n_cells + 1, 2)
    assert u.flags.c_contiguous
    assert a.base is u and b.base is u


@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
def test_step_arrays_match_allocating_reference_bitwise(name, rng):
    model = KERNEL_MODELS[name]()
    mesh = Mesh.make(-2.0, 2.0, 0.05)
    sch = Scheme(model, mesh, lipschitz=1.0)
    u = sch.al_ext[1:-1] + rng.uniform(-1.0, 1.0, mesh.n_cells)
    kept = [(u, u.tobytes())]
    for dt in [0.45 * mesh.dx] * 12 + [0.1 * mesh.dx]:
        u_new, f_in, f_out = sch.step_arrays(u, dt)
        want, w_in, w_out = reference_step(sch, u, dt)
        assert u_new.tobytes() == want.tobytes()
        assert (f_in, f_out) == (w_in, w_out)
        assert sch.last_range == (float(np.min(u)), float(np.max(u)))
        kept.append((u_new, u_new.tobytes()))
        u = u_new
    # No step touches a state it was given or returned: observers keep them.
    assert all(a.tobytes() == b for a, b in kept)


@pytest.mark.parametrize("family", [quadratic, two_state, heterogeneous_quadratic, lwr])
def test_step_allocates_only_the_new_state(family, rng):
    model = family()
    mesh = Mesh.make(-2.0, 2.0, 0.001)
    sch = Scheme(model, mesh, lipschitz=1.0)
    u = sch.al_ext[1:-1] + rng.uniform(-1.0, 1.0, mesh.n_cells)
    dt = 0.45 * mesh.dx
    u = sch.step_arrays(u, dt)[0]  # warm-up
    tracemalloc.start()
    try:
        sch.step_arrays(u, dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mesh.n_cells == 4000
    assert peak < 1.5 * u.nbytes, peak


def _compose(index, inner):
    """The index of xs[index][inner]."""
    return np.arange(81)[index][inner]


@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
def test_frozen_flux_at_an_index_matches_the_full_table_bitwise(name, rng):
    f = fm.frozen_flux(KERNEL_MODELS[name](), np.linspace(-2.0, 2.0, 81))
    u = rng.uniform(-1.5, 1.5, 81)
    # a range of columns, and the (edge, side) table of the Scheme
    for index in (slice(10, 50), np.arange(80)[:, None] + np.arange(2)):
        g = f.at(index)
        assert g(u[index]).tobytes() == f(u)[index].tobytes()
        # the one contract: every f fills out, and carries du and at, and
        # so does the f of an at of an at (the Scheme's banded steps)
        for h, sub in ((g, index), (g.at(slice(1, 4)), _compose(index, slice(1, 4)))):
            buf = np.full(u[sub].shape, np.nan)
            assert h(u[sub], out=buf) is buf and buf.tobytes() == f(u)[sub].tobytes()
            assert h.du(u[sub]).tobytes() == f.du(u)[sub].tobytes()


# ---------------------------------------------------------------------------
# active band: a step evaluates only the cells that can change

BAND_MODELS = {
    "quadratic": (quadratic, (1.0, -0.5)),
    "two_state": (two_state, (-1.0, 1.0)),
    "heterogeneous_quadratic": (heterogeneous_quadratic, (0.2, 1.2)),
    "heterogeneous_quadratic/freeze=None":
        (KERNEL_MODELS["heterogeneous_quadratic/freeze=None"], (0.2, 1.2)),
    "heterogeneous_quadratic/bare hook":
        (KERNEL_MODELS["heterogeneous_quadratic/bare hook"], (0.2, 1.2)),
    "heterogeneous_quadratic/bare at":
        (KERNEL_MODELS["heterogeneous_quadratic/bare at"], (0.2, 1.2)),
    "lwr": (lwr, (-0.7, -0.3)),
    "custom": (_custom_model, (-1.0, 0.5)),
    "cosh": (cosh_model, (-1.0, 0.5)),  # varies at all cells but the end ones: none is quiet
}


class Windows:
    """Run observer recording the window of cells each step recomputed."""

    def start(self, scheme, certified, u0):
        self.scheme, self.windows = scheme, []

    def step(self, u, u_new, dt):
        self.windows.append(self.scheme.last_window)


def check_step_against_full(sch, u, u_new, dt):
    """One step's outputs against the allocating reference kernel, which
    evaluates every cell: u_new, last_range, last_edges, the boundary fluxes
    and the band, the first and last cells of nonzero dF (an empty band sits
    at the start of the window)."""
    want, f_in, f_out = reference_step(sch, u, dt)
    assert u_new.tobytes() == want.tobytes()
    assert sch.last_range == (float(np.min(u)), float(np.max(u)))
    a_ref, b_ref = reference_edge_sides(sch.model, sch.tables, u)
    _, a, b, F = sch.last_edges
    assert [z.tobytes() for z in (a, b)] == [z.tobytes() for z in (a_ref, b_ref)]
    assert (F.tobytes(), float(F[0]), float(F[-1])) == (np.maximum(a, b).tobytes(), f_in, f_out)
    moved = np.flatnonzero(np.diff(np.maximum(a_ref, b_ref)) * (dt / sch.mesh.dx))
    span = (moved[0], moved[-1] + 1) if moved.size else (sch.last_window[0],) * 2
    assert sch.band[0] is u_new and sch.band[1:] == span


class BandAgainstFull(Windows):
    """Windows, checking each step against the reference kernel
    (check_step_against_full)."""

    def step(self, u, u_new, dt):
        check_step_against_full(self.scheme, u, u_new, dt)
        super().step(u, u_new, dt)


class FullEvaluation:
    """Run observer that drops the Scheme's band after each step, so the
    next step and the EntropyChecks after it evaluate every cell."""

    def start(self, scheme, certified, u0):
        self.scheme = scheme

    def step(self, u, u_new, dt):
        self.scheme.band = (None, 0, self.scheme.mesh.n_cells)


def _left_end_data(name):
    """Data whose waves run left: the mirror image (-right, -left) of the
    model's pair, but lwr's own pair, which already has a state below its
    alpha (about -0.45) on the left."""
    left, right = BAND_MODELS[name][1]
    return (left, right) if name == "lwr" else (-right, -left)


# A jump two cells from either end: its waves reach that ghost edge while
# the other end of the window stays quiet.
BAND_CASES = [pytest.param(name, 2.9, BAND_MODELS[name][1], id=name)
              for name in sorted(BAND_MODELS)] + [
    pytest.param(name, -2.9, _left_end_data(name), id=f"{name}/left end")
    for name in sorted(BAND_MODELS)]


@pytest.mark.filterwarnings("ignore:.*influence cone")
@pytest.mark.parametrize("name, location, data", BAND_CASES)
def test_banded_steps_match_full_evaluation_bitwise(name, location, data):
    family, (left, right) = BAND_MODELS[name][0], data
    model, mesh = family(), Mesh.make(-3.0, 3.0, 0.05)
    n = mesh.n_cells
    datum = datum_step(left, right, location=location)
    ks = np.array([right, 0.7, left, -0.4, 1.1])  # unsorted, at the data too
    results = []
    for full_eval in ((), (FullEvaluation(),)):
        band, checks = BandAgainstFull(), (EntropyCheck(), EntropyCheck(k_values=ks))
        refs = (ReferenceEntropyCheck(), ReferenceEntropyCheck(k_values=ks))
        res = run(model, mesh, datum, t_end=0.3, snapshot_times=(0.05, 0.1234),
                  observers=(band, *full_eval, *checks, *refs))
        for check, ref in zip(checks, refs):
            assert_same_entropy_report(check.report(), ref.report())
        results.append((res, band.windows, [c.report() for c in checks]))
    (res, windows, reports), (full, full_windows, full_reports) = results
    assert set(full_windows) == {(0, n)}
    if name != "cosh":
        partial = [w for w in windows if w != (0, n)]
        assert len(partial) > res.n_steps // 2
        # a band at the ghost edge of the jump's end
        assert any((c0 == 0) if location < 0 else (c1 == n) for c0, c1 in partial)
    assert res.final.u.tobytes() == full.final.u.tobytes()
    fields = ("n_steps", "boundary_net_outflow", "mass_drift", "running_min", "running_max")
    assert [repr(getattr(res, f)) for f in fields] == [repr(getattr(full, f)) for f in fields]
    for got, want in zip(reports, full_reports):
        assert_same_entropy_report(got, want)


def test_the_band_trim_scans_when_an_end_goes_quiet():
    # The trim probes the two cells at each end of the window, and scans
    # the window when a pair is quiet: a band that shrinks by two cells or
    # more, or empties. Monotone steps seldom make a cell exactly quiet, so
    # the test quiets cells itself, in place and inside the band, which the
    # band rule allows: every cell outside it is still the last step's.
    mesh = Mesh.make(-3.0, 3.0, 0.05)
    sch, dt, x = Scheme(quadratic(), mesh, lipschitz=1.0), 0.45 * mesh.dx, mesh.centers()
    # Two shocks running into each other between the states 1 and -1 of
    # u^2/2, whose fluxes are equal: 1 | -1 is a stationary shock.
    u = project_initial(PiecewiseConstantDatum((-0.5, 0.5), (1.0, 0.3, -1.0)), mesh).u

    def step(u):
        u_new = sch.step_arrays(u, dt)[0]
        check_step_against_full(sch, u, u_new, dt)
        return u_new

    for _ in range(8):
        u = step(u)
    _, lo, hi = sch.band
    assert 0 < lo and hi - lo > 12 and hi < mesh.n_cells
    # One end at a time, each to the state next to the band.
    u[lo:lo + 3] = 1.0
    u = step(u)
    _, first, end = sch.band
    assert first - lo >= 2 and end >= hi
    u[end - 3:end] = -1.0
    u = step(u)
    assert sch.band[1] == first and end - sch.band[2] >= 2
    _, first, end = sch.band
    u[first:end] = np.where(x[first:end] < 0.0, 1.0, -1.0)
    for _ in range(2):
        u = step(u)
        assert sch.band[1] == sch.band[2]


@pytest.mark.filterwarnings("ignore:.*influence cone")
@pytest.mark.parametrize("name", ["quadratic", "two_state", "heterogeneous_quadratic", "lwr", "cosh"])
def test_scheme_commutes_with_the_reflection(name):
    # w(t, x) = -u(t, -x) solves the law of mirror(model); the interface
    # flux maps onto itself, so the scheme commutes with the reflection up
    # to rounding (at most 4.9e-15 measured here, on lwr).
    family, (left, right) = BAND_MODELS[name]
    model, mesh = family(), Mesh.make(-3.0, 3.0, 0.02)
    u0 = project_initial(datum_step(left, right, location=-0.5), mesh).u
    res = run(model, mesh, GridState(u=u0, time=0.0), t_end=0.5)
    ref = run(mirror(model), mesh, GridState(u=-u0[::-1], time=0.0), t_end=0.5)
    assert res.n_steps == ref.n_steps > 0
    assert np.max(np.abs(res.final.u + ref.final.u[::-1])) <= 1e-11


@pytest.mark.parametrize("family, lo, hi", [(heterogeneous_quadratic, 0.15, 1.3),
                                            (lwr, -0.75, -0.25), (two_state, -1.0, 1.0)])
def test_scheme_contracts_l1_distance(family, lo, hi, rng):
    # Crandall-Tartar: a monotone conservative scheme is L1-contractive. Each
    # pair agrees outside |x| < 0.75, 225 cells from either end, and a step
    # spreads the difference by at most one cell, so over 200 steps the
    # boundary fluxes of the pair stay equal. Crossing pairs contract; for
    # an ordered pair (v >= u) the distance is the mass difference, so its
    # relative increase per step is rounding (at most 4.2e-16 measured here).
    model, mesh = family(), Mesh.make(-3.0, 3.0, 0.01)
    L = steady.envelope(model, None, lo, hi).lipschitz
    dt, inner = 0.45 * mesh.dx / L, np.abs(mesh.centers()) < 0.75
    for pair in range(5):
        u = rng.uniform(lo, hi, mesh.n_cells)
        v = u.copy()
        v[inner] = rng.uniform(lo, hi, int(inner.sum()))
        if pair % 2 == 0:
            v = np.maximum(u, v)
        su, sv = Scheme(model, mesh, L), Scheme(model, mesh, L)
        dist = np.abs(u - v).sum()
        for _ in range(200):
            u, v = su.step_arrays(u, dt)[0], sv.step_arrays(v, dt)[0]
            new = np.abs(u - v).sum()
            assert new <= dist * (1.0 + 1e-13), (pair, (new - dist) / dist)
            dist = new


def test_a_banded_step_evaluates_the_flux_of_its_own_edges(hq_model, rng):
    # Windows of one width at other places, and one repeated: the flux the
    # Scheme keeps for the last range of edges must follow the range itself.
    mesh = Mesh.make(-3.0, 3.0, 0.05)
    sch = Scheme(hq_model, mesh, lipschitz=1.0)
    u = sch.al_ext[1:-1] + rng.uniform(-1.0, 1.0, mesh.n_cells)
    want = np.maximum(*reference_edge_sides(hq_model, sch.tables, u))
    for lo in (30, 50, 50, 70):
        sch.band = (u, lo, lo + 10)
        sch.step_arrays(u, 0.1 * mesh.dx)
        assert sch.last_edges[3][lo:lo + 11].tobytes() == want[lo:lo + 11].tobytes()


def test_nan_inside_the_band_raises(hq_model):
    mesh = Mesh.make(-3.0, 3.0, 0.05)
    sch = Scheme(hq_model, mesh, lipschitz=2.0)
    u = project_initial(datum_step(0.2, 1.2, location=2.0), mesh).u
    for _ in range(4):
        u = sch.step_arrays(u, 0.2 * mesh.dx)[0]
    last, lo, hi = sch.band
    assert last is u and 0 < lo < hi < mesh.n_cells
    u[(lo + hi) // 2] = np.nan  # in place: the next step still takes the band
    with pytest.raises(NumericalError, match="non-finite state entering step"):
        sch.step_arrays(u, 0.2 * mesh.dx)


def test_band_keeps_quiet_cells_out_of_the_step():
    # A shock on 4000 cells: the steps must evaluate a few cells each, not
    # fall back to the whole mesh.
    mesh, band = Mesh.make(-4.0, 4.0, 0.002), Windows()
    res = run(quadratic(), mesh, datum_step(1.0, -0.5), t_end=0.5, observers=(band,))
    assert mesh.n_cells == 4000 and res.n_steps == len(band.windows) > 100
    share = np.mean([c1 - c0 for c0, c1 in band.windows]) / mesh.n_cells
    assert share <= 0.05, share


def test_a_band_freezes_its_flux_again_only_when_it_leaves_its_blocks():
    # The same shock: the band moves about 60 cells in 556 steps, and its
    # range of edges changes 63 times. The kernel evaluates whole blocks of
    # edges on one frozen form until the band leaves them, so it calls the
    # hook's at once per range of blocks the band enters, a few times.
    base, calls = quadratic(), []

    def counted(f):
        at = f.at

        def counting_at(index):
            calls.append(index)
            return counted(at(index))

        f.at = counting_at
        return f

    class Steps:
        """Counts only the at calls made once the Scheme is built."""

        def start(self, scheme, certified, u0):
            calls.clear()

        def step(self, u, u_new, dt):
            pass

    model = dataclasses.replace(base, freeze=lambda xs: counted(base.freeze(xs)))
    res = run(model, Mesh.make(-4.0, 4.0, 0.002), datum_step(1.0, -0.5), t_end=0.5,
              observers=(Steps(),))
    assert res.n_steps == 556
    assert 0 < len(calls) <= 4, calls
    assert all(i.start % solver._EDGE_BLOCK == 0 for i in calls), calls


@pytest.mark.parametrize("name", sorted(BAND_MODELS))
def test_block_views_follow_the_band_back_and_forth(name, rng):
    # The kernel keeps its views of one range of edge blocks until the band
    # leaves it. On the flux's minimizers, steady outside [-X, X], a pulse
    # below them on its left and above them on its right grows the band a
    # cell per step each way, across blocks; resetting one end of the band
    # to the background in place (the band rule allows it) shrinks it back;
    # a foreign state takes a full step, and the band starts over from it.
    model, mesh = BAND_MODELS[name][0](), Mesh.make(-4.0, 4.0, 0.02)
    sch, n, dt = Scheme(model, mesh, lipschitz=1.0), mesh.n_cells, 0.45 * mesh.dx
    calls, at = [], sch.h_pair.at
    sch.h_pair.at = lambda index: calls.append(index) or at(index)
    background = sch.al_ext[1:-1].copy()
    pulse = np.concatenate((-rng.uniform(0.2, 0.6, 10), rng.uniform(0.2, 0.6, 10)))
    blocks = [sch._block[:2]]

    def step(u, n_steps):
        for _ in range(n_steps):
            u_new = sch.step_arrays(u, dt)[0]
            check_step_against_full(sch, u, u_new, dt)
            blocks.append(sch._block[:2])
            u = u_new
        return u

    u = background.copy()
    u[100:120] += pulse
    u = step(u, 50)  # grow
    _, lo, hi = sch.band
    u[lo:lo + 60] = background[lo:lo + 60]  # shrink from the left
    u = step(u, 10)
    _, lo, hi = sch.band
    u[hi - 60:hi] = background[hi - 60:hi]  # and from the right
    u = step(u, 10)
    u = background.copy()  # a foreign state
    u[300:320] += pulse
    step(u, 10)
    changes = [b for a, b in zip(blocks, blocks[1:]) if a != b]
    banded = [b for b in changes if b != (0, n + 1)]
    assert len(set(blocks)) >= 4 and (0, n + 1) in changes
    assert all(e0 % solver._EDGE_BLOCK == 0 for e0, _ in banded)
    pairs = list(zip(banded, banded[1:]))
    assert any(a[1] - a[0] < b[1] - b[0] for a, b in pairs)  # grown
    assert any(a[1] - a[0] > b[1] - b[0] for a, b in pairs)  # and shrunk
    # One frozen form per change of range; the whole range is h_pair itself.
    assert [(i.start, i.stop) for i in calls] == banded


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_step_rejects_infinities(burgers_model, value):
    scheme = Scheme(burgers_model, Mesh.make(-1.0, 1.0, 0.1), lipschitz=1.0)
    bad = np.zeros(scheme.mesh.n_cells)
    bad[7] = value
    with pytest.raises(NumericalError, match="non-finite state entering step"):
        scheme.step_arrays(bad, dt=0.01)


@pytest.mark.parametrize("poison_after", ["third step", "next to last step"])
def test_nan_partway_through_a_run_raises(poison_after):
    base = quadratic()
    mesh = Mesh.make(-1.0, 1.0, 0.05)
    datum = datum_step(1.0, -0.5)
    n = run(base, mesh, datum, t_end=0.3).n_steps
    poisoned = [False]

    def h(x, u):
        v = base.h(x, u)
        return np.where(poisoned[0], np.nan, v)

    class Poison:
        def start(self, scheme, certified, u0):
            self.k = 0

        def step(self, u, u_new, dt):
            self.k += 1
            poisoned[0] = self.k == (3 if poison_after == "third step" else n - 1)

    model = dataclasses.replace(base, h=h, freeze=None)
    assert run(model, mesh, datum, t_end=0.3).n_steps == n > 4
    # The step after the poisoned one produces NaN; the state it leaves is
    # rejected by the next step, or at the end of the run.
    where = "entering step" if poison_after == "third step" else "at the end of the run"
    with pytest.raises(NumericalError, match=f"non-finite state {where}"):
        run(model, mesh, datum, t_end=0.3, observers=(Poison(),))


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


def test_a_kernel_that_leaks_mass_is_an_invariant_breach(monkeypatch):
    # The states stay in the bracket, but each step gives cell 0 the state
    # of the last cell: the run stops at the first snapshot.
    step = Scheme.step_arrays

    def leaky(self, u, dt):
        u_new, f_in, f_out = step(self, u, dt)
        return np.concatenate((u_new[-1:], u_new[1:])), f_in, f_out

    monkeypatch.setattr(Scheme, "step_arrays", leaky)
    with pytest.raises(InvariantBreach, match="relative mass drift .* at t=0.1 passes 1e-10"):
        run(quadratic(), Mesh.make(-2.0, 2.0, 0.05), datum_step(1.0, -0.5), t_end=0.3,
            snapshot_times=(0.1,))


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


def test_the_certificate_reads_the_flux_minima_the_model_keeps():
    # H(x_j, alpha_j) at the N + 2 ghost-extended cells depends on the
    # model and the mesh alone: the certificate's scale 1 + max |f(al_ext)|
    # is kept beside alpha, and a second run evaluates no flux there.
    base = cosh_model()
    ext_calls = []
    mesh = Mesh.make(-5.0, 5.0, 0.05)

    def h(x, u):
        if np.shape(x) == (mesh.n_cells + 2,):
            ext_calls.append(1)
        return base.h(x, u)

    model = dataclasses.replace(base, h=h)
    first = run(model, mesh, datum_step(-0.5, 0.8), t_end=0.1)
    assert ext_calls == [1]
    tables = fm.mesh_tables(model, mesh)
    assert tables.scale == 1.0 + float(np.max(np.abs(tables.flux(tables.al_ext))))
    del ext_calls[:]
    second = run(model, mesh, datum_step(-0.5, 0.8), t_end=0.1)
    assert ext_calls == []
    assert second.final.u.tobytes() == first.final.u.tobytes()


def test_schemes_on_one_mesh_share_the_pair_table_the_model_keeps():
    # The (N+1, 2) table depends on the model and the mesh alone: gathered
    # when a Scheme first asks, not by the steady states or the bracket.
    model, mesh = heterogeneous_quadratic(), Mesh.make(-3.0, 3.0, 0.05)
    steady.build_steady(model, mesh, 2.0)
    steady.bracket(model, mesh, np.full(mesh.n_cells, 0.5))
    assert "h_pair" not in vars(fm.mesh_tables(model, mesh))
    first = Scheme(model, mesh, lipschitz=1.0)
    assert Scheme(model, mesh, lipschitz=2.0).h_pair is first.h_pair
    assert first.h_pair is fm.mesh_tables(model, mesh).h_pair


def test_a_model_keeps_the_tables_of_one_mesh():
    model, mesh, other = two_state(), Mesh.make(-3.0, 3.0, 0.05), Mesh.make(-3.0, 3.0, 0.1)
    tables, pair = fm.mesh_tables(model, mesh), Scheme(model, mesh, 1.0).h_pair
    assert Scheme(model, other, 1.0).h_pair is not pair
    assert fm.mesh_tables(model, other).mesh == other
    again = fm.mesh_tables(model, mesh)
    assert again is not tables and Scheme(model, mesh, 1.0).h_pair is not pair
    assert again.al_ext.tobytes() == tables.al_ext.tobytes()


def test_a_replaced_copy_builds_its_own_pair_table():
    model, mesh = lwr(), Mesh.make(-3.0, 3.0, 0.05)
    pair = Scheme(model, mesh, 1.0).h_pair
    assert Scheme(model, mesh, 1.0).h_pair is pair
    copy = Scheme(dataclasses.replace(model), mesh, 1.0)
    assert copy.h_pair is not pair
    u = np.linspace(-0.9, -0.1, mesh.n_cells)
    want = fm.mesh_tables(model, mesh).edge_fluxes(u)
    assert copy.tables.edge_fluxes(u).tobytes() == want.tobytes()


WARM_MODELS = {**MODELS, "cosh": cosh_model,
               "hook without at": lambda: _bare_hook(heterogeneous_quadratic())}


@pytest.mark.parametrize("name", sorted(WARM_MODELS))
def test_a_warm_model_runs_to_the_bytes_of_a_cold_one(name):
    # A warm run steps on the tables a cold one builds: one run on a fresh
    # model agrees bitwise with each run of a model warmed on the mesh, and
    # with one after a run on another mesh took the tables.
    mesh, other, datum = Mesh.make(-3.0, 3.0, 0.05), Mesh.make(-2.0, 2.0, 0.1), datum_step(0.3, 1.2)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*influence cone.*")
        cold = run(WARM_MODELS[name](), mesh, datum, t_end=0.3)
        warm_model = WARM_MODELS[name]()
        warm = [run(warm_model, m, datum, t_end=0.3) for m in (mesh, mesh, other, mesh)]
    assert cold.n_steps > 0
    for res in warm[:2] + warm[3:]:
        assert res.n_steps == cold.n_steps
        assert res.final.u.tobytes() == cold.final.u.tobytes()
        for w, c in zip(res.bracket, cold.bracket):
            assert w.values.tobytes() == c.values.tobytes() and w.flux_level == c.flux_level


def test_model_setup_is_computed_once_per_model(monkeypatch):
    # Custom flux without a freeze hook, so every critical point is a root solve.
    a = lambda x: 1.5 + 0.5 * np.clip(x, -1.0, 1.0)
    model = FluxModel(
        h=lambda x, u: a(x) * (np.cosh(u) - 1.0),
        du_h=lambda x, u: a(x) * np.sinh(u),
        dx_h=lambda x, u: np.where(np.abs(x) < 1.0, 0.5, 0.0) * (np.cosh(u) - 1.0),
        hetero_radius=1.0,
    )
    mesh = Mesh.make(-3.0, 3.0, 0.05)
    calls = {"build": 0, "sup": 0, "lipschitz": 0}
    sizes = []
    build, sup, solve = fm.CriticalCurve.build.__func__, fm.legendre_sup, fm.solve_increasing
    lip = solver.lipschitz_bound

    def counted_build(cls, m):
        calls["build"] += 1
        return build(cls, m)

    def counted_sup(m, lam, *args, **kwargs):
        calls["sup"] += 1
        return sup(m, lam, *args, **kwargs)

    def counted_solve(g, shape=(), **kwargs):
        # The critical-point solve is the one with the default bracket and tolerance.
        if not kwargs:
            sizes.append(int(np.prod(shape)))
        return solve(g, shape, **kwargs)

    def counted_lip(m, lo, hi):
        calls["lipschitz"] += 1
        return lip(m, lo, hi)

    monkeypatch.setattr(solver, "lipschitz_bound", counted_lip)
    monkeypatch.setattr(fm.CriticalCurve, "build", classmethod(counted_build))
    monkeypatch.setattr(fm, "legendre_sup", counted_sup)
    monkeypatch.setattr(fm, "solve_increasing", counted_solve)
    mesh_solves, results = [], []
    for _ in range(2):
        del sizes[:]
        results.append(run(model, mesh, datum_step(-0.5, 0.8), t_end=0.2))
        mesh_solves.append([n for n in sizes if n != fm.ALPHA_GRID_SAMPLES + 1])
    # The bracket's L is taken once per run, and nothing reads the envelope.
    assert calls == {"build": 1, "sup": 0, "lipschitz": 2}
    first, res = results
    # The Legendre sup is taken once per model, on the first read of a constant.
    first.envelope.upper_bound
    assert calls["sup"] == 1
    first.envelope.upper_bound
    res.envelope.lower_bound
    assert calls == {"build": 1, "sup": 1, "lipschitz": 2}
    # One solve on the mesh in the first run, at the centers in (-1, 1) and
    # one per exterior side; the second reuses it.
    assert mesh_solves == [[int(np.sum(np.abs(mesh.centers()) < 1.0)) + 2], []]
    assert np.array_equal(res.final.u, run(dataclasses.replace(model), mesh,
                                           datum_step(-0.5, 0.8), t_end=0.2).final.u)

    # A copy with another flux starts with an empty cache.
    shifted = dataclasses.replace(
        model,
        h=lambda x, u: model.h(x, u - 0.5),
        du_h=lambda x, u: model.du_h(x, u - 0.5),
    )
    assert not np.array_equal(shifted.curve.alphas, model.curve.alphas)
    ref = build(fm.CriticalCurve, shifted)
    assert np.array_equal(shifted.curve.xs, ref.xs)
    assert np.array_equal(shifted.curve.alphas, ref.alphas)
    assert (shifted.curve.alpha_min, shifted.curve.alpha_max) == (ref.alpha_min, ref.alpha_max)
    assert shifted.legendre_sup_1 == sup(shifted, 1.0)
    assert shifted.legendre_sup_1 != model.legendre_sup_1


def test_a_model_freezes_once_per_mesh_and_once_at_its_curve():
    base = heterogeneous_quadratic()
    freezes = []

    def counted(xs):
        freezes.append(np.size(xs))
        return base.freeze(xs)

    model = dataclasses.replace(base, freeze=counted)
    mesh, datum = Mesh.make(-3.0, 3.0, 0.05), datum_step(1.0, -0.5)
    first = run(model, mesh, datum, t_end=0.2)
    # One freeze at the ghost-extended centers serves the bracket and the
    # Scheme, and one at the curve's samples serves L and the envelope.
    assert freezes.count(mesh.n_cells + 2) == freezes.count(fm.ALPHA_GRID_SAMPLES + 1) == 1
    assert mesh.n_cells not in freezes
    del freezes[:]
    again = run(model, mesh, datum, t_end=0.2)
    assert freezes == []
    assert (again.n_steps, again.final.u.tobytes()) == (first.n_steps, first.final.u.tobytes())
    other = Mesh.make(-3.0, 3.0, 0.04)
    run(model, other, datum, t_end=0.2)
    assert freezes == [other.n_cells + 2]
    # A copy keeps no memo of the original: it freezes for itself, so a copy
    # with a stale hook is checked again.
    del freezes[:]
    run(dataclasses.replace(model), mesh, datum, t_end=0.2)
    assert freezes.count(mesh.n_cells + 2) == freezes.count(fm.ALPHA_GRID_SAMPLES + 1) == 1

    # Once the curve and the Legendre bound exist, L and the envelope evaluate
    # the flux the curve keeps frozen: h and du_h are not called, and the
    # values keep the bits of evaluating them at the samples.
    calls = []

    def counting(fn):
        return lambda x, u: calls.append(fn) or fn(x, u)

    model = dataclasses.replace(base, h=counting(base.h), du_h=counting(base.du_h))
    xs, X, s1 = model.curve.xs, model.hetero_radius, model.legendre_sup_1
    del calls[:]
    L = lipschitz_bound(model, -0.7, 1.3)
    env = steady.envelope(model, None, -0.5, 1.0)
    assert calls == []
    assert L == float(max(np.max(np.abs(base.du_h(xs, -0.7))), np.max(np.abs(base.du_h(xs, 1.3)))))
    assert env.upper_anchor == float(np.max(base.h(xs, env.M))) + s1
    assert env.lower_anchor == -float(np.max(base.h(xs, env.m))) - s1
    assert env.upper_bound == float(base.h(-X, env.upper_anchor)) + s1
    assert env.lower_bound == -float(base.h(-X, env.lower_anchor)) - s1


# ---------------------------------------------------------------------------
# the bracket: the CFL step and the containment check

BRACKET_DATA = {
    "quadratic": datum_step(1.0, -0.5),
    "two_state": datum_step(-1.0, 1.0),
    "heterogeneous_quadratic": datum_bump(0.2, 1.0, center=-0.3),
    "lwr": PiecewiseConstantDatum(breakpoints=(-1.0, 0.5), values=(-0.3, -0.7, -0.5)),
    "custom": datum_step(-0.5, 0.8),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_bracket_states_are_fixed_points_sandwiching_the_data(name):
    model, datum = MODELS[name](), BRACKET_DATA[name]
    mesh = Mesh.make(-4.0, 4.0, 0.02)
    u0 = project_initial(datum, mesh).u
    lower, upper = steady.bracket(model, mesh, u0)
    xc, al = mesh.centers(), fm.mesh_tables(model, mesh).al_ext[1:-1]
    floor = float(np.max(model.h(model.curve.xs, model.curve.alphas)))
    # the levels are the least the data and the critical curve allow
    assert upper.flux_level == max(float(np.max(model.h(xc, np.maximum(u0, al)))), floor)
    assert lower.flux_level == max(float(np.max(model.h(xc, np.minimum(u0, al)))), floor)
    for st in (lower, upper):
        assert solver.steady_residual(st, model, mesh) <= 1e-12 * (1.0 + abs(st.flux_level))
    tol = 1e-12 * (1.0 + np.abs(u0))
    assert np.all(lower.values <= np.minimum(u0, al) + tol)
    assert np.all(np.maximum(u0, al) <= upper.values + tol)
    assert (lower.bound, upper.bound) == (np.min(lower.values), np.max(upper.values))

    res = run(model, mesh, datum, t_end=0.5)
    assert [s.values.tobytes() for s in res.bracket] == [lower.values.tobytes(),
                                                         upper.values.tobytes()]
    assert res.cfl.lipschitz == lipschitz_bound(model, lower.bound, upper.bound)
    # The envelope comes from the datum values; the projected averages may
    # pass them by rounding (1.000000000000023 for a value 1.0 here).
    env = res.envelope
    L_env = lipschitz_bound(model, env.lower_bound, env.upper_bound)
    assert res.cfl.lipschitz <= L_env * (1.0 + 1e-12)
    assert lower.bound <= res.running_min and res.running_max <= upper.bound


@pytest.mark.parametrize("last", [False, True])
def test_a_state_leaving_the_bracket_is_an_invariant_breach(monkeypatch, last):
    model, mesh, datum = quadratic(), Mesh.make(-2.0, 2.0, 0.05), datum_step(1.0, -0.5)
    n = run(model, mesh, datum, t_end=0.3).n_steps
    step, calls = Scheme.step_arrays, [0]

    def leaky(self, u, dt):
        u_new, f_in, f_out = step(self, u, dt)
        calls[0] += 1
        if calls[0] == (n if last else 3):
            u_new[mesh.n_cells // 2] = 1.0 + 1e-9  # just above the upper state, 1
        return u_new, f_in, f_out

    monkeypatch.setattr(Scheme, "step_arrays", leaky)
    where = "at the end of the run" if last else "entering step"
    with pytest.raises(InvariantBreach, match=f"{where} leaves the bracket"):
        run(model, mesh, datum, t_end=0.3)


def test_a_bracket_that_is_no_fixed_point_is_refused_before_the_first_step(monkeypatch):
    model, mesh = heterogeneous_quadratic(), Mesh.make(-3.0, 3.0, 0.05)
    make = solver.bracket

    def raised(model, mesh, u):
        lower, upper = make(model, mesh, u)
        values = upper.values.copy()
        values[mesh.n_cells // 2] += 1e-6  # an interior cell, inside (-X, X)
        return lower, dataclasses.replace(upper, values=values)

    def no_step(self, u, dt):
        raise AssertionError("stepped on an uncertified bracket")

    monkeypatch.setattr(solver, "bracket", raised)
    monkeypatch.setattr(Scheme, "step_arrays", no_step)
    with pytest.raises(InvariantBreach, match="the upper bracket state of flux level .* "
                       "no fixed point of the Scheme: residual"):
        run(model, mesh, datum_step(1.0, -0.5), t_end=0.2)


def test_the_bracket_certificate_scales_with_the_flux_minima():
    # Flux minima of -1e6 under an upper level of -0.003356: the root solve
    # leaves a flux residual of 1.16e-10, far past 1e-12 (1 + |level|) but
    # at rounding level on the scale of the minima, and the run goes on.
    model = two_state(left_coefficient=1.0, right_coefficient=2.0,
                      left_offset=-1e6, right_offset=-1e6)
    mesh = Mesh.make(-3.0, 3.0, 0.01)
    res = run(model, mesh, datum_step(999.9999, 707.10678), t_end=1e-4)
    upper = res.bracket[1]
    assert res.n_steps > 0
    assert abs(upper.flux_level) < 0.01
    assert solver.steady_residual(upper, model, mesh) > 1e-12 * (1.0 + abs(upper.flux_level))


def test_a_hook_without_alpha_freezes_each_place_once():
    # Each place solves its critical points on the flux it freezes anyway:
    # the curve at its samples, the mesh at the span of its ghost-extended
    # centers through at, which the hook slices.
    base = heterogeneous_quadratic()
    freezes = []

    def no_alpha(f):
        g = lambda u, out=None: f(u, out=out)
        g.du, g.inverse, g.du_inverse = f.du, f.inverse, f.du_inverse
        g.at = lambda index: no_alpha(f.at(index))
        return g

    def counted(xs):
        freezes.append(np.size(xs))
        return no_alpha(base.freeze(xs))

    model = FluxModel(h=base.h, du_h=base.du_h, dx_h=base.dx_h,
                      hetero_radius=base.hetero_radius, freeze=counted)
    mesh = Mesh.make(-3.0, 3.0, 0.05)
    run(model, mesh, datum_step(1.0, -0.5), t_end=0.2)
    xc_ext = fm.mesh_tables(model, mesh).xc_ext
    span = fm.distinct_span(model, xc_ext)[0]
    assert sorted(set(freezes)) == sorted(freezes)
    assert mesh.n_cells + 2 in freezes and xc_ext[span].size not in freezes


# What an Envelope derives when first read (see steady.Envelope).
ENVELOPE_CONSTANTS = {"lower_anchor", "upper_anchor", "lower_bound", "upper_bound", "lipschitz"}


def test_constant_data_at_alpha_take_one_step_per_event():
    # The bracket is [alpha, alpha] = [0, 0], where the flux has no wave
    # speed: every edge carries the flux minimum, so the data are a fixed
    # point and each step runs to the next event, or takes max_dt.
    mesh, datum = Mesh.make(-1.0, 1.0, 0.1), datum_constant(0.0)
    u0 = project_initial(datum, mesh).u
    for max_dt, n_steps in ((None, 2), (0.05, 10)):
        res = run(quadratic(), mesh, datum, t_end=0.5, snapshot_times=(0.25,), max_dt=max_dt)
        assert [s.bound for s in res.bracket] == [0.0, 0.0]
        assert res.cfl.lipschitz == 0.0 and res.n_steps == n_steps
        assert [s.time for s in res.snapshots] == [0.25, 0.5]
        assert all(s.u.tobytes() == u0.tobytes() for s in res.snapshots)
        assert not ENVELOPE_CONSTANTS & set(vars(res.envelope))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_the_envelope_answers_its_own_lipschitz_bound(name):
    model = MODELS[name]()
    env = steady.envelope(model, None, -0.5, 1.0)
    assert env.lipschitz.hex() == lipschitz_bound(model, env.lower_bound, env.upper_bound).hex()


# A window whose boundary cells lie inside (-X, X), and the window of
# test_compact_solves_match_solves_at_every_cell_bitwise whose first center
# sits on X = 0, where a span over the ghost-extended centers would be empty.
CUT_WINDOWS = {
    "inside (-X, X)": (heterogeneous_quadratic, (-1.0, 1.0, 0.05)),
    "center on X = 0": (quadratic, (-1.0 / 16.0, 39.0 / 16.0, 1.0 / 8.0)),
}


@pytest.mark.parametrize("window", sorted(CUT_WINDOWS))
def test_window_inside_the_heterogeneity_steps_on_the_bracket(window):
    # Each ghost copies its boundary cell, flux included, so the bracket
    # states are fixed points on any window and certify the run.
    family, bounds = CUT_WINDOWS[window]
    model, mesh = family(), Mesh.make(*bounds)
    tables = fm.mesh_tables(model, mesh)
    for ext in (tables.xc_ext, tables.al_ext):
        assert ext[0] == ext[1] and ext[-1] == ext[-2]
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*influence cone.*")
        res = run(model, mesh, datum_step(0.2, 1.2), t_end=0.1)
    assert res.n_steps > 0
    for st in res.bracket:
        assert solver.steady_residual(st, model, mesh) <= 1e-12 * (1.0 + abs(st.flux_level))
    lower, upper = (st.bound for st in res.bracket)
    assert res.cfl.lipschitz == lipschitz_bound(model, lower, upper)
    assert lower <= res.running_min and res.running_max <= upper


def test_run_reads_no_envelope_constant():
    # The envelope keeps m and M; the rest is derived when read, and run()
    # and its observers read the bracket's range alone.
    assert [f.name for f in dataclasses.fields(steady.Envelope)] == ["model", "mesh", "m", "M"]
    model, datum = heterogeneous_quadratic(), datum_step(0.2, 1.2)
    res = run(model, Mesh.make(-3.0, 3.0, 0.05), datum, t_end=0.1, observers=(EntropyCheck(),))
    assert not ENVELOPE_CONSTANTS & set(vars(res.envelope)) and "legendre_sup_1" not in vars(model)


def test_run_envelope_holds_a_spike_between_sample_points():
    # The peak sits on a Gauss node of the cell [0, 0.1], between the points
    # 0 and 0.00625 that sampling 16 points per cell reads: the envelope is
    # taken over the projected cells, so it holds u0 and every state the
    # run reaches.
    model, mesh = quadratic(), Mesh.make(-1.0, 1.0, 0.1)
    datum = datum_from_table([-1.0, 0.003, 0.004691007703066803, 0.006, 1.0],
                             [0.0, 0.0, 50.0, 0.0, 0.0])
    u0 = project_initial(datum, mesh).u
    res = run(model, mesh, datum, t_end=0.01)
    env = res.envelope
    assert u0.max() > 5.9
    assert env.lower_bound <= min(u0.min(), res.running_min)
    assert max(u0.max(), res.running_max) <= env.upper_bound


def test_run_builds_the_envelope_states_only_on_demand(monkeypatch, hq_model):
    built = []
    build = steady.build_steady

    def counted(*args, **kwargs):
        built.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(steady, "build_steady", counted)
    mesh = Mesh.make(-3.0, 3.0, 0.05)
    datum = datum_bump(0.1, 0.8, center=-0.2, width=0.6)
    env = run(hq_model, mesh, datum, t_end=0.2).envelope
    assert built == []
    want = {"lower": build(hq_model, mesh, env.lower_anchor, "from_left", "lower"),
            "upper": build(hq_model, mesh, env.upper_anchor, "from_left", "upper")}
    u0 = project_initial(datum, mesh).u
    direct = steady.envelope(hq_model, mesh, u0.min(), u0.max())
    for got in (env, direct):
        for branch, st in want.items():
            state = getattr(got, f"{branch}_state")
            assert state.values.tobytes() == st.values.tobytes()
            assert (state.flux_level, state.bound) == (st.flux_level, st.bound)
            assert getattr(got, f"{branch}_state") is state  # built once, then kept
    assert len(built) == 4


# ---------------------------------------------------------------------------
# compact heterogeneity: the setup solves once per distinct flux


def _glued_pair():
    """Hint-free glued pair: u^2/2 + u^4/12 for x <= 0, cosh u - 1 for x > 0,
    with X = 0.5; the root solves see every position."""
    left = lambda u: 0.5 * u**2 + u**4 / 12.0
    return FluxModel(
        h=lambda x, u: np.where(np.asarray(x) <= 0.0, left(np.asarray(u, dtype=float)),
                                np.cosh(u) - 1.0),
        du_h=lambda x, u: np.where(np.asarray(x) <= 0.0, u + np.asarray(u, dtype=float)**3 / 3.0,
                                   np.sinh(u)),
        dx_h=lambda x, u: np.zeros(np.broadcast(np.asarray(x), np.asarray(u)).shape),
        hetero_radius=0.5,
    )


# Windows in units of X (of 1 when X = 0), given as (x_min, x_max, dx):
# "at -X" puts a cell center exactly at -X, the left exterior's
# representative; every bound is exact in binary.
SPAN_MESHES = {
    "far past X": lambda X, s: (-5.0 * s, 5.0 * s, s / 20.0),
    "inside": lambda X, s: (-0.75 * s, 0.5 * s, s / 32.0),
    "one-sided": lambda X, s: (0.25 * s, 4.0 * s, s / 16.0),
    "left exterior": lambda X, s: (-4.0 * s, -X - s, s / 16.0),
    "at -X": lambda X, s: (-X - s / 16.0, -X + 39.0 * s / 16.0, s / 8.0),
}
SPAN_MODELS = {**MODELS, "glued": _glued_pair}


@pytest.mark.parametrize("mesh_name", sorted(SPAN_MESHES))
@pytest.mark.parametrize("name", sorted(SPAN_MODELS))
def test_compact_solves_match_solves_at_every_cell_bitwise(name, mesh_name, rng):
    model = SPAN_MODELS[name]()
    X = model.hetero_radius
    mesh = Mesh.make(*SPAN_MESHES[mesh_name](X, X or 1.0))
    xc = mesh.centers()
    assert mesh_name != "at -X" or xc[0] == -X
    xc_ext = np.concatenate((xc[:1], xc, xc[-1:]))  # each ghost on its boundary center
    al_ext = FluxSide.from_model(model, xc_ext).alpha
    al, f = al_ext[1:-1], fm.frozen_flux(model, xc)
    assert fm.mesh_tables(model, mesh).al_ext.tobytes() == al_ext.tobytes()

    curve = model.curve
    for _ in range(3):
        u = rng.uniform(curve.alpha_min - 1.0, curve.alpha_max + 1.0, mesh.n_cells)
        for st, sign, clamp in zip(steady.bracket(model, mesh, u), (-1.0, 1.0),
                                   (np.minimum, np.maximum)):
            level = max(float(np.max(f(clamp(u, al)))), curve.floor)
            want = fm.invert_branch(f, al, level, sign)
            assert st.flux_level == level
            assert st.values.tobytes() == want.tobytes()
            assert st.bound == (np.min(want) if sign < 0 else np.max(want))

    env = steady.envelope(model, None, curve.alpha_min - 1.0, curve.alpha_max + 1.0)
    for branch, anchor in (("lower", env.lower_anchor), ("upper", env.upper_anchor)):
        for direction, anchor_x in (("from_left", -X), ("from_right", X)):
            st = steady.build_steady(model, mesh, anchor, direction, branch)
            level = float(model.h(anchor_x, anchor))
            want = fm.invert_branch(f, al, level, 1.0 if branch == "upper" else -1.0)
            assert st.flux_level == level
            assert st.values.tobytes() == want.tobytes()


def test_translation_by_whole_cells_shifts_the_solution_bitwise():
    # A homogeneous flux (X = 0): the span is the two cells around 0, and
    # every cell is exterior. Its scheme commutes with a shift by whole cells.
    model, mesh, shift = quadratic(), Mesh.make(-4.0, 4.0, 0.02), 50
    u0 = np.full(mesh.n_cells, -0.25)
    u0[100:160] = np.linspace(1.0, 0.1, 60)
    u0[160:170] = -0.75
    span, _ = fm.distinct_span(model, mesh.centers())
    assert len(range(mesh.n_cells)[span]) == 2
    res = run(model, mesh, GridState(u=u0, time=0.0), t_end=0.8)
    moved = run(model, mesh, GridState(u=np.roll(u0, shift), time=0.0), t_end=0.8)
    assert moved.n_steps == res.n_steps > 0
    assert moved.final.u.tobytes() == np.roll(res.final.u, shift).tobytes()
    assert res.final.u[0] == res.final.u[-1] == -0.25  # the waves stay inside


# ---------------------------------------------------------------------------
# the frozen slope f.du


@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
def test_frozen_slope_matches_du_h_bitwise(name, rng):
    model = KERNEL_MODELS[name]()
    xs = np.linspace(-2.0, 2.0, 41)
    U = rng.uniform(-2.0, 2.0, (3, xs.size))
    f = fm.frozen_flux(model, xs)
    assert f.du(U).tobytes() == np.asarray(model.du_h(xs, U), dtype=float).tobytes()


def test_freeze_hook_slope_is_checked():
    model = heterogeneous_quadratic()

    def steep(xs):
        f = model.freeze(xs)
        du = f.du
        f.du = lambda u: 2.0 * du(u)
        return f

    with pytest.raises(ConfigError, match="freeze hook"):
        Scheme(dataclasses.replace(model, freeze=steep), Mesh.make(-2.0, 2.0, 0.05), 1.0)


def test_legendre_transform_evaluates_du_h_only_to_check_the_hook():
    model = heterogeneous_quadratic()
    calls = [0]

    def du_h(x, u):
        calls[0] += 1
        return model.du_h(x, u)

    counted = dataclasses.replace(model, du_h=du_h)
    xs = np.linspace(-1.0, 1.0, 101)
    got = fm.legendre_transform(counted, xs, np.array([[1.0], [-1.0]]))
    assert calls[0] == 1  # the hook check; the solve rounds use the frozen slope
    assert got.tobytes() == fm.legendre_transform(model, xs, np.array([[1.0], [-1.0]])).tobytes()
