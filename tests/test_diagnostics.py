"""Entropy, consistency, exact-solution error, convergence, time variation.

Frozen numbers:

* two_state at k = 1: the interface edge flux is max{f_l(1), 0} = 1/2 while
  the pointwise flux just right of it is f_r(1) = 1, a deviation of 1/2 that
  never shrinks with dx (the negative control for the smooth-heterogeneity
  consistency rate).
* misprojected step of height 2 across one cell of width dx: L1 error
  dx |jump| / 2 = 0.01 for dx = 0.01, L2 error sqrt(dx) |jump| / 2 = 0.1.
* nested-grid example: coarse [0, 1.5]/0.5 with values (1, 3, 2) against
  fine [0, 1.5]/0.25 with values (1, 2, 3, 3, 0, 2) differs by
  (1 + 2) * 0.25 = 0.75 over the full window.
"""

import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import (
    ReferenceEntropyCheck,
    RecordStates,
    assert_same_entropy_report,
    cosh_model,
)

import hetflux.diagnostics as diagnostics
from hetflux.diagnostics import (
    DEFAULT_K_LEVELS,
    MAX_CELL_LEVELS,
    EntropyCheck,
    TimeVariation,
    consistency_rate,
    convergence_study,
    default_k_levels,
    norm_between_grids,
    riemann_error,
)
from hetflux.errors import ConfigError
from hetflux.families import heterogeneous_quadratic, lwr, quadratic, two_state
from hetflux.interface import InterfaceContext
from hetflux.riemann import invert_fan, pieces, sample, solve_interface
from hetflux.solver import (
    GAUSS_NODES,
    GAUSS_WEIGHTS,
    MAX_AUTO_CELLS,
    GridState,
    Mesh,
    PiecewiseConstantDatum,
    Scheme,
    cone,
    cone_mesh,
    datum_constant,
    datum_step,
    project_initial,
    run,
)
from hetflux.steady import build_steady, envelope


# ---------------------------------------------------------------------------
# entropy inequalities


def test_dei_holds_for_homogeneous_godunov(burgers_model):
    mesh = Mesh.make(-2.0, 2.0, 0.02)
    check = EntropyCheck()
    res = run(burgers_model, mesh, datum_step(1.0, -0.5), t_end=0.3, observers=(check,))
    report = check.report()
    assert report.ok(1e-10), report.summary()
    assert "pass" in report.summary()
    assert report.worst_slack == pytest.approx(float(np.max(report.max_slack_per_k)))
    assert report.n_steps == res.n_steps


def test_dei_holds_on_steady_trajectory(hq_model):
    mesh = Mesh.make(-2.0, 2.0, 0.02)
    st = build_steady(hq_model, mesh, 1.3, branch="upper")
    datum = GridState(u=st.values.copy(), time=0.0)
    check = EntropyCheck(k_values=np.linspace(-1.0, 2.0, 13))
    run(hq_model, mesh, datum, t_end=0.05, observers=(check,))
    report = check.report()
    assert report.worst_normalized <= 1e-12, report.summary()


def test_dei_holds_across_the_interface(pair_model):
    mesh = Mesh.make(-2.5, 2.5, 0.025)
    check = EntropyCheck(k_values=[0.0, -1.0, 0.7, 2.0])
    run(pair_model, mesh, datum_step(-1.0, 1.0), t_end=0.25, observers=(check,))
    report = check.report()
    assert report.ok(1e-10), report.summary()


def test_dei_validates_levels():
    with pytest.raises(ConfigError, match="non-empty"):
        EntropyCheck(k_values=[])


def test_entropy_check_budgets_its_tables_before_building_a_level(monkeypatch):
    # start checks cells x levels against MAX_CELL_LEVELS before anything
    # else: a scheme of stand-ins holds only the cell count.
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(diagnostics, "default_k_levels", reached)
    on = lambda n: SimpleNamespace(mesh=SimpleNamespace(n_cells=n))
    with pytest.raises(Reached):  # the cap's mesh runs the default levels
        EntropyCheck().start(on(MAX_AUTO_CELLS), None, None)
    refused = [(EntropyCheck(n_levels=DEFAULT_K_LEVELS + 1), MAX_AUTO_CELLS),
               (EntropyCheck(n_levels=10**12), 400),
               (EntropyCheck(k_values=np.zeros(MAX_CELL_LEVELS // 1000 + 1)), 1000)]
    for check, n in refused:
        with pytest.raises(ConfigError, match="lower diagnostics.k_levels or use a coarser mesh.dx"):
            check.start(on(n), None, None)


def test_dei_report_needs_an_observed_step(pair_model):
    check = EntropyCheck()
    with pytest.raises(ConfigError, match="no step"):
        check.report()
    mesh = Mesh.make(-1.0, 1.0, 0.1)
    run(pair_model, mesh, datum_step(-1.0, 0.5), t_end=0.0, observers=(check,))
    with pytest.raises(ConfigError, match="no step"):
        check.report()


def test_default_k_levels_cover_bounds_and_data(pair_model):
    mesh = Mesh.make(-1.0, 1.0, 0.1)
    datum = datum_step(-1.0, 0.5)
    check = EntropyCheck(n_levels=9)
    res = run(pair_model, mesh, datum, t_end=0.05, observers=(check,))
    certified = tuple(st.bound for st in res.bracket)
    ks = default_k_levels(certified, project_initial(datum, mesh).u, n_levels=9)
    assert np.array_equal(check.report().k_values, ks)
    assert (ks[0], ks[-1]) == certified
    for v in (-1.0, 0.5):
        assert np.min(np.abs(ks - v)) < 1e-14
    assert np.all(np.diff(ks) > 0)


@pytest.mark.parametrize("family, datum", [
    (heterogeneous_quadratic, datum_step(0.2, 1.2)),
    (lwr, datum_step(-0.3, -0.7)),
    (two_state, datum_step(-1.0, 1.0)),
    (quadratic, PiecewiseConstantDatum((-0.5, 0.5), (0.0, 0.4, 0.0))),
], ids=["heterogeneous_quadratic", "lwr", "two_state", "quadratic"])
def test_default_levels_lie_within_the_bracket_and_hold_the_data_extremes(family, datum):
    # run() hands its observers the range it certifies, the bracket's, and
    # the levels span it: none lies outside the range the states can
    # reach, where the inequality tests only conservation.
    mesh = Mesh.make(-3.0, 3.0, 0.05)
    check = EntropyCheck()
    res = run(family(), mesh, datum, t_end=0.2, observers=(check,))
    ks, u0 = check.report().k_values, project_initial(datum, mesh).u
    lower, upper = (st.bound for st in res.bracket)
    assert lower <= ks[0] and ks[-1] <= upper
    assert {float(np.min(u0)), float(np.max(u0))} <= set(ks.tolist())


def test_dei_matches_direct_edge_flux_evaluation(pair_model, hq_model, lwr_model,
                                                 burgers_model):
    # EntropyCheck splits F(max(u, k)) and F(min(u, k)) into maxima/minima of
    # per-step u terms and fixed k terms, at every level. Against the edge
    # fluxes evaluated at max(u, k) and min(u, k) this is exact for the
    # built-in quadratic forms (rounding keeps them monotone on each branch)
    # and within rounding for a custom flux.
    cases = ((burgers_model, (1.0, -0.5), 0.0), (pair_model, (-1.0, 1.0), 0.0),
             (hq_model, (0.2, 1.2), 0.0), (lwr_model, (-0.3, -0.7), 0.0),
             (cosh_model(), (-1.0, 0.5), 1e-15))
    for model, (left, right), tol in cases:
        mesh = Mesh.make(-3.0, 3.0, 0.05)
        rec, check = RecordStates(), EntropyCheck(n_levels=9)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=".*influence cone.*")
            res = run(model, mesh, datum_step(left, right), t_end=0.3, observers=(rec, check))
        rep = check.report()
        sch, kcol = Scheme(model, mesh, res.cfl.lipschitz), rep.k_values[:, None]
        d_kk = np.diff(sch.edge_fluxes(np.broadcast_to(kcol, (kcol.size, mesh.n_cells))))
        want = np.full(kcol.size, -np.inf)
        for u, u_new, dt in rec.steps:
            phi = sch.edge_fluxes(np.maximum(u, kcol)) - sch.edge_fluxes(np.minimum(u, kcol))
            slack = ((np.abs(u_new - kcol) - np.abs(u - kcol)) * mesh.dx
                     + np.diff(phi) * dt + np.sign(u_new - kcol) * d_kk * dt)
            want = np.maximum(want, slack.max(axis=1))
        assert np.all(np.abs(rep.max_slack_per_k - want) <= tol * (1.0 + np.abs(kcol[:, 0])))


def test_entropy_check_matches_reference_bitwise(pair_model, hq_model, lwr_model,
                                                 burgers_model):
    # EntropyCheck runs the reference expression in preallocated cell-major
    # buffers, carries |u_new - k| into the next step and reuses the step's
    # edge terms; none of it may change a bit. Levels sit exactly at the
    # extremes of every state of the run, beyond them and between, sorted
    # and not.
    cases = ((burgers_model, (1.0, -0.5)), (pair_model, (-1.0, 1.0)), (hq_model, (0.2, 1.2)),
             (lwr_model, (-0.3, -0.7)), (cosh_model(), (-1.0, 0.5)))
    for model, (left, right) in cases:
        mesh, datum = Mesh.make(-3.0, 3.0, 0.05), datum_step(left, right)
        rec = RecordStates()
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=".*influence cone.*")
            run(model, mesh, datum, t_end=0.3, observers=(rec,))
        ends = np.array([(np.min(v), np.max(v)) for v in rec.states])
        at_ends = np.unique(np.concatenate(
            [ends.ravel(), [ends.min() - 1.0, ends.mean(), ends.max() + 1.0]]))
        pairs = [(ReferenceEntropyCheck(k_values=ks), EntropyCheck(k_values=ks))
                 for ks in (None, at_ends, at_ends[::-1])]
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=".*influence cone.*")
            run(model, mesh, datum, t_end=0.3, observers=[c for p in pairs for c in p])
        for ref, check in pairs:
            assert_same_entropy_report(check.report(), ref.report())


def test_entropy_check_levels_at_the_extremes_of_u_new_take_no_sign_term(hq_model):
    # A level equal to min u_new (max u_new) has sign(u_new - k) = 0 in that
    # cell, so its d_kk term drops out there. The dip (bump) sits where the
    # flux difference of u peaks (bottoms out), so that cell sets the row max.
    mesh = Mesh.make(-2.0, 2.0, 0.1)
    sch = Scheme(hq_model, mesh, lipschitz=1.0)
    u = np.full(mesh.n_cells, 0.5)
    dF = np.diff(sch.edge_fluxes(u))
    lo_cell, hi_cell = int(np.argmax(dF)), int(np.argmin(dF))
    assert dF[lo_cell] > 0.0 > dF[hi_cell]
    u_new = u.copy()
    u_new[lo_cell] -= 1e-12
    u_new[hi_cell] += 1e-12
    ks = [u_new[lo_cell], u_new[hi_cell]]
    check, ref = EntropyCheck(k_values=ks), ReferenceEntropyCheck(k_values=ks)
    _observe((check, ref), (sch, None, u), [(u, u_new, 0.01)])
    assert_same_entropy_report(check.report(), ref.report())


@pytest.mark.filterwarnings("ignore:.*influence cone")
@pytest.mark.parametrize("where, location", [("outside", -3.0), ("left edge", -1.2),
                                             ("inside", -0.3), ("right edge", 0.9),
                                             ("X = 0", -0.3)])
def test_entropy_check_sign_term_rows_match_the_reference_bitwise(where, location):
    # theta(x) u^2 carries the steady state u = 0 exactly, so once the first
    # (full) step has passed, the windows follow a pulse alone. Its windows
    # lie wholly outside the rows of nonzero d_kk, straddle one of their
    # edges, or lie wholly inside them; a homogeneous flux has no such row.
    model = quadratic(coefficient=1.0) if where == "X = 0" else heterogeneous_quadratic(
        theta_bump=0.5, ell_bump=0.0, g_bump=0.0)
    mesh = Mesh.make(-4.0, 4.0, 0.02)
    n, windows = mesh.n_cells, []
    # Levels of both signs: at levels k >= alpha = 0 alone, row 150's d_kk
    # is (theta_150 - theta_149) k^2 = 0, as theta_150 rounds to 1.0, and
    # the rows would start at 151.
    ks = np.linspace(-0.4, 0.4, 33)
    check, ref = EntropyCheck(k_values=ks), ReferenceEntropyCheck(k_values=ks)

    class Spy:
        def start(self, scheme, certified, u0):
            pass

        def step(self, u, u_new, dt):
            windows.append(check.last_window)

    pulse = PiecewiseConstantDatum((location - 0.1, location + 0.1), (0.0, 0.4, 0.0))
    res = run(model, mesh, pulse, t_end=0.3, observers=(check, ref, Spy()))
    assert_same_entropy_report(check.report(), ref.report())
    rows = np.flatnonzero(np.any(ref._d_kk != 0.0, axis=0))  # (K, N) in the reference
    banded = [(c0, c1) for c0, c1 in windows if (c0, c1) != (0, n)]
    assert len(banded) >= res.n_steps - 2 and max(c1 - c0 for c0, c1 in banded) < 40
    if where == "X = 0":
        assert rows.size == 0
        return
    kk0, kk1 = rows[0], rows[-1] + 1
    assert (kk0, kk1) == (150, 250)  # the cells of [-X, X], where theta varies
    outside = [c1 <= kk0 for c0, c1 in banded]
    if where == "outside":
        assert all(outside)
    elif where == "inside":
        assert all(kk0 <= c0 and c1 <= kk1 for c0, c1 in banded)
    elif where == "left edge":
        assert any(outside) and any(c0 < kk0 < c1 for c0, c1 in banded)
    else:
        assert any(c0 < kk1 < c1 for c0, c1 in banded)


def test_entropy_check_reuses_the_edge_terms_of_the_step(monkeypatch, hq_model):
    calls = [0]
    edge_sides = Scheme.edge_sides

    def counted(self, u, out=None):
        calls[0] += 1
        return edge_sides(self, u, out=out)

    monkeypatch.setattr(Scheme, "edge_sides", counted)
    mesh, datum = Mesh.make(-3.0, 3.0, 0.05), datum_step(0.2, 1.2)
    # One call certifies both bracket states before the first step; the
    # steps evaluate their edges in the Scheme's own buffers, without it.
    assert run(hq_model, mesh, datum, t_end=0.3).n_steps > 0 and calls[0] == 1
    run(hq_model, mesh, datum, t_end=0.3, observers=(EntropyCheck(),))
    # One more call, for the levels at start: no step evaluates an edge again.
    assert calls[0] == 3


def _recorded_steps(model, mesh, datum, t_end):
    """(scheme, certified range, u0, [(u, u_new, dt), ...]) of one run."""
    rec = RecordStates()
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*influence cone.*")
        res = run(model, mesh, datum, t_end, observers=(rec,))
    certified = tuple(st.bound for st in res.bracket)
    return Scheme(model, mesh, res.cfl.lipschitz), certified, rec.u0, rec.steps


def _observe(checks, start, steps):
    for check in checks:
        check.start(*start)
        for step in steps:
            check.step(*step)


def test_entropy_check_recomputes_when_u_is_not_the_previous_u_new(hq_model):
    sch, certified, u0, steps = _recorded_steps(hq_model, Mesh.make(-3.0, 3.0, 0.05),
                                                datum_step(0.2, 1.2), 0.3)
    # Skipped steps, a copy of u, then a step whose u is the previous u_new.
    u3, u3_new, dt3 = steps[3]
    mixed = [steps[0], steps[2], (u3.copy(), u3_new, dt3), steps[4], steps[7]]
    check, ref = EntropyCheck(), ReferenceEntropyCheck()
    _observe((check, ref), (sch, certified, u0), mixed)
    assert_same_entropy_report(check.report(), ref.report())
    # A restart drops the carry although u is the last u_new seen.
    _observe((check, ref), (sch, certified, steps[7][1]), steps[8:12])
    assert_same_entropy_report(check.report(), ref.report())


def test_entropy_check_propagates_nan_like_the_reference(pair_model):
    sch, certified, u0, steps = _recorded_steps(pair_model, Mesh.make(-2.0, 2.0, 0.05),
                                                datum_step(-1.0, 1.0), 0.2)
    u, u_new, dt = steps[1]
    bad = u_new.copy()
    bad[17] = np.nan
    check, ref = EntropyCheck(), ReferenceEntropyCheck()
    _observe((check, ref), (sch, certified, u0), [steps[0], (u, bad, dt), (bad, steps[2][1], dt)])
    got = check.report()
    assert np.all(np.isnan(got.max_slack_per_k))
    assert_same_entropy_report(got, ref.report())


def test_entropy_check_step_allocates_less_than_one_level_cell_array():
    mesh = Mesh.make(-2.0, 2.0, 0.01)
    sch, certified, u0, steps = _recorded_steps(two_state(), mesh, datum_step(-1.0, 1.0), 0.05)
    check = EntropyCheck(k_values=np.linspace(-1.5, 1.5, 35))
    check.start(sch, certified, u0)
    check.step(*steps[0])
    tracemalloc.start()
    try:
        check.step(*steps[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mesh.n_cells == 400
    assert peak < 35 * mesh.n_cells * 8, peak


def test_entropy_check_banded_step_memory_follows_its_window():
    # The window of a banded step is a block of rows of the work arrays, so
    # no operand needs numpy's iteration buffers: a step traces less than
    # one levels x (window + 1) array, though the mesh has 4000 cells.
    check, peaks = EntropyCheck(k_values=np.linspace(-1.5, 1.5, 35)), []

    class Traced:
        def start(self, scheme, certified, u0):
            self.scheme = scheme
            check.start(scheme, certified, u0)

        def step(self, u, u_new, dt):
            tracemalloc.start()
            try:
                check.step(u, u_new, dt)
                peaks.append((tracemalloc.get_traced_memory()[1], self.scheme.last_window))
            finally:
                tracemalloc.stop()

    mesh = Mesh.make(-4.0, 4.0, 0.002)
    res = run(two_state(), mesh, datum_step(-1.0, 1.0), t_end=0.025, observers=(Traced(),))
    assert mesh.n_cells == 4000 and res.n_steps > 60
    for peak, (c0, c1) in (peaks[i] for i in (20, 40, 60)):
        assert 40 <= c1 - c0 <= 90
        assert peak < 35 * (c1 - c0 + 1) * 8, (peak, c1 - c0)


def test_entropy_check_reused_across_runs_matches_a_fresh_one(pair_model):
    mesh = Mesh.make(-2.5, 2.5, 0.025)
    reused = EntropyCheck()
    run(pair_model, mesh, datum_step(-1.0, 1.0), t_end=0.25, observers=(reused,))
    fresh = EntropyCheck()
    run(pair_model, mesh, datum_step(0.8, -0.4), t_end=0.2, observers=(reused, fresh))
    assert_same_entropy_report(reused.report(), fresh.report())


def test_entropy_check_reports_the_first_tied_level_in_the_callers_order(burgers_model):
    # A constant state of a homogeneous flux is a fixed point: every slack is
    # +0.0, so at the first step all levels tie and the worst is the first
    # level as given.
    ks = [0.7, -0.2, 0.3, 1.0, -0.2]
    check, ref = EntropyCheck(k_values=ks), ReferenceEntropyCheck(k_values=ks)
    run(burgers_model, Mesh.make(-1.0, 1.0, 0.05), datum_constant(0.5), t_end=0.1,
        observers=(check, ref))
    rep = check.report()
    assert_same_entropy_report(rep, ref.report())
    assert (rep.worst_slack, rep.worst_k, rep.worst_step, rep.worst_cell) == (0.0, 0.7, 0, 0)
    assert rep.k_values.tolist() == ks


def test_entropy_check_evaluates_only_the_window_of_the_step(hq_model):
    windows, check = [], EntropyCheck()

    class Spy:
        """Reads the window the check just evaluated, and the kernel's."""

        def start(self, scheme, certified, u0):
            self.scheme = scheme

        def step(self, u, u_new, dt):
            windows.append((check.last_window, self.scheme.last_window))

    mesh = Mesh.make(-3.0, 3.0, 0.02)
    res = run(hq_model, mesh, datum_step(0.2, 1.2), t_end=0.3, snapshot_times=(0.1,),
              observers=(check, Spy()))
    full = (0, mesh.n_cells)
    # Full at the first step and at the two steps around the snapshot, when
    # dt changes; every other step takes the Scheme's window.
    assert [w for w, kernel in windows if w != kernel] == [full] * 3
    assert len(windows) == res.n_steps and sum(w != full for w, _ in windows) > res.n_steps // 2


def test_entropy_check_matches_the_reference_with_nan_slack_in_quiet_cells():
    # u = ell is an exact steady state of theta(x) (u - ell)^2, quiet after
    # the first step; at k = 1.2e154 F(k, k) overflows only where theta > 1,
    # so that level's slack is NaN in those quiet cells at every step. The
    # full evaluation then never records a worst; a window that left the NaN
    # out would.
    model = heterogeneous_quadratic(theta_bump=0.5, ell_bump=0.0, g_bump=0.0)
    ks = [0.5, 1.2e154]
    check, ref = EntropyCheck(k_values=ks), ReferenceEntropyCheck(k_values=ks)
    datum = PiecewiseConstantDatum(breakpoints=(-2.5,), values=(1.0, 0.0))
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.filterwarnings("ignore", message=".*influence cone.*")
        run(model, Mesh.make(-3.0, 3.0, 0.05), datum, t_end=0.3, observers=(check, ref))
    rep = check.report()
    assert np.isnan(rep.max_slack_per_k[1]) and rep.worst_slack == -math.inf
    assert_same_entropy_report(rep, ref.report())


# ---------------------------------------------------------------------------
# interface-flux consistency


def test_consistency_exact_for_homogeneous_flux(burgers_model):
    report = consistency_rate(burgers_model, 0.7, dx_values=[0.1, 0.05])
    assert report.exact
    assert report.slope == math.inf
    assert "exact" in report.summary()


def test_consistency_first_order_above_the_critical_curve(hq_model):
    dxs = [0.04, 0.02, 0.01, 0.005]
    report = consistency_rate(hq_model, 1.3, dx_values=dxs)
    assert not report.exact
    assert report.slope >= 0.9
    assert np.all(np.diff(report.deviations) < 0.0)
    # deviation bounded by the x-variation of the flux over one cell
    xs = np.linspace(-1.0, 1.0, 2001)
    c = float(np.max(np.abs(np.asarray(hq_model.dx_h(xs, 1.3), dtype=float))))
    for dx, dev in zip(report.dx_values, report.deviations):
        assert dev <= 1.05 * c * dx


def test_consistency_first_order_across_the_critical_curve(hq_model):
    # k = 0.15 crosses alpha(x), activating the branch-switch term
    report = consistency_rate(hq_model, 0.15, dx_values=[0.04, 0.02, 0.01, 0.005])
    assert not report.exact
    assert report.slope >= 0.9


@pytest.mark.parametrize("params, finest", [
    ({"v_right": 0.911, "rho_right": 0.944}, 1.0 / 800), ({"radius": 0.205}, 1.0 / 1600)])
def test_consistency_refines_a_preasymptotic_sweep_until_its_rate_settles(params, finest):
    # At the crossing level 90% up the critical band the halving rates of
    # these lwr sweeps still climb over 1/50 .. 1/400; halving the finest dx
    # until two successive rates agree to 0.05 reaches first order.
    model = lwr(**params)
    curve = model.curve
    k = curve.alpha_min + 0.9 * (curve.alpha_max - curve.alpha_min)
    report = consistency_rate(model, k, dx_values=(1 / 50, 1 / 100, 1 / 200, 1 / 400))
    assert report.dx_values[-1] == finest
    assert np.all(report.dx_values[4:] == report.dx_values[3:-1] / 2)
    rates = np.diff(np.log(report.deviations)) / np.diff(np.log(report.dx_values))
    assert abs(rates[-1] - rates[-2]) <= 0.05 < abs(rates[-2] - rates[-3])
    assert report.slope == rates[-1] and report.slope >= 0.9


def test_consistency_negative_control_two_state(pair_model):
    # the jump at x = 0 leaves an O(1) deviation no refinement removes
    report = consistency_rate(pair_model, 1.0, dx_values=[0.04, 0.02, 0.01])
    assert not report.exact
    assert np.max(np.abs(report.deviations - 0.5)) < 1e-12
    assert abs(report.slope) < 0.1


def test_consistency_validates_dx(pair_model):
    with pytest.raises(ConfigError, match="positive"):
        consistency_rate(pair_model, 1.0, dx_values=[0.1, -0.05])


@pytest.mark.parametrize("name", ["hq_model", "burgers_model"])
def test_consistency_meshes_follow_the_window_rule(name, request, monkeypatch):
    # Each sweep mesh is cone_mesh of [-X, X] with pad 4: [-1.08, 1.08] at
    # dx = 0.02 when X = 1, and [-4 dx, 4 dx] when X = 0.
    model = request.getfixturevalue(name)
    meshes = []

    def scheme(model, mesh, **kwargs):
        meshes.append(mesh)
        return Scheme(model, mesh, **kwargs)

    monkeypatch.setattr(diagnostics, "Scheme", scheme)
    report = consistency_rate(model, 1.3, dx_values=[0.04, 0.02])
    assert meshes == [cone_mesh(model, 0.0, 0.0, 0.0, dx, pad=4, advice="")
                      for dx in report.dx_values]
    X = model.hetero_radius
    assert meshes[1].x_min == pytest.approx(-1.08 if X == 1.0 else -0.08, abs=1e-12)
    for mesh, dx in zip(meshes, report.dx_values):
        half = X + 4 * dx
        assert mesh.x_min == pytest.approx(-half, abs=1e-12)
        assert mesh.x_max == pytest.approx(half, abs=1e-12)
        assert mesh.n_cells == round(2 * half / dx)


def test_consistency_refuses_a_sweep_mesh_past_the_cell_cap():
    # Refused before anything is allocated, with advice a caller of the
    # sweep can follow.
    model = heterogeneous_quadratic(radius=1e300)
    with pytest.raises(ConfigError, match="more than 1000000; use coarser dx_values"):
        consistency_rate(model, 1.3, dx_values=[1.0, 0.5])


# ---------------------------------------------------------------------------
# error against the exact Riemann solution


def test_riemann_error_matches_dense_quadrature(pair_ctx, pair_model, rng):
    sol = solve_interface(pair_ctx, -1.0, 1.0)
    t = 0.5
    mesh = Mesh.make(-3.0, 3.0, 0.02)
    res = run(pair_model, mesh, datum_step(-1.0, 1.0), t_end=t)
    u = res.final.u
    window = (-0.85, 0.95)
    xs = np.linspace(window[0], window[1], 20001)
    mids = 0.5 * (xs[:-1] + xs[1:])
    widths = np.diff(xs)
    exact = sample(sol, mids / t)
    uj = u[np.floor((mids - mesh.x_min) / mesh.dx).astype(int)]
    for norm, oracle in (
        ("l1", float(np.dot(np.abs(uj - exact), widths))),
        ("l2", float(math.sqrt(np.dot((uj - exact) ** 2, widths)))),
    ):
        got = riemann_error(u, mesh, sol, t, window, norm=norm)
        assert got == pytest.approx(oracle, rel=2e-3)


def _per_half_riemann_error(u, mesh, sol, t, window, norm):
    """riemann_error with each half of a fan's cells (before and after its
    split points) inverted and summed on its own; and the split count."""
    edges = mesh.edges()
    a, b = np.maximum(edges[:-1], window[0]), np.minimum(edges[1:], window[1])
    power, total, n_split = (1 if norm == "l1" else 2), 0.0, 0

    def gauss(fn, lo, hi):
        half = 0.5 * (hi - lo)
        return half * (fn((0.5 * (lo + hi))[:, None] + half[:, None] * GAUSS_NODES)
                       @ GAUSS_WEIGHTS)

    for wlo, whi, wave, const in pieces(sol, t):
        s0, s1 = np.maximum(a, wlo), np.minimum(b, whi)
        cut = s1 > s0
        s0, s1, uj = s0[cut], s1[cut], u[cut]
        if wave is None:
            total += float(np.sum(np.abs(uj - const) ** power * (s1 - s0)))
            continue
        fan = lambda uv: lambda xs: uv[:, None] - invert_fan(sol, wave, xs / t)
        if power == 2:
            total += float(np.sum(gauss(lambda xs: fan(uj)(xs) ** 2, s0, s1)))
            continue
        flux = sol.ctx.right if wave.side == "right_of_interface" else sol.ctx.left
        cross = t * np.asarray(flux.df(uj), dtype=float)
        split = (s0 < cross) & (cross < s1)
        mid = np.where(split, cross, s1)
        n_split += int(np.count_nonzero(split))
        total += float(np.sum(np.abs(gauss(fan(uj), s0, mid))))
        total += float(np.sum(np.abs(gauss(fan(uj[split]), mid[split], s1[split]))))
    return (total if power == 1 else math.sqrt(total)), n_split


@pytest.mark.parametrize("norm", ["l1", "l2"])
@pytest.mark.parametrize("sides", ["hook-less", "closed forms"])
def test_riemann_error_inverts_each_fan_once_with_the_bits_of_per_half_sums(
        norm, sides, pair_ctx, pair_model, rng, monkeypatch):
    ctx = pair_ctx if sides == "hook-less" else InterfaceContext.from_model(pair_model, -1.0, 1.0)
    calls = []
    monkeypatch.setattr(diagnostics, "invert_fan",
                        lambda *args: calls.append(1) or invert_fan(*args))
    mesh, t, window = Mesh.make(-3.0, 3.0, 0.02), 0.5, (-1.3, 1.7)
    sol = solve_interface(ctx, -1.0, 1.0)
    fans = sum(wave is not None for _, _, wave, _ in pieces(sol, t))
    assert fans == 2
    # Random states split many fan cells; states below every fan state, none.
    for u, splits in ((rng.uniform(-1.0, 1.0, mesh.n_cells), norm == "l1"),
                      (np.full(mesh.n_cells, -5.0), False)):
        want, n_split = _per_half_riemann_error(u, mesh, sol, t, window, norm)
        assert (n_split > 0) == splits
        calls.clear()
        got = riemann_error(u, mesh, sol, t, window, norm=norm)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert len(calls) == fans  # one inversion per fan piece


def test_riemann_error_projection_limit(pair_ctx):
    # mesh misaligned by half a cell: the step of height 2 smears one cell
    sol = solve_interface(pair_ctx, -1.0, 1.0)
    mesh = Mesh.make(-1.005, 0.995, 0.01)
    u0 = project_initial(datum_step(-1.0, 1.0), mesh).u
    assert riemann_error(u0, mesh, sol, 0.0, (-0.5, 0.5), norm="l1") == pytest.approx(
        0.01, abs=1e-12
    )
    assert riemann_error(u0, mesh, sol, 0.0, (-0.5, 0.5), norm="l2") == pytest.approx(
        0.1, abs=1e-12
    )


def test_riemann_error_zero_for_preserved_germ_datum(pair_ctx, pair_model):
    kl = math.sqrt(2.0)
    sol = solve_interface(pair_ctx, kl, 1.0)
    mesh = Mesh.make(-2.0, 2.0, 0.01)
    res = run(pair_model, mesh, datum_step(kl, 1.0), t_end=0.2)
    err = riemann_error(res.final.u, mesh, sol, 0.2, (-0.9, 0.9))
    assert err <= 1e-12


def test_riemann_error_validation(pair_ctx):
    sol = solve_interface(pair_ctx, -1.0, 1.0)
    mesh = Mesh.make(-1.0, 1.0, 0.1)
    u = np.zeros(mesh.n_cells)
    with pytest.raises(ConfigError, match="norm"):
        riemann_error(u, mesh, sol, 0.1, (-1.0, 1.0), norm="sup")
    with pytest.raises(ConfigError, match="nonnegative"):
        riemann_error(u, mesh, sol, -0.1, (-1.0, 1.0))
    with pytest.raises(ConfigError, match="empty window"):
        riemann_error(u, mesh, sol, 0.1, (0.5, 0.5))
    with pytest.raises(ConfigError, match="length"):
        riemann_error(np.zeros(7), mesh, sol, 0.1, (-1.0, 1.0))


# ---------------------------------------------------------------------------
# grid-to-grid distance


def test_norm_between_grids_hand_example():
    coarse = Mesh.make(0.0, 1.5, 0.5)
    fine = Mesh.make(0.0, 1.5, 0.25)
    uc = np.array([1.0, 3.0, 2.0])
    uf = np.array([1.0, 2.0, 3.0, 3.0, 0.0, 2.0])
    assert norm_between_grids(uc, coarse, uf, fine, (0.0, 1.5)) == pytest.approx(0.75)
    # window clipped inside one coarse cell
    assert norm_between_grids(uc, coarse, uf, fine, (0.3, 0.6)) == pytest.approx(0.2)


def test_norm_between_grids_rejects_bad_setups():
    coarse = Mesh.make(0.0, 1.5, 0.5)
    with pytest.raises(ConfigError, match="not nested"):
        norm_between_grids(
            np.zeros(3), coarse, np.zeros(5), Mesh.make(0.0, 1.5, 0.3), (0.0, 1.5)
        )
    wide_fine = Mesh.make(-0.75, 1.5, 0.25)
    with pytest.raises(ConfigError, match="exceeds"):
        norm_between_grids(
            np.zeros(3), coarse, np.zeros(wide_fine.n_cells), wide_fine, (-0.5, 1.0)
        )


# ---------------------------------------------------------------------------
# convergence studies


def test_convergence_toward_exact_interface_solution(pair_model, pair_ctx):
    exact = solve_interface(pair_ctx, -1.0, -1.0)
    report = convergence_study(
        pair_model,
        datum_step(-1.0, -1.0),
        t_end=0.5,
        window=(-1.0, 1.0),
        dx_values=[1 / 25, 1 / 50],
        exact=exact,
    )
    assert report.errors[1] < report.errors[0]
    assert report.orders[0] > 0.5
    assert report.reference == "exact_riemann"
    assert "convergence" in report.summary()


def test_l2_gap_decreases_under_refinement(pair_model, pair_ctx):
    exact = solve_interface(pair_ctx, -1.0, -1.0)
    errs = []
    for dx in (1 / 25, 1 / 50):
        mesh = Mesh.make(-3.0, 3.0, dx)
        res = run(pair_model, mesh, datum_step(-1.0, -1.0), t_end=0.5)
        errs.append(riemann_error(res.final.u, mesh, exact, 0.5, (-1.0, 1.0), norm="l2"))
    assert errs[1] < errs[0]


def test_convergence_against_fine_grid(hq_model):
    report = convergence_study(
        hq_model,
        datum_step(0.2, 0.8),
        t_end=0.1,
        window=(-0.5, 0.5),
        dx_values=[0.05, 0.025],
        reference="fine_grid",
    )
    assert report.errors[1] < report.errors[0]
    assert report.reference.startswith("fine_grid")


def test_convergence_study_level_meshes_hold_the_influence_cone(monkeypatch):
    # X = 1 lies outside the window: every level mesh, the fine-grid
    # reference's too, must hold the window and [-X, X] widened by the
    # envelope L * t_end, which covers run()'s own cone, so no run warns.
    model, t_end, window = heterogeneous_quadratic(), 0.1, (-0.5, 0.5)
    levels = []

    def recorded_run(model, mesh, *args, **kwargs):
        res = run(model, mesh, *args, **kwargs)
        levels.append(res)
        return res

    monkeypatch.setattr(diagnostics, "run", recorded_run)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        convergence_study(model, datum_step(0.2, 0.8), t_end, window, [0.05, 0.025],
                          reference="fine_grid")
    L = envelope(model, None, 0.2, 0.8).lipschitz
    lo, hi = cone(model, *window, L * t_end)
    assert (lo, hi) == (-1.0 - L * t_end, 1.0 + L * t_end) and len(levels) == 3
    for res in levels:
        assert res.cfl.lipschitz <= L
        assert res.mesh.x_min <= lo and res.mesh.x_max >= hi, (res.mesh, lo, hi)


def test_convergence_study_refuses_an_oversized_level_with_its_own_advice(hq_model):
    # The study has no mesh keys: its way out is a smaller window or a
    # coarser dx. The probe at the finest dx refuses before any run.
    with pytest.raises(ConfigError) as err:
        convergence_study(hq_model, datum_step(0.2, 0.8), 0.1, (-3e4, 3e4), [0.1, 0.05],
                          reference="fine_grid")
    assert str(err.value) == ("the automatic window needs 1.2e+06 cells, more than 1000000; "
                              "narrow the window or use a coarser dx")


def test_convergence_study_validation(pair_model, pair_ctx):
    exact = solve_interface(pair_ctx, -1.0, -1.0)
    datum = datum_step(-1.0, -1.0)
    with pytest.raises(ConfigError, match="exact"):
        convergence_study(pair_model, datum, 0.5, (-1, 1), [0.1, 0.05])
    with pytest.raises(ConfigError, match="reference"):
        convergence_study(pair_model, datum, 0.5, (-1, 1), [0.1, 0.05], reference="oracle")
    with pytest.raises(ConfigError, match="t_end"):
        convergence_study(pair_model, datum, 0.0, (-1, 1), [0.1, 0.05], exact=exact)
    with pytest.raises(ConfigError, match="two mesh sizes"):
        convergence_study(pair_model, datum, 0.5, (-1, 1), [0.1], exact=exact)


# ---------------------------------------------------------------------------
# time-variation functional


def test_time_variation_zero_on_steady_data(hq_model):
    mesh = Mesh.make(-2.0, 2.0, 0.02)
    st = build_steady(hq_model, mesh, 1.3, branch="upper")
    tv = TimeVariation()
    run(hq_model, mesh, GridState(u=st.values.copy(), time=0.0), t_end=0.05, observers=(tv,))
    assert tv.value < 1e-12


def test_time_variation_bounded_under_refinement(pair_model):
    values = []
    for dx in (0.04, 0.02, 0.01):
        mesh = Mesh.make(-2.0, 2.0, dx)
        tv = TimeVariation()
        run(pair_model, mesh, datum_step(-1.0, -1.0), t_end=0.25, observers=(tv,))
        values.append(tv.value)
    assert max(values) / min(values) < 2.0
    # windowed sum never exceeds the full-domain sum
    mesh = Mesh.make(-2.0, 2.0, 0.02)
    full, windowed = TimeVariation(), TimeVariation(window=(-0.5, 0.5))
    run(pair_model, mesh, datum_step(-1.0, -1.0), t_end=0.25, observers=(full, windowed))
    assert windowed.value <= full.value


@pytest.mark.filterwarnings("ignore:window does not contain")
def test_diagnostic_observers_memory_is_bounded_by_the_mesh():
    # Both per-step diagnostics hold O(levels x cells) state, so a run 4x as
    # long peaks at about the same traced memory. A stored trajectory would
    # grow with the step count (3.4x here when kept and stacked).
    model = two_state()
    mesh = Mesh.make(-2.0, 2.0, 0.01)

    def peak(t_end):
        tracemalloc.start()
        try:
            check, tv = EntropyCheck(), TimeVariation()
            res = run(model, mesh, datum_step(-1.0, 1.0), t_end, observers=(check, tv))
            assert check.report().ok(1e-10)
            return res.n_steps, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(0.01)  # first-call caches out of the measurement
    n_short, short = peak(0.25)
    n_long, long = peak(1.0)
    assert n_long >= 3.9 * n_short
    assert long <= 1.25 * short, (short, long)
