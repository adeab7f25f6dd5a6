"""Flux model layer: critical curve, branch inversion, Legendre machinery,
assumption screening.

Closed-form oracles used below, all derived by hand for the quadratic
families h = c (u - s)^2 + o:

    alpha(x) = s,   hmin = o,   S^+/-(y) = s +- sqrt((y - o) / c),
    L(x, v)  = s v + v^2 / (4 c) - o,   sup_{|v| <= 1} L = |s| + 1/(4c) - o.
"""

import dataclasses
import math

import numpy as np
import pytest
from conftest import cosh_model

from hetflux.errors import ConfigError, NumericalError
from hetflux.families import heterogeneous_quadratic, lwr, quadratic, two_state
from hetflux.flux_model import (
    CriticalCurve,
    FluxModel,
    frozen_flux,
    legendre_sup,
    legendre_transform,
    validate_assumptions,
)
from hetflux.interface import FluxSide
from hetflux.profiles import bump
from hetflux.riemann import sample, solve_classical
from hetflux.rootfind import TOL_ROOT

S1_HQ = 0.3 + 1.0 / 6.0 + 0.1  # sup_{x,|v|<=1} L for the default heterogeneous quadratic


# ---------------------------------------------------------------------------
# critical points


def test_critical_point_homogeneous_parabolas():
    assert abs(FluxSide.from_model(quadratic(0.5), 0.7).alpha) < 1e-12
    assert abs(FluxSide.from_model(quadratic(1.0), -3.0).alpha) < 1e-12
    assert abs(FluxSide.from_model(quadratic(1.0, shift=2.5), 0.0).alpha - 2.5) < 1e-12


def test_critical_point_follows_the_coefficient_curve(hq_model):
    for x in (-1.5, -0.5, 0.0, 0.25, 1.0):
        expected, alpha = 0.3 * float(bump(x / 1.0)), FluxSide.from_model(hq_model, x).alpha
        assert abs(alpha - expected) < 1e-9
        assert abs(float(hq_model.du_h(x, alpha))) <= 1e-12


def _hq_coefficients(x):
    # theta, ell, g of the default heterogeneous quadratic
    b = bump(np.asarray(x, dtype=float))
    return 1.0 + 0.5 * b, 0.3 * b, -0.1 * b


def test_critical_points_vectorized_matches_scalar(hq_model):
    # Array in, array out, against the closed form alpha = ell(x).
    xs = np.linspace(-1.2, 1.2, 17)
    vec = FluxSide.from_model(hq_model, xs).alpha
    assert vec.shape == xs.shape
    _, ell, _ = _hq_coefficients(xs)
    assert np.all(np.abs(vec - ell) < 1e-9)


def test_a_hook_whose_alpha_is_no_root_of_du_h_is_refused():
    # A hook's alpha is checked like its flux, by |du_h(x, alpha)| <= 1e-12.
    base = quadratic(0.5)

    def lying(xs):
        f = base.freeze(xs)
        f.alpha = lambda: np.ones(np.shape(xs))
        return f

    model = dataclasses.replace(base, freeze=lying)
    for x in (0.0, np.linspace(-1.0, 1.0, 5)):
        with pytest.raises(ConfigError, match="alpha"):
            FluxSide.from_model(model, x)


def test_critical_curve_extremes(hq_model, pair_model):
    curve = CriticalCurve.build(hq_model)
    assert abs(curve.alpha_min - 0.0) < 1e-9
    assert abs(curve.alpha_max - 0.3) < 1e-9  # bump peak sits on the grid
    assert abs(FluxSide.from_model(hq_model, 0.0).fmin - (-0.1)) < 1e-9

    flat = CriticalCurve.build(pair_model)
    assert abs(flat.alpha_min) < 1e-9 and abs(flat.alpha_max) < 1e-9


def test_critical_curve_constant_outside_radius(hq_model):
    for x in (1.0, 2.0, 50.0, -17.0):
        assert abs(FluxSide.from_model(hq_model, x).alpha) < 1e-9


# ---------------------------------------------------------------------------
# branch inversion


def test_branch_inverse_golden_values():
    unit, half = FluxSide.from_model(quadratic(1.0), 0.0), FluxSide.from_model(quadratic(0.5), 0.0)
    assert abs(unit.branch(1.0, "plus") - 1.0) < 1e-12
    assert abs(unit.branch(1.0, "minus") + 1.0) < 1e-12
    # The worked interface example inverts f = u^2/2 at level 1 on the minus side.
    assert abs(half.branch(1.0, "minus") + math.sqrt(2.0)) < 1e-12
    assert abs(half.branch(0.0, "plus")) < 1e-12


def test_branch_round_trip_ordering_and_monotonicity(hq_model, rng):
    curve = CriticalCurve.build(hq_model)
    draws = np.array([(rng.uniform(-1.5, 1.5), rng.uniform(0.0, 4.0)) for _ in range(200)])
    x = draws[:, 0]
    side = FluxSide.from_model(hq_model, x)
    a = side.alpha
    y = np.asarray(hq_model.h(x, a), dtype=float) + draws[:, 1]
    sp, sm = side.branch(y, "plus"), side.branch(y, "minus")
    assert np.all((sm <= a) & (a <= sp))
    assert np.all(np.abs(np.asarray(hq_model.h(x, sp), dtype=float) - y) <= 1e-12)
    assert np.all(np.abs(np.asarray(hq_model.h(x, sm), dtype=float) - y) <= 1e-12)
    y2 = y + 0.5
    assert np.all(side.branch(y2, "plus") >= sp - 1e-12)
    assert np.all(side.branch(y2, "minus") <= sm + 1e-12)
    assert curve.alpha_min <= curve.alpha_max


def test_branch_inverse_clamps_rounding_below_minimum():
    side = FluxSide.from_model(quadratic(0.5, offset=0.25), 0.0)
    assert side.branch(0.25 - 1e-11, "plus") == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(NumericalError):
        side.branch(0.25 - 1e-9, "minus")


def test_flux_model_rejects_a_negative_radius_and_an_unknown_orientation():
    m = quadratic(0.5)
    with pytest.raises(ValueError, match=r"^hetero_radius must be >= 0$"):
        dataclasses.replace(m, hetero_radius=-0.1)
    with pytest.raises(ValueError, match=r"^unknown orientation 'sideways'$"):
        dataclasses.replace(m, orientation="sideways")


def test_branch_inverse_rejects_bad_side():
    with pytest.raises(ValueError):
        FluxSide.from_model(quadratic(0.5), 0.0).branch(1.0, "upward")


def test_branch_inverses_matches_scalar_loop(hq_model):
    # Array in, array out, against the closed form S+/- = ell +- sqrt((y - g) / theta).
    xs = np.linspace(-1.3, 1.3, 41)
    theta, ell, g = _hq_coefficients(xs)
    root, flux = np.sqrt((1.5 - g) / theta), FluxSide.from_model(hq_model, xs)
    for side, want in (("plus", ell + root), ("minus", ell - root)):
        vec = flux.branch(1.5, side)
        assert vec.shape == xs.shape
        assert np.all(np.abs(vec - want) < 1e-10)


def test_branch_inverses_clamp_and_error_paths(hq_model):
    xs = np.linspace(-1.5, 1.5, 21)
    # hmin ranges over [-0.1, 0]; a level a hair below 0 clamps the outer cells
    # to alpha instead of failing.
    side = FluxSide.from_model(hq_model, xs)
    vals = side.branch(-1e-12, "plus")
    assert np.all(vals >= side.alpha - 1e-12)
    resid = np.abs(np.asarray(hq_model.h(xs, vals), dtype=float) - (-1e-12))
    assert float(np.max(resid)) <= 2e-10
    # A level below the running minimum of H is unsolvable somewhere.
    with pytest.raises(NumericalError):
        side.branch(-0.05, "minus")


def test_branch_inverse_returns_the_closed_form_and_the_root_solve_as_found():
    # u^2/2 at level 0.25: the closed form gives the correctly rounded
    # sqrt(0.5), and FluxSide.branch returns it as it is, with no Newton step
    # (one lands one ulp low at the same |f(s) - y|).
    model = two_state()
    side = FluxSide.from_model(model, -1.0)
    assert side.branch(0.25, "plus") == 0.7071067811865476
    assert side.branch(1.0, "minus") == -math.sqrt(2.0)
    # The root solve stops one ulp low, at the same |f(s) - y| again, and
    # that value is returned too.
    generic = dataclasses.replace(model, freeze=None)
    solved = frozen_flux(generic, -1.0).inverse(np.array(0.25), 1.0, np.array(0.0))
    assert FluxSide.from_model(generic, -1.0).branch(0.25, "plus") == solved == 0.7071067811865475


# ---------------------------------------------------------------------------
# closed-form inverses of the built-in freeze hook

FAMILIES = {
    "quadratic": lambda: quadratic(0.7, shift=0.4, offset=-0.2),
    "two_state": two_state,
    "heterogeneous_quadratic": heterogeneous_quadratic,
    "lwr": lwr,
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_closed_form_inverses_agree_with_the_root_solves(name, rng):
    # The same model without its hook inverts by root solves. Both meet the
    # residual bounds their callers check, on the full table and on slices.
    model = FAMILIES[name]()
    xs = np.linspace(-1.6, 1.6, 65)
    alpha = FluxSide.from_model(model, xs).alpha
    fmin = np.asarray(model.h(xs, alpha), dtype=float)
    closed = frozen_flux(model, xs)
    generic = frozen_flux(dataclasses.replace(model, freeze=None), xs)
    for index in (slice(None), slice(10, 40), np.array([3, 31, 60])):
        a, lo = alpha[index], fmin[index]
        y = lo + rng.uniform(0.0, 3.0, (4, a.size)) * np.array([[0.0], [1e-9], [1.0], [1.0]])
        v = rng.uniform(-3.0, 3.0, (3, a.size))
        for f in (closed.at(index), generic.at(index)):
            for sign in (1.0, -1.0):
                s = f.inverse(y, sign, a)
                assert np.all(sign * (s - a) >= 0.0)
                assert np.all(np.abs(f(s) - y) <= TOL_ROOT * (1.0 + np.abs(y) + np.abs(lo)))
            p = f.du_inverse(v)
            assert np.all(np.abs(f.du(p) - v) <= TOL_ROOT * (1.0 + np.abs(v)))
        for sign in (1.0, -1.0):
            got = closed.at(index).inverse(y[2:], sign, a)
            assert np.allclose(got, generic.at(index).inverse(y[2:], sign, a), rtol=0, atol=1e-12)
        assert np.allclose(closed.at(index).du_inverse(v), generic.at(index).du_inverse(v),
                           rtol=0, atol=1e-12)
        assert np.allclose(closed.at(index).alpha(), generic.at(index).alpha(), rtol=0, atol=1e-12)
    exact = dataclasses.replace(model, freeze=None).legendre_sup_1
    assert abs(model.legendre_sup_1 - exact) <= 1e-14 * abs(exact)


def test_a_generic_fan_is_solved_from_its_alpha():
    # cosh(u - 2) - 1 has alpha = 2, far from the [-1, 1] the slope solve
    # started from before it took a seed: there, sampling this fan took 27
    # evaluations of g (of du_h), 20 from [alpha - 1, alpha + 1].
    calls = []

    def du_h(x, u):
        calls.append(1)
        return np.sinh(np.asarray(u, dtype=float) - 2.0)

    model = FluxModel(h=lambda x, u: np.cosh(np.asarray(u, dtype=float) - 2.0) - 1.0,
                      du_h=du_h, dx_h=lambda x, u: np.zeros(np.shape(u)), hetero_radius=0.0)
    fan = solve_classical(FluxSide.from_model(model, 0.0), 1.5, 2.5)
    xi = np.linspace(-1.0, 1.0, 201)
    del calls[:]
    s = sample(fan, xi)
    assert len(calls) <= 20
    inside = (xi > np.sinh(-0.5)) & (xi < np.sinh(0.5))
    assert np.all(np.abs(np.sinh(s[inside] - 2.0) - xi[inside]) <= TOL_ROOT)


def test_a_wrong_closed_form_fails_its_callers_residual_check():
    model = heterogeneous_quadratic()

    def off(part):
        def freeze(xs):
            f = model.freeze(xs)
            exact = getattr(f, part)
            setattr(f, part, lambda *args: exact(*args) + 1e-6)
            return f
        return dataclasses.replace(model, freeze=freeze)

    xs = np.linspace(-1.0, 1.0, 11)
    with pytest.raises(NumericalError, match="residual"):
        FluxSide.from_model(off("inverse"), xs).branch(1.0, "plus")
    with pytest.raises(NumericalError, match="residual"):
        legendre_transform(off("du_inverse"), xs, 0.5)
    fan = solve_classical(FluxSide.from_model(off("du_inverse"), 0.0), -1.0, 1.0)
    with pytest.raises(NumericalError, match="residual"):  # a point inside the fan
        sample(fan, 0.5)


# ---------------------------------------------------------------------------
# Legendre transform


def test_legendre_closed_forms():
    assert abs(legendre_transform(quadratic(0.5), 0.0, 1.2) - 1.2**2 / 2.0) < 1e-10
    assert abs(legendre_transform(quadratic(1.0), 0.0, 1.2) - 1.2**2 / 4.0) < 1e-10


def test_legendre_heterogeneous_closed_form(hq_model):
    x, v = 0.37, 1.3
    b = float(bump(x))
    theta, ell, g = 1.0 + 0.5 * b, 0.3 * b, -0.1 * b
    expected = ell * v + v**2 / (4.0 * theta) - g
    assert abs(legendre_transform(hq_model, x, v) - expected) < 1e-10


def test_legendre_brute_force_grid_oracle(lwr_model, rng):
    for _ in range(10):
        x = float(rng.uniform(-1.5, 1.5))
        v = float(rng.uniform(-1.0, 1.0))
        ps = np.linspace(-6.0, 6.0, 240001)
        brute = float(np.max(ps * v - np.asarray(lwr_model.h(x, ps), dtype=float)))
        assert abs(legendre_transform(lwr_model, x, v) - brute) < 1e-6


def test_legendre_sup_closed_values(hq_model):
    assert abs(legendre_sup(quadratic(0.5), 1.0) - 0.5) < 1e-10
    assert abs(legendre_sup(quadratic(1.0), 1.0) - 0.25) < 1e-10
    assert abs(legendre_sup(hq_model, 1.0) - S1_HQ) < 1e-8
    # lambda = 0 collapses to -inf_x hmin(x) = 0.1 for the default family.
    assert abs(legendre_sup(hq_model, 0.0) - 0.1) < 1e-9


def test_legendre_young_inequality(hq_model, lwr_model, rng):
    for model in (hq_model, lwr_model):
        xs = rng.uniform(-2.0, 2.0, 400)
        ps = rng.uniform(-3.0, 3.0, 400)
        vs = rng.uniform(-3.0, 3.0, 400)
        rhs = np.asarray(model.h(xs, ps), dtype=float) + legendre_transform(model, xs, vs)
        assert np.all(ps * vs <= rhs + 1e-9)


def test_legendre_slope_bound_inequality(hq_model, rng):
    # lam |p| - H(x, p) <= sup_{y, |v| <= lam} L(y, v) for every sampled triple.
    for lam in (0.25, 1.0, 2.0):
        sup = legendre_sup(hq_model, lam)
        xs = rng.uniform(-3.0, 3.0, 300)
        ps = rng.uniform(-4.0, 4.0, 300)
        vals = lam * np.abs(ps) - np.asarray(hq_model.h(xs, ps), dtype=float)
        assert float(np.max(vals)) <= sup + 1e-9


def test_double_transform_returns_the_flux(hq_model, lwr_model, pair_model):
    # The maximizer of sup_v (u v - L(x, v)) sits at v = du_h(x, u).
    x, u = np.meshgrid([-1.2, -0.3, 0.0, 0.8], [-2.0, -0.4, 0.1, 1.7])
    for model in (hq_model, lwr_model, pair_model, quadratic(0.5)):
        v = np.asarray(model.du_h(x, u), dtype=float)
        back = u * v - legendre_transform(model, x, v)
        assert np.all(np.abs(back - np.asarray(model.h(x, u), dtype=float)) < 1e-8)


# ---------------------------------------------------------------------------
# assumption screening


def test_validate_assumptions_clean_on_smooth_families():
    for model in (quadratic(0.5), heterogeneous_quadratic(), lwr(), cosh_model()):
        report = validate_assumptions(model)
        assert report.ok, report.summary()
        assert "hold" in report.summary()


def test_validate_reports_two_state_jump_at_origin():
    # The paired-flux family is discontinuous in x at 0 by construction; the
    # screener must say so, and say nothing else.
    report = validate_assumptions(two_state())
    assert not report.ok
    assert report.violations
    for v in report.violations:
        assert v.kind == "derivative-mismatch-x"
        assert v.x == 0.0


def test_validate_assumptions_is_answered_once_per_model():
    # The findings depend on the model alone: a second call evaluates no h
    # and returns equal, frozen violations in a new report and a new list.
    base = two_state()
    calls = []
    model = dataclasses.replace(base, h=lambda x, u: calls.append(1) or base.h(x, u))
    first = validate_assumptions(model)
    assert calls and first.violations
    del calls[:]
    second = validate_assumptions(model)
    assert calls == []
    assert second is not first and second.violations is not first.violations
    assert second.violations == first.violations
    with pytest.raises(dataclasses.FrozenInstanceError):
        second.violations[0].x = 1.0
    second.violations.clear()
    assert validate_assumptions(model).violations == first.violations
    # A dataclasses.replace copy is another model: it validates again.
    assert validate_assumptions(dataclasses.replace(model)).violations == first.violations
    assert calls


@pytest.mark.filterwarnings("error")  # the screen's own inf - inf warns no caller
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("part", ["h", "du_h", "dx_h"])
def test_validate_names_a_non_finite_flux_and_screens_only_finite_points(part, value):
    # Every other check compares, and a comparison with NaN is false: a flux
    # NaN on part of the grid passed the screen. Now each such point is a
    # non-finite finding, and no other finding reads it. The hole, inside
    # X = 1, keeps clear of the finite points' differences in x.
    base = heterogeneous_quadratic()
    fn = getattr(base, part)
    hole = lambda x: (np.asarray(x) > 0.5) & (np.asarray(x) < 1.16)
    holed = dataclasses.replace(base, **{part: lambda x, u: np.where(hole(x), value, fn(x, u))})
    report = validate_assumptions(holed)
    assert not report.ok and report.summary().splitlines()[1].startswith("  non-finite at x=")
    assert {v.kind for v in report.violations} == {"non-finite"}
    assert all(hole(v.x) and not np.isfinite(v.magnitude) for v in report.violations)
    # 9 x 33 points, capped per kind, as every kind is.
    assert len(report.violations) == 200
    # Beyond the grid only the compactness check reads h and dx_h, at
    # |x| = 3 and 17, 4 x 33 points: NaN there is a finding, as +inf is.
    far = dataclasses.replace(base, **{part: lambda x, u: np.where(np.abs(x) > 2.0, value, fn(x, u))})
    found = validate_assumptions(far).violations
    assert len(found) == (0 if part == "du_h" else 4 * 33)
    assert {v.kind for v in found} <= {"heterogeneity-compactness"}


def test_validate_flags_nonconvex_and_noncompact_flux():
    # h = sin(x) u: linear in u (no convexity) and x-varying everywhere.
    bad = FluxModel(
        h=lambda x, u: np.sin(np.asarray(x, dtype=float)) * np.asarray(u, dtype=float),
        du_h=lambda x, u: np.sin(np.asarray(x, dtype=float))
        * np.ones(np.broadcast(np.asarray(x), np.asarray(u)).shape),
        dx_h=lambda x, u: np.cos(np.asarray(x, dtype=float)) * np.asarray(u, dtype=float),
        hetero_radius=1.0,
    )
    report = validate_assumptions(bad)
    kinds = {v.kind for v in report.violations}
    assert "convexity" in kinds
    assert "heterogeneity-compactness" in kinds


def test_validate_flags_lying_derivative():
    base = quadratic(0.5)
    liar = FluxModel(
        h=base.h,
        du_h=lambda x, u: np.asarray(u, dtype=float) + 0.1,
        dx_h=base.dx_h,
        hetero_radius=0.0,
    )
    report = validate_assumptions(liar)
    assert any(v.kind == "derivative-mismatch-u" for v in report.violations)
    assert not report.ok


@pytest.mark.parametrize("radius", [0.1, 0.05])
def test_validate_passes_a_correct_narrow_bump_and_flags_a_wrong_dx_h(radius):
    # A narrow bump's centered difference in x carries a truncation error
    # d^2/6 h_xxx ~ 1/X^3 beyond the tolerance at step d alone; it shrinks
    # 4x at d/2, where a wrong dx_h stays off. The magnitude is the miss at d.
    model = heterogeneous_quadratic(theta_bump=0.8, ell_bump=0.5, g_bump=-0.5, radius=radius)
    assert validate_assumptions(model).ok
    for wrong in (lambda x, u: model.dx_h(x, u) + 1e-4 * (np.abs(x) < radius),
                  lambda x, u: model.dx_h(x, u) * (1 + 1e-5)):
        report = validate_assumptions(dataclasses.replace(model, dx_h=wrong))
        found = [v for v in report.violations if v.kind == "derivative-mismatch-x"]
        assert found
        for v in found:
            fd = (model.h(v.x + 1e-5, v.u) - model.h(v.x - 1e-5, v.u)) / 2e-5
            assert v.magnitude == pytest.approx(abs(fd - wrong(v.x, v.u)), rel=1e-6)
