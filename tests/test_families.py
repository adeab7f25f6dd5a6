"""Built-in flux families and the profile functions behind them.

Closed-form anchors used below, all hand-checkable:

* lwr defaults: h_phys(x, rho) = V(x) rho (1 - rho / R(x)) with (V, R) equal
  to (1, 1) left of the transition band and (0.5, 0.8) right of it, so the
  physical maxima are V R / 4 = 0.25 and 0.1 at rho = R / 2.
* heterogeneous_quadratic defaults at the bump center: theta = 1.5,
  ell = 0.3, g = -0.1, hence h(0, 1) = 1.5 * 0.49 - 0.1 = 0.635.
"""

import dataclasses

import numpy as np
import pytest

from hetflux.errors import ConfigError
from hetflux.families import _quadratic_form, heterogeneous_quadratic, lwr, quadratic, two_state
from hetflux.flux_model import critical_point, frozen_flux
from hetflux.profiles import bump, bump_prime, smoothstep, smoothstep_prime


# ---------------------------------------------------------------------------
# profiles


def test_bump_values_and_support():
    assert bump(0.0) == 1.0
    assert bump(1.0) == 0.0
    assert bump(-1.0) == 0.0
    assert np.all(bump(np.array([-3.0, 1.5, 42.0])) == 0.0)
    s = np.linspace(-0.99, 0.99, 201)
    vals = bump(s)
    assert np.all(vals > 0.0)
    assert np.all(vals <= 1.0)


def test_bump_prime_matches_finite_differences():
    s = np.linspace(-0.95, 0.95, 41)
    d = 1e-6
    fd = (bump(s + d) - bump(s - d)) / (2 * d)
    assert np.max(np.abs(bump_prime(s) - fd)) < 1e-6
    assert np.all(bump_prime(np.array([-1.0, 1.0, 2.0])) == 0.0)


def test_smoothstep_endpoints_and_clamping():
    assert smoothstep(0.0) == 0.0
    assert smoothstep(1.0) == 1.0
    assert smoothstep(-2.5) == 0.0
    assert smoothstep(7.0) == 1.0
    assert abs(smoothstep(0.5) - 0.5) < 1e-14
    s = np.linspace(0.0, 1.0, 101)
    assert np.all(np.diff(smoothstep(s)) >= 0.0)


def test_smoothstep_prime_matches_finite_differences():
    s = np.linspace(0.05, 0.95, 31)
    d = 1e-6
    fd = (smoothstep(s + d) - smoothstep(s - d)) / (2 * d)
    assert np.max(np.abs(smoothstep_prime(s) - fd)) < 1e-6
    # flat continuation outside [0, 1]
    assert np.all(smoothstep_prime(np.array([0.0, 1.0, -1.0, 3.0])) == 0.0)


# ---------------------------------------------------------------------------
# quadratic


def test_quadratic_closed_form():
    m = quadratic(coefficient=2.0, shift=1.0, offset=-3.0)
    assert float(m.h(0.0, 3.0)) == 5.0
    assert float(m.du_h(0.0, 3.0)) == 8.0
    assert float(m.dx_h(17.0, 3.0)) == 0.0
    assert m.hetero_radius == 0.0
    assert m.orientation == "convex"
    assert float(frozen_flux(m, np.array([4.0])).alpha()[0]) == 1.0


def test_quadratic_keeps_its_constant_coefficients_as_0d_arrays():
    # A ufunc pays a scalar conversion for a Python-float operand on every
    # call; read-only 0-d arrays give the same bits without it, and at()
    # keeps them whole at every level.
    f = quadratic(coefficient=2.0, shift=1.0).freeze(np.linspace(-1.0, 1.0, 11))
    g = f.at(slice(2, 5)).at(np.array([0, 2]))
    for alpha in (f.alpha(), g.alpha()):
        assert isinstance(alpha, np.ndarray) and alpha.ndim == 0 and alpha == 1.0
        assert not alpha.flags.writeable
    u = np.linspace(-2.0, 3.0, 7)
    assert g(u).tobytes() == (2.0 * (u - 1.0) ** 2).tobytes()


def test_quadratic_rejects_nonpositive_coefficient():
    with pytest.raises(ConfigError, match="coefficient"):
        quadratic(coefficient=0.0)
    with pytest.raises(ConfigError):
        quadratic(coefficient=-1.0)


# ---------------------------------------------------------------------------
# two_state


def test_two_state_sides_and_boundary_convention():
    m = two_state()
    # x = 0 belongs to the left flux by convention.
    assert float(m.h(-1.0, 2.0)) == 2.0
    assert float(m.h(0.0, 2.0)) == 2.0
    assert float(m.h(1e-9, 2.0)) == 4.0
    assert float(m.h(1.0, 2.0)) == 4.0
    assert float(m.du_h(-1.0, 2.0)) == 2.0
    assert float(m.du_h(1.0, 2.0)) == 4.0
    assert float(m.dx_h(0.3, 5.0)) == 0.0
    assert m.hetero_radius == 0.5


def test_two_state_shifted_offsets():
    m = two_state(left_shift=1.0, left_offset=0.25, right_coefficient=2.0, right_offset=-1.0)
    assert float(m.h(-2.0, 1.0)) == 0.25
    assert float(m.h(2.0, 1.0)) == 1.0
    alpha = frozen_flux(m, np.array([-1.0, 1.0])).alpha()
    assert alpha[0] == 1.0 and alpha[1] == 0.0


def test_two_state_parameter_validation():
    with pytest.raises(ConfigError, match="positive coefficients"):
        two_state(left_coefficient=0.0)
    with pytest.raises(ConfigError, match="positive coefficients"):
        two_state(right_coefficient=-2.0)
    with pytest.raises(ConfigError, match="radius"):
        two_state(radius=0.0)


# ---------------------------------------------------------------------------
# heterogeneous_quadratic


def test_heterogeneous_quadratic_center_and_far_field():
    m = heterogeneous_quadratic()
    assert abs(float(m.h(0.0, 1.0)) - 0.635) < 1e-14
    # outside the radius the flux is exactly u^2
    for x in (-5.0, 1.0, 2.0):
        assert float(m.h(x, 0.7)) == pytest.approx(0.49, abs=1e-15)
        assert float(m.dx_h(x, 0.7)) == 0.0
    assert m.hetero_radius == 1.0


def test_heterogeneous_quadratic_dx_matches_finite_differences():
    m = heterogeneous_quadratic()
    d = 1e-6
    for x in (-0.8, -0.3, 0.4, 0.9):
        for u in (-1.0, 0.2, 1.5):
            fd = (float(m.h(x + d, u)) - float(m.h(x - d, u))) / (2 * d)
            assert abs(float(m.dx_h(x, u)) - fd) < 1e-6


def test_heterogeneous_quadratic_smooth_at_support_boundary():
    m = heterogeneous_quadratic()
    eps = 1e-8
    for u in (-0.5, 0.0, 1.1):
        assert abs(float(m.h(1.0 - eps, u)) - float(m.h(1.0 + eps, u))) < 1e-9


def test_heterogeneous_quadratic_parameter_validation():
    with pytest.raises(ConfigError, match="radius"):
        heterogeneous_quadratic(radius=0.0)
    # theta dips to 1 - 1 = 0 at the bump center
    with pytest.raises(ConfigError, match="theta"):
        heterogeneous_quadratic(theta_bump=-1.0)
    with pytest.raises(ConfigError, match="theta"):
        heterogeneous_quadratic(theta_base=0.2, theta_bump=-0.5)


# ---------------------------------------------------------------------------
# lwr (concave physical flux, convex internal reduction)


def _lwr_physical(x, rho, v1=1.0, v2=0.5, r1=1.0, r2=0.8, X=1.0):
    t = smoothstep((np.asarray(x, dtype=float) + X) / (2 * X))
    vel = v1 + (v2 - v1) * t
    jam = r1 + (r2 - r1) * t
    return vel * rho * (1.0 - rho / jam)


def test_lwr_internal_flux_is_reflected_physical_flux(lwr_model, rng):
    assert lwr_model.orientation == "concave"
    xs = rng.uniform(-2.0, 2.0, 50)
    ws = rng.uniform(-1.0, 0.2, 50)
    got = np.asarray(lwr_model.h(xs, ws), dtype=float)
    want = -_lwr_physical(xs, -ws)
    assert np.max(np.abs(got - want)) < 1e-14


def test_lwr_state_maps_are_involutions(lwr_model):
    q = np.array([0.1, 0.45, 0.9])
    assert np.all(lwr_model.to_internal(q) == -q)
    assert np.all(lwr_model.to_physical(lwr_model.to_internal(q)) == q)
    convex = quadratic(0.5)
    assert np.all(np.asarray(convex.to_internal(q)) == q)


def test_lwr_critical_curve_and_minima(lwr_model):
    # internal alpha = -rho(x)/2; internal min = -(V rho / 4)
    a = critical_point(lwr_model, np.array([-2.0, 2.0]))
    assert abs(a[0] + 0.5) < 1e-10
    assert abs(a[1] + 0.4) < 1e-10
    assert abs(float(lwr_model.h(-2.0, -0.5)) + 0.25) < 1e-14
    assert abs(float(lwr_model.h(2.0, -0.4)) + 0.1) < 1e-14


def test_lwr_transition_is_complete_at_the_radius(lwr_model):
    # smoothstep hits its endpoints exactly at x = -X and x = +X
    for w in (-0.7, -0.2):
        assert float(lwr_model.h(-1.0, w)) == pytest.approx(float(lwr_model.h(-3.0, w)), abs=1e-15)
        assert float(lwr_model.h(1.0, w)) == pytest.approx(float(lwr_model.h(3.0, w)), abs=1e-15)


def test_lwr_parameter_validation():
    with pytest.raises(ConfigError, match="positive speeds"):
        lwr(v_left=0.0)
    with pytest.raises(ConfigError, match="positive speeds"):
        lwr(rho_right=-0.1)
    with pytest.raises(ConfigError, match="radius"):
        lwr(radius=0.0)


@pytest.mark.parametrize("family", [quadratic, two_state, heterogeneous_quadratic, lwr])
def test_freeze_hook_fills_out_with_the_same_bits(family, rng):
    xs = np.linspace(-2.0, 2.0, 81)
    f = family().freeze(xs)
    u = rng.uniform(-2.0, 2.0, (3, xs.size))
    want = f(u)
    buf = np.full_like(u, np.nan)
    assert f(u, out=buf) is buf
    assert buf.tobytes() == want.tobytes()
    # out may be u itself, as in the step kernel
    v = u.copy()
    assert f(v, out=v) is v
    assert v.tobytes() == want.tobytes()


def test_frozen_flux_evaluates_the_coefficients_once():
    # h and du_h are the hook's own, so nothing freezes again to compare them.
    calls = []

    def coefficients(x):
        calls.append(x.shape)
        return 1.0 + 0.5 * bump(x), 0.3 * bump(x), -0.1 * bump(x)

    model = _quadratic_form(coefficients, lambda x: (0.0, 0.0, 0.0), hetero_radius=1.0)
    xs = np.linspace(-2.0, 2.0, 41)
    f = frozen_flux(model, xs)
    assert calls == [xs.shape]
    assert f(0.5).tobytes() == np.asarray(model.h(xs, 0.5)).tobytes()


# (family, the same family with another du_h), per built-in family; the
# changes reach inside the bump of heterogeneous_quadratic.
OTHERS = [
    (quadratic, dict(coefficient=0.7)),
    (two_state, dict(left_coefficient=0.7)),
    (heterogeneous_quadratic, dict(theta_bump=0.2)),
    (lwr, dict(v_left=1.2)),
]


@pytest.mark.parametrize("family, other", OTHERS, ids=[f.__name__ for f, _ in OTHERS])
def test_a_stale_or_sloppy_piece_of_a_built_in_model_is_still_refused(family, other):
    model, xs = family(), np.linspace(-2.0, 2.0, 41)
    stranger = family(**other)

    def sloppy(xs):
        f = model.freeze(xs)
        return lambda u, out=None: f(u) if out is None else 1.5 * f(u, out=out)

    for bad in (dataclasses.replace(model, h=stranger.h),
                dataclasses.replace(model, du_h=stranger.du_h),
                dataclasses.replace(model, freeze=sloppy)):
        with pytest.raises(ConfigError, match="freeze hook"):
            frozen_flux(bad, xs)
    # a wrapper around the same h (say, a call counter) is probed, and agrees
    calls = []

    def wrapped(x, u):
        calls.append(1)
        return model.h(x, u)

    f = frozen_flux(dataclasses.replace(model, h=wrapped), xs)
    assert calls == [1]
    assert f(0.5).tobytes() == frozen_flux(model, xs)(0.5).tobytes()


@pytest.mark.parametrize("family, key", [(quadratic, "coefficient"),
                                         (two_state, "left_coefficient"),
                                         (heterogeneous_quadratic, "theta_base"),
                                         (heterogeneous_quadratic, "theta_bump"),
                                         (lwr, "v_left")])
def test_an_overflowing_coefficient_is_refused_when_frozen(family, key):
    # 2 a overflows, so the slope 2 a (u - b) is inf, and nan at alpha = b.
    with np.errstate(all="ignore"), pytest.raises(ConfigError, match="a coefficient overflows"):
        frozen_flux(family(**{key: 1e308}), np.linspace(-2.0, 2.0, 41))
