"""Exact Riemann solutions, classical and across the flux discontinuity.

Hand-built solutions for f_l = u^2/2, f_r = u^2 (both minimized at 0):

* datum (-1, -1): traces (-sqrt 2, -1), one left shock of speed
  -1 / (2 (sqrt 2 - 1)) plus the stationary jump, interface flux 1.
* datum (-1, 1): traces (0, 0), two rarefactions with speed ranges [-1, 0]
  and [0, 2], no stationary jump, interface flux 0; profile in xi = x/t is
  -1 | xi | xi/2 | 1 with breakpoints -1, 0, 2.
* datum (1, -1): traces (-sqrt 2, -1), left shock of speed -(sqrt 2 - 1)/2.
* datum (1, 1): traces (1, sqrt(1/2)), stationary jump plus a right
  rarefaction over [sqrt 2, 2], interface flux 1/2.
"""

import math

import numpy as np
import pytest

from hetflux.errors import ConfigError
from hetflux.families import two_state
from hetflux.interface import FluxSide, GermClass, InterfaceContext, classify_germ
from hetflux.riemann import (
    KIND_RAREFACTION,
    KIND_SHOCK,
    KIND_STATIONARY_JUMP,
    SIDE_LEFT,
    SIDE_RIGHT,
    sample,
    solve_classical,
    solve_interface,
    wave_census,
)

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def burgers_side(burgers_model):
    return FluxSide.from_model(burgers_model, 0.0)


@pytest.fixture(scope="module")
def hq_ctx(hq_model):
    return InterfaceContext.from_model(hq_model, -0.6, 0.4)


@pytest.fixture(scope="module")
def lwr_ctx(lwr_model):
    return InterfaceContext.from_model(lwr_model, -0.2, 0.3)


# ---------------------------------------------------------------------------
# classical solutions


def test_classical_shock(burgers_side):
    sol = solve_classical(burgers_side, 1.0, -0.5)
    assert wave_census(sol) == {KIND_SHOCK: 1, KIND_RAREFACTION: 0, KIND_STATIONARY_JUMP: 0}
    (w,) = sol.waves
    assert w.speed_min == w.speed_max == pytest.approx(0.25, abs=1e-15)
    assert sample(sol, 0.2) == 1.0
    assert sample(sol, 0.3) == -0.5
    # at the shock speed: right limit ahead, left limit behind
    assert sample(sol, 0.25) == -0.5
    assert sample(sol, 0.25, left_limit=True) == 1.0
    # solved as the interface problem with one flux: u_l > alpha >= u_r
    assert sol.case_tag == "III"


def test_classical_rarefaction(burgers_side):
    sol = solve_classical(burgers_side, -1.0, 1.0)
    # The transonic fan comes back as two fans meeting at xi = 0.
    assert sol.case_tag == "II"
    left, right = sol.waves
    assert left.kind == right.kind == KIND_RAREFACTION
    assert (left.speed_min, left.speed_max) == (-1.0, 0.0)
    assert (right.speed_min, right.speed_max) == (0.0, 1.0)
    assert left.right_state == right.left_state == 0.0
    for xi in (-0.5, 0.0, 0.42, 0.99):
        assert abs(sample(sol, xi) - xi) < 1e-11
    assert sample(sol, -3.0) == -1.0
    assert sample(sol, 1.5) == 1.0
    assert sol.trace_left == pytest.approx(0.0, abs=1e-11)
    assert sol.trace_right == pytest.approx(0.0, abs=1e-11)


def test_classical_constant_datum(burgers_side):
    sol = solve_classical(burgers_side, 0.7, 0.7)
    assert sol.waves == ()
    assert sample(sol, -2.0) == sample(sol, 2.0) == 0.7
    assert sol.interface_flux_value == pytest.approx(0.245)


# ---------------------------------------------------------------------------
# golden interface solutions


def test_golden_shock_from_below(pair_ctx):
    sol = solve_interface(pair_ctx, -1.0, -1.0)
    assert sol.case_tag == "I"
    assert abs(sol.trace_left + SQRT2) < 1e-12
    assert abs(sol.trace_right + 1.0) < 1e-12
    assert abs(sol.interface_flux_value - 1.0) < 1e-12
    assert wave_census(sol) == {KIND_SHOCK: 1, KIND_RAREFACTION: 0, KIND_STATIONARY_JUMP: 1}
    shock = sol.waves[0]
    sigma = -1.0 / (2.0 * (SQRT2 - 1.0))
    assert shock.kind == KIND_SHOCK and shock.side == SIDE_LEFT
    assert abs(shock.speed_min - sigma) < 1e-12
    assert abs(sample(sol, sigma - 0.1) + 1.0) < 1e-12
    assert abs(sample(sol, 0.5 * sigma) + SQRT2) < 1e-12
    assert abs(sample(sol, 0.0, left_limit=True) + SQRT2) < 1e-12
    assert abs(sample(sol, 0.0) + 1.0) < 1e-12
    assert abs(sample(sol, 3.0) + 1.0) < 1e-12


def test_golden_two_rarefactions(pair_ctx):
    sol = solve_interface(pair_ctx, -1.0, 1.0)
    assert sol.case_tag == "II"
    assert abs(sol.trace_left) < 1e-12 and abs(sol.trace_right) < 1e-12
    assert abs(sol.interface_flux_value) < 1e-12
    assert wave_census(sol) == {KIND_SHOCK: 0, KIND_RAREFACTION: 2, KIND_STATIONARY_JUMP: 0}
    left, right = sol.waves
    assert (left.speed_min, left.speed_max) == (-1.0, 0.0)
    assert (right.speed_min, right.speed_max) == (0.0, 2.0)
    # profile -1 | xi | xi/2 | 1 with breakpoints -1, 0, 2
    assert sample(sol, -1.7) == -1.0
    for xi in (-0.9, -0.4, -1e-6):
        assert abs(sample(sol, xi) - xi) < 1e-12
    for xi in (1e-6, 0.8, 1.9):
        assert abs(sample(sol, xi) - xi / 2.0) < 1e-12
    assert sample(sol, 2.4) == 1.0
    for xi, want in ((-1.0, -1.0), (0.0, 0.0), (2.0, 1.0)):
        assert abs(sample(sol, xi) - want) < 1e-12


def test_golden_crossing_shock(pair_ctx):
    sol = solve_interface(pair_ctx, 1.0, -1.0)
    assert sol.case_tag == "III"
    assert abs(sol.trace_left + SQRT2) < 1e-12
    assert abs(sol.trace_right + 1.0) < 1e-12
    assert abs(sol.interface_flux_value - 1.0) < 1e-12
    assert wave_census(sol) == {KIND_SHOCK: 1, KIND_RAREFACTION: 0, KIND_STATIONARY_JUMP: 1}
    shock = sol.waves[0]
    assert abs(shock.speed_min + (SQRT2 - 1.0) / 2.0) < 1e-12


def test_golden_right_rarefaction(pair_ctx):
    sol = solve_interface(pair_ctx, 1.0, 1.0)
    assert sol.case_tag == "IV"
    assert abs(sol.trace_left - 1.0) < 1e-12
    assert abs(sol.trace_right - math.sqrt(0.5)) < 1e-12
    assert abs(sol.interface_flux_value - 0.5) < 1e-12
    assert wave_census(sol) == {KIND_SHOCK: 0, KIND_RAREFACTION: 1, KIND_STATIONARY_JUMP: 1}
    rf = sol.waves[-1]
    assert rf.side == SIDE_RIGHT
    assert abs(rf.speed_min - SQRT2) < 1e-12 and abs(rf.speed_max - 2.0) < 1e-12
    # inside the fan: f_r'(s) = 2 s = xi
    assert abs(sample(sol, 1.7) - 0.85) < 1e-12


def test_germ_datum_is_a_lone_stationary_jump(pair_ctx):
    sol = solve_interface(pair_ctx, SQRT2, 1.0)
    assert sol.case_tag == "germ"
    assert wave_census(sol) == {KIND_SHOCK: 0, KIND_RAREFACTION: 0, KIND_STATIONARY_JUMP: 1}
    assert sol.trace_left == SQRT2 and sol.trace_right == 1.0
    assert sample(sol, -0.3) == SQRT2
    assert sample(sol, 0.3) == 1.0
    assert sample(sol, 0.0) == 1.0
    assert sample(sol, 0.0, left_limit=True) == SQRT2


# ---------------------------------------------------------------------------
# structural properties on randomized data


def test_interface_solution_structure(pair_ctx, hq_ctx, lwr_ctx, rng):
    for ctx in (pair_ctx, hq_ctx, lwr_ctx):
        traces = []
        for _ in range(150):
            ul, ur = rng.uniform(-2.5, 2.5, 2)
            sol = solve_interface(ctx, ul, ur)
            traces.append((sol.trace_left, sol.trace_right))
            # flux is continuous across the interface and equals f_int
            yl = float(ctx.left.f(sol.trace_left))
            yr = float(ctx.right.f(sol.trace_right))
            assert abs(yl - yr) < 1e-9
            assert abs(yl - sol.interface_flux_value) < 1e-9
            # at most one wave per side plus one stationary jump, ordered speeds
            census = wave_census(sol)
            assert census[KIND_STATIONARY_JUMP] <= 1
            assert sum(1 for w in sol.waves if w.side == SIDE_LEFT) <= 1
            assert sum(1 for w in sol.waves if w.side == SIDE_RIGHT) <= 1
            for w in sol.waves:
                assert w.speed_min <= w.speed_max
                if w.side == SIDE_LEFT:
                    assert w.speed_max <= 0.0
                elif w.side == SIDE_RIGHT:
                    assert w.speed_min >= 0.0
                else:
                    assert w.speed_min == w.speed_max == 0.0
            for a, b in zip(sol.waves, sol.waves[1:]):
                assert a.speed_max <= b.speed_min + 1e-12
            # far field and interface limits agree with the stored states
            assert sample(sol, -100.0) == ul
            assert sample(sol, 100.0) == ur
            assert abs(sample(sol, 0.0) - sol.trace_right) < 1e-9
            assert abs(sample(sol, 0.0, left_limit=True) - sol.trace_left) < 1e-9
        # traces form admissible stationary jumps
        assert np.all(classify_germ(ctx, *np.array(traces).T) != GermClass.NOT_MEMBER)


def test_sample_preserves_array_shape(pair_ctx):
    sol = solve_interface(pair_ctx, -1.0, 1.0)
    xi = np.array([[-2.0, -0.5], [0.5, 3.0]])
    out = sample(sol, xi)
    assert out.shape == xi.shape
    assert np.allclose(out, [[-1.0, -0.5], [0.25, 1.0]], atol=1e-12)


def test_sample_array_matches_scalar_limits_at_every_wave_speed():
    # f_l = u^2/2 | f_r = u^2 + 1/2 with datum (1/2, 1): a left shock 1/2 -> -1
    # of speed -1/4, the stationary jump -1 -> 0, and a right fan over [0, 2].
    ctx = InterfaceContext.from_model(two_state(right_offset=0.5), -1.0, 1.0)
    sol = solve_interface(ctx, 0.5, 1.0)
    assert wave_census(sol) == {KIND_SHOCK: 1, KIND_RAREFACTION: 1, KIND_STATIONARY_JUMP: 1}
    xi = np.array([s for w in sol.waves for s in (w.speed_min, w.speed_max)])
    assert np.allclose(xi, [-0.25, -0.25, 0.0, 0.0, 0.0, 2.0], atol=1e-12)
    for left_limit, want in (
        (False, [-1.0, -1.0, 0.0, 0.0, 0.0, 1.0]),
        (True, [0.5, 0.5, -1.0, -1.0, -1.0, 1.0]),
    ):
        got = sample(sol, xi, left_limit=left_limit)
        assert np.allclose(got, want, atol=1e-12)
        scalar = [sample(sol, z, left_limit=left_limit) for z in xi]
        assert all(isinstance(v, float) for v in scalar)
        assert got.tolist() == scalar


def test_solvers_reject_non_finite_data(pair_ctx, burgers_side):
    with pytest.raises(ConfigError, match="finite"):
        solve_interface(pair_ctx, float("nan"), 0.0)
    with pytest.raises(ConfigError, match="finite"):
        solve_interface(pair_ctx, 0.0, float("-inf"))
    with pytest.raises(ConfigError, match="finite"):
        solve_classical(burgers_side, float("nan"), 1.0)
