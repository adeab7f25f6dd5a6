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

from hetflux.errors import ConfigError, NumericalError
from hetflux.families import two_state
from hetflux.flux_model import invert_branch, side_sign
from hetflux.interface import FluxSide, GermClass, InterfaceContext, classify_germ
from hetflux.riemann import (
    KIND_RAREFACTION,
    KIND_SHOCK,
    KIND_STATIONARY_JUMP,
    SIDE_LEFT,
    SIDE_RIGHT,
    invert_fan,
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


def test_sample_refuses_nan_and_reads_the_far_field_at_infinity(pair_ctx):
    sol = solve_interface(pair_ctx, -1.0, 1.0)
    for xi in (float("nan"), np.array([0.5, np.nan])):
        for left_limit in (False, True):
            with pytest.raises(ConfigError, match="NaN"):
                sample(sol, xi, left_limit=left_limit)
    assert sample(sol, np.array([-np.inf, np.inf])).tolist() == [-1.0, 1.0]


@pytest.mark.parametrize("datum, side, wrong", [
    # f_l = u^2/2 | f_r = u^2. (-1, -1): f_r imposes -1 and the left trace
    # takes the minus branch; the plus one opens a fan up to speed sqrt 2.
    ((-1.0, -1.0), "left", "plus"),
    # (1, 1): f_l imposes 1 and the right trace takes the plus branch; the
    # minus one opens a fan down from speed -sqrt 2.
    ((1.0, 1.0), "right", "minus"),
])
def test_a_wave_on_the_wrong_side_of_the_interface_is_a_numerical_error(
        pair_model, monkeypatch, datum, side, wrong):
    ctx = InterfaceContext.from_model(pair_model, -1.0, 1.0)
    flux = getattr(ctx, side)
    trace = float(flux.branch(1.0 if side == "left" else 0.5, wrong))
    speed = float(flux.df(trace))
    monkeypatch.setattr(FluxSide, "branch", lambda self, y, _: invert_branch(
        self.f, self.alpha, y, side_sign(wrong)))
    want = f"{side}-going wave with speed {speed!r}: trace branch selection failed"
    with pytest.raises(NumericalError) as err:
        solve_interface(ctx, *datum)
    assert str(err.value) == want
    assert abs(speed) == pytest.approx(SQRT2, rel=1e-12)


def _speed_start_sample(sol, xi, left_limit=False):
    """sample as a walk over the wave start speeds: the state behind the
    last wave a point has passed, unless that wave is a fan still holding
    the point."""
    z = np.asarray(xi, dtype=float)
    flat = z.ravel()
    starts = np.array([w.speed_min for w in sol.waves], dtype=float)
    states = np.array([sol.u_left] + [w.right_state for w in sol.waves])
    passed = np.searchsorted(starts, flat, side="left" if left_limit else "right")
    out = states[passed]
    for i, w in enumerate(sol.waves):
        if w.kind != KIND_RAREFACTION:
            continue
        inside = (passed == i + 1) & (
            (flat <= w.speed_max) if left_limit else (flat < w.speed_max)
        )
        if inside.any():
            out[inside] = invert_fan(sol, w, flat[inside])
    return float(out[0]) if z.ndim == 0 else out.reshape(z.shape)


@pytest.mark.parametrize("sides", ["hook-less", "closed forms"])
def test_sample_matches_the_speed_start_walk_bit_for_bit(sides, pair_ctx, pair_model, rng):
    ctx = pair_ctx if sides == "hook-less" else InterfaceContext.from_model(pair_model, -1.0, 1.0)
    offset = InterfaceContext.from_model(two_state(right_offset=0.5), -1.0, 1.0)
    sols = [solve_interface(ctx, ul, ur) for ul, ur in
            ((-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0), (SQRT2, 1.0))]
    sols += [solve_interface(ctx, *rng.uniform(-2.5, 2.5, 2)) for _ in range(40)]
    sols += [solve_interface(offset, 0.5, 1.0), solve_classical(ctx.left, -1.0, 1.0),
             solve_classical(ctx.right, 1.0, -0.5), solve_classical(ctx.left, 0.7, 0.7)]
    assert {sol.case_tag for sol in sols} == {"I", "II", "III", "IV", "germ"}
    for sol in sols:
        speeds = np.array([s for w in sol.waves for s in (w.speed_min, w.speed_max)])
        xi = np.concatenate((speeds, np.nextafter(speeds, -np.inf), np.nextafter(speeds, np.inf),
                             rng.uniform(-3.0, 3.0, 64), [-np.inf, np.inf, 0.0, -0.0]))
        for left_limit in (False, True):
            got = sample(sol, xi, left_limit=left_limit)
            want = _speed_start_sample(sol, xi, left_limit=left_limit)
            assert got.tobytes() == want.tobytes()
            assert sample(sol, xi.reshape(2, -1), left_limit).tobytes() == want.tobytes()
            for z in xi[::7]:
                one = sample(sol, z, left_limit=left_limit)
                assert isinstance(one, float)
                assert np.float64(one).tobytes() == np.float64(
                    _speed_start_sample(sol, z, left_limit=left_limit)).tobytes()
