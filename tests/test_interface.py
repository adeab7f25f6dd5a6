"""Interface algebra: interface (and same-flux Godunov) flux, remainder, germ classes.

Frozen oracles for the flux pair f_l = u^2/2, f_r = u^2 (alpha = 0 both sides):

* interface flux at (-1,-1) is f_r(-1) = 1; at (-1,1) it is 0; at (1,-1) it
  is max{1/2, 1} = 1; at (1,1) it is max{1/2, 0} = 1/2.
* remainders: (sqrt 2, 1) -> 0 (germ member), (1,1) -> |f_l - f_r|(1) = 1/2,
  (-1,-1) -> |1 - 1/2| + |1 - 1| = 1/2, (-1,1) -> 1/2 + 1 = 3/2.
* dissipativity: u = (sqrt 2, 1) vs k = (2, sqrt 2), both increasing-branch
  pairs at levels 1 and 2 -> gap 0; same u vs the crossing pair (2, -sqrt 2)
  -> gap 2 (f_l(2) - f_l(sqrt 2)) = 2.
* maximality witness: excluded pair (-1, sqrt(1/2)) against the germ pair
  (0, 0) -> gap -f_l(-1) - f_r(sqrt(1/2)) = -1.
"""

import math

import numpy as np
import pytest

from hetflux.errors import ConfigError, NumericalError
from hetflux.families import quadratic, two_state
from hetflux.flux_model import FluxModel
from hetflux.interface import (
    GERM_TOL,
    FluxSide,
    GermClass,
    InterfaceContext,
    classify_germ,
    dissipativity_gap,
    entropy_flux,
    germ_pair,
    interface_flux,
    remainder,
)

SQRT2 = math.sqrt(2.0)


def _level_floor(ctx):
    return max(ctx.left.fmin, ctx.right.fmin)


def _same_flux(f, df, alpha):
    """Context with one convex flux on both sides: its interface flux is the
    Godunov flux max{f(max(a, alpha)), f(min(alpha, b))}."""
    side = FluxSide(f=f, df=df, alpha=alpha, fmin=float(f(alpha)))
    return InterfaceContext(side, side)


@pytest.fixture(scope="module")
def hq_ctx(hq_model):
    return InterfaceContext.from_model(hq_model, -0.6, 0.4)


@pytest.fixture(scope="module")
def lwr_ctx(lwr_model):
    return InterfaceContext.from_model(lwr_model, -0.2, 0.3)


# ---------------------------------------------------------------------------
# entropy flux and Godunov flux


def test_entropy_flux_values_and_antisymmetry():
    half = lambda u: np.asarray(u) ** 2 / 2.0
    square = lambda u: np.asarray(u) ** 2
    assert entropy_flux(half, 2.0, 1.0) == 1.5
    assert entropy_flux(half, 1.3, 1.3) == 0.0
    assert entropy_flux(square, -1.0, 1.0) == 0.0
    for a, k in ((0.3, -1.2), (2.0, 2.0), (-0.7, 0.1)):
        assert entropy_flux(half, a, k) == entropy_flux(half, k, a)


def test_godunov_closed_form_values():
    half = _same_flux(lambda u: np.asarray(u) ** 2 / 2.0, lambda u: np.asarray(u), 0.0)
    square = _same_flux(lambda u: np.asarray(u) ** 2, lambda u: 2.0 * np.asarray(u), 0.0)
    assert interface_flux(half, 1.0, -1.0) == 0.5
    assert interface_flux(half, -1.0, 1.0) == 0.0
    assert interface_flux(square, 3.0, 3.0) == 9.0


def test_godunov_matches_exhaustive_minmax(rng):
    # a <= b: minimum of f over [a, b]; a > b: max{f(a), f(b)}.
    half = _same_flux(lambda u: np.asarray(u) ** 2 / 2.0, lambda u: np.asarray(u), 0.0)
    for _ in range(300):
        a, b = rng.uniform(-3.0, 3.0, 2)
        if a <= b:
            want = 0.0 if a < 0.0 < b else min(a * a, b * b) / 2.0
        else:
            want = max(a * a, b * b) / 2.0
        assert abs(interface_flux(half, a, b) - want) < 1e-14


def test_godunov_monotone_and_consistent(rng):
    f = lambda u: 0.7 * (np.asarray(u) - 0.2) ** 2 - 0.3
    ctx = _same_flux(f, lambda u: 1.4 * (np.asarray(u) - 0.2), 0.2)
    for _ in range(200):
        a, b, d = rng.uniform(-2.0, 2.0, 3)
        d = abs(d)
        assert interface_flux(ctx, a + d, b) >= interface_flux(ctx, a, b) - 1e-14
        assert interface_flux(ctx, a, b + d) <= interface_flux(ctx, a, b) + 1e-14
        k = rng.uniform(-2.0, 2.0)
        assert abs(interface_flux(ctx, k, k) - float(f(k))) < 1e-14


# ---------------------------------------------------------------------------
# interface flux


def test_interface_flux_goldens(pair_ctx):
    assert interface_flux(pair_ctx, -1.0, -1.0) == 1.0
    assert interface_flux(pair_ctx, -1.0, 1.0) == 0.0
    assert interface_flux(pair_ctx, 1.0, -1.0) == 1.0
    assert interface_flux(pair_ctx, 1.0, 1.0) == 0.5


def test_interface_flux_four_case_table(pair_ctx, hq_ctx, rng):
    for ctx in (pair_ctx, hq_ctx):
        al, ar = ctx.left.alpha, ctx.right.alpha
        fl, fr = ctx.left.f, ctx.right.f
        ml, mr = ctx.left.fmin, ctx.right.fmin
        for _ in range(400):
            ul, ur = rng.uniform(-3.0, 3.0, 2)
            if ul <= al and ur <= ar:
                want = max(ml, float(fr(ur)))
            elif ul <= al and ur >= ar:
                want = max(ml, mr)
            elif ul >= al and ur <= ar:
                want = max(float(fl(ul)), float(fr(ur)))
            else:
                want = max(float(fl(ul)), mr)
            assert abs(interface_flux(ctx, ul, ur) - want) < 1e-14


def test_interface_flux_monotone(pair_ctx, hq_ctx, rng):
    for ctx in (pair_ctx, hq_ctx):
        for _ in range(200):
            ul, ur, d = rng.uniform(-2.5, 2.5, 3)
            d = abs(d)
            base = interface_flux(ctx, ul, ur)
            assert interface_flux(ctx, ul + d, ur) >= base - 1e-14
            assert interface_flux(ctx, ul, ur + d) <= base + 1e-14


def test_interface_flux_broadcasts(pair_ctx):
    ul = np.array([-1.0, -1.0, 1.0, 1.0])
    ur = np.array([-1.0, 1.0, -1.0, 1.0])
    got = interface_flux(pair_ctx, ul, ur)
    assert np.array_equal(got, np.array([1.0, 0.0, 1.0, 0.5]))


def test_homogeneous_reduction_matches_godunov(rng):
    m = quadratic(0.5, shift=0.3, offset=-0.2)
    ctx = InterfaceContext.from_model(m, -1.0, 1.0)
    grid = np.linspace(-3.0, 3.0, 51)
    godunov = _same_flux(lambda u: np.asarray(m.h(0.0, u), dtype=float),
                         lambda u: np.asarray(m.du_h(0.0, u), dtype=float), 0.3)
    for a in grid:
        got = interface_flux(ctx, a, grid)
        want = interface_flux(godunov, a, grid)
        assert np.max(np.abs(got - want)) <= 1e-14


def test_interface_flux_over_many_edges_matches_scalar_composition(hq_model, rng):
    # One context over five edges gives the flux of each edge's own context.
    xl = np.array([-0.9, -0.5, -0.1, 0.2, 0.6])
    xr = xl + 0.4
    ul = rng.uniform(-2.0, 2.0, xl.size)
    ur = rng.uniform(-2.0, 2.0, xl.size)
    prof = interface_flux(InterfaceContext.from_model(hq_model, xl, xr), ul, ur)
    for j in range(xl.size):
        ctx = InterfaceContext.from_model(hq_model, float(xl[j]), float(xr[j]))
        assert prof[j] == interface_flux(ctx, float(ul[j]), float(ur[j]))


def _cosh_model():
    """x-dependent cosh flux without an alpha hint: alpha comes from the root solve."""
    a = lambda x: 1.5 + 0.5 * np.clip(np.asarray(x, dtype=float), -1.0, 1.0)
    s = lambda x: 0.3 * np.clip(np.asarray(x, dtype=float), -1.0, 1.0)
    return FluxModel(
        h=lambda x, u: a(x) * (np.cosh(np.asarray(u, dtype=float) - s(x)) - 1.0),
        du_h=lambda x, u: a(x) * np.sinh(np.asarray(u, dtype=float) - s(x)),
        dx_h=lambda x, u: np.where(np.abs(np.asarray(x, dtype=float)) < 1.0, 1.0, 0.0) * (
            0.5 * (np.cosh(np.asarray(u, dtype=float) - s(x)) - 1.0)
            - 0.3 * a(x) * np.sinh(np.asarray(u, dtype=float) - s(x))),
        hetero_radius=1.0,
    )


def test_germ_algebra_over_array_contexts_matches_scalar_calls_bitwise(hq_model, lwr_model, rng):
    # Rows are draws, columns are the interfaces of one array context. The
    # draws hold germ pairs of every class, the pairs at the critical points
    # and at the lowest level shifted by 0 and +-GERM_TOL on each side (the
    # edges of classify_germ's side tests), and random states.
    steps = (0.0, GERM_TOL, -GERM_TOL)
    for model in (hq_model, lwr_model, _cosh_model()):
        xl = rng.uniform(-1.5, 1.5, 4)
        xr = xl + rng.uniform(0.05, 0.8, 4)
        ctx = InterfaceContext.from_model(model, xl, xr)
        al, ar = ctx.left.alpha, ctx.right.alpha
        assert al.shape == ar.shape == ctx.left.fmin.shape == ctx.right.fmin.shape == (4,)
        floor = np.maximum(ctx.left.fmin, ctx.right.fmin)
        levels = floor + rng.uniform(1e-3, 1.5, (3, 4))
        rows = [germ_pair(ctx, levels, which) for which in ("G1", "G2", "G3", "excluded")]
        low_l, low_r = germ_pair(ctx, floor, "G1")
        rows += [([a + dl], [b + dr]) for a, b in ((al, ar), (low_l, low_r))
                 for dl in steps for dr in steps]
        rows.append((al + rng.uniform(-2.0, 2.0, (4, 4)), ar + rng.uniform(-2.0, 2.0, (4, 4))))
        k_l, k_r = (np.concatenate([r[side] for r in rows]) for side in (0, 1))
        v_l, v_r = k_l[::-1], k_r[::-1]
        got = {
            interface_flux: interface_flux(ctx, k_l, k_r),
            remainder: remainder(ctx, k_l, k_r),
            entropy_flux: entropy_flux(ctx.right.f, k_r, v_r),
            dissipativity_gap: dissipativity_gap(ctx, (k_l, k_r), (v_l, v_r)),
            classify_germ: classify_germ(ctx, k_l, k_r),
        }
        assert set(got[classify_germ].ravel()) == set(GermClass)
        for j in range(xl.size):
            one = InterfaceContext.from_model(model, float(xl[j]), float(xr[j]))
            for side, many in ((one.left, ctx.left), (one.right, ctx.right)):
                assert type(side.alpha) is float and side.alpha == many.alpha[j]
                assert type(side.fmin) is float and side.fmin == many.fmin[j]
            for i in range(k_l.shape[0]):
                ul, ur, vl, vr = (float(z[i, j]) for z in (k_l, k_r, v_l, v_r))
                want = {
                    interface_flux: interface_flux(one, ul, ur),
                    remainder: remainder(one, ul, ur),
                    entropy_flux: entropy_flux(one.right.f, ur, vr),
                    dissipativity_gap: dissipativity_gap(one, (ul, ur), (vl, vr)),
                }
                for fn, value in want.items():
                    assert type(value) is float, fn.__name__
                    assert np.float64(value).tobytes() == got[fn][i, j].tobytes(), fn.__name__
                assert classify_germ(one, ul, ur) is got[classify_germ][i, j]


# ---------------------------------------------------------------------------
# remainder


def test_remainder_goldens(pair_ctx):
    assert abs(remainder(pair_ctx, SQRT2, 1.0)) < 1e-14
    assert abs(remainder(pair_ctx, 1.0, 1.0) - 0.5) < 1e-14
    assert abs(remainder(pair_ctx, -1.0, -1.0) - 0.5) < 1e-14
    assert abs(remainder(pair_ctx, -1.0, 1.0) - 1.5) < 1e-14


def test_remainder_diagonal_formula_above_criticals(pair_ctx, rng):
    # For k above both critical points the remainder collapses to |f_l - f_r|(k).
    for _ in range(100):
        k = rng.uniform(0.0, 3.0)
        want = abs(k * k / 2.0 - k * k)
        assert abs(remainder(pair_ctx, k, k) - want) < 1e-13


def test_remainder_nonnegative(pair_ctx, hq_ctx, rng):
    for ctx in (pair_ctx, hq_ctx):
        ul = rng.uniform(-3.0, 3.0, 500)
        ur = rng.uniform(-3.0, 3.0, 500)
        assert np.all(np.asarray(remainder(ctx, ul, ur)) >= 0.0)


# ---------------------------------------------------------------------------
# germ classification


def test_classify_germ_goldens(pair_ctx):
    assert classify_germ(pair_ctx, SQRT2, 1.0) is GermClass.G1
    assert classify_germ(pair_ctx, -SQRT2, -1.0) is GermClass.G2
    assert classify_germ(pair_ctx, SQRT2, -1.0) is GermClass.G3
    assert classify_germ(pair_ctx, -SQRT2, 1.0) is GermClass.NOT_MEMBER
    assert classify_germ(pair_ctx, -1.0, math.sqrt(0.5)) is GermClass.NOT_MEMBER
    # flux mismatch: f_l(1) = 1/2 but f_r(1) = 1
    assert classify_germ(pair_ctx, 1.0, 1.0) is GermClass.NOT_MEMBER
    # both states critical: level ties resolve to G1 by precedence
    assert classify_germ(pair_ctx, 0.0, 0.0) is GermClass.G1
    assert GermClass.G1.is_member and not GermClass.NOT_MEMBER.is_member


def test_classify_unsolvable_level_is_not_member():
    m = two_state(right_offset=0.5)
    ctx = InterfaceContext.from_model(m, -1.0, 1.0)
    # f_l(0.1) = 0.005 sits below min f_r = 0.5: no flux equality possible
    assert classify_germ(ctx, 0.1, 0.0) is GermClass.NOT_MEMBER


def test_germ_pair_classify_round_trip(pair_ctx, hq_ctx, lwr_ctx, rng, germ_pairs):
    for ctx in (pair_ctx, hq_ctx, lwr_ctx):
        floor = _level_floor(ctx)
        levels = floor + np.array([rng.uniform(0.01, 2.0) for _ in range(60)])
        for which, want in (
            ("G1", GermClass.G1),
            ("G2", GermClass.G2),
            ("G3", GermClass.G3),
            ("excluded", GermClass.NOT_MEMBER),
        ):
            kl, kr = np.array(germ_pairs(ctx, levels, [which] * levels.size)).T
            assert np.all(classify_germ(ctx, kl, kr) == want)
            # Rankine-Hugoniot across the interface
            assert np.all(np.abs(ctx.left.f(kl) - ctx.right.f(kr)) < 1e-9)


def test_remainder_zero_iff_member(pair_ctx, hq_ctx, rng, germ_pairs):
    for ctx in (pair_ctx, hq_ctx):
        floor = _level_floor(ctx)
        samples = []
        for _ in range(300):
            samples.append(tuple(rng.uniform(-3.0, 3.0, 2)))
        draws = [(("G1", "G2", "G3")[int(rng.integers(3))], floor + rng.uniform(1e-10, 1.5))
                 for _ in range(100)]
        samples += germ_pairs(ctx, [lv for _, lv in draws], [c for c, _ in draws])
        ul, ur = np.array(samples).T
        r = remainder(ctx, ul, ur)
        member = classify_germ(ctx, ul, ur) != GermClass.NOT_MEMBER
        decided = ~((1e-12 < r) & (r < 1e-6))  # outside the gray zone between the tolerances
        assert np.array_equal(member[decided], r[decided] <= 1e-12)


# ---------------------------------------------------------------------------
# dissipativity


def test_dissipativity_goldens(pair_ctx):
    u = (SQRT2, 1.0)
    assert abs(dissipativity_gap(pair_ctx, u, (2.0, SQRT2))) < 1e-14
    assert abs(dissipativity_gap(pair_ctx, u, (2.0, -SQRT2)) - 2.0) < 1e-14
    assert dissipativity_gap(pair_ctx, u, u) == 0.0


def test_dissipativity_nonnegative_on_germ_pairs(pair_ctx, hq_ctx, lwr_ctx, rng, germ_pairs):
    classes = ("G1", "G2", "G3")
    for ctx in (pair_ctx, hq_ctx, lwr_ctx):
        floor = _level_floor(ctx)
        draws = np.array([
            (floor + rng.uniform(1e-6, 2.0), rng.integers(3),
             floor + rng.uniform(1e-6, 2.0), rng.integers(3))
            for _ in range(300)
        ])
        us = germ_pairs(ctx, draws[:, 0], [classes[int(c)] for c in draws[:, 1]])
        ks = germ_pairs(ctx, draws[:, 2], [classes[int(c)] for c in draws[:, 3]])
        assert np.all(dissipativity_gap(ctx, np.array(us).T, np.array(ks).T) >= -1e-12)


def test_excluded_branch_fails_maximality(pair_ctx, hq_ctx, lwr_ctx, rng, germ_pairs):
    # hand witness: (-1, sqrt(1/2)) against (0, 0)
    assert abs(dissipativity_gap(pair_ctx, (-1.0, math.sqrt(0.5)), (0.0, 0.0)) + 1.0) < 1e-14
    for ctx in (pair_ctx, hq_ctx, lwr_ctx):
        floor = _level_floor(ctx)
        k0 = germ_pair(ctx, floor + 1e-9, "G1")
        levels = floor + np.array([rng.uniform(0.1, 2.0) for _ in range(50)])
        bad = np.array(germ_pairs(ctx, levels, ["excluded"] * levels.size)).T
        assert np.all(dissipativity_gap(ctx, bad, k0) < -1e-10)


def test_gap_deficit_bounded_by_remainder(pair_ctx, hq_ctx, rng, germ_pairs):
    # For arbitrary data u and a germ pair k: Phi_r - Phi_l <= remainder(u).
    classes = ("G1", "G2", "G3")
    for ctx in (pair_ctx, hq_ctx):
        floor = _level_floor(ctx)
        draws = [(tuple(rng.uniform(-2.5, 2.5, 2)), floor + rng.uniform(1e-6, 2.0),
                  classes[int(rng.integers(3))]) for _ in range(400)]
        ks = germ_pairs(ctx, [lv for _, lv, _ in draws], [c for _, _, c in draws])
        u = np.array([u for u, _, _ in draws]).T
        deficit = -dissipativity_gap(ctx, u, np.array(ks).T)
        assert np.all(deficit <= remainder(ctx, *u) + 1e-9)


# ---------------------------------------------------------------------------
# guards and branch inversion


def test_interface_rejects_non_finite_states(pair_ctx):
    with pytest.raises(ConfigError, match="finite"):
        interface_flux(pair_ctx, float("nan"), 0.0)
    with pytest.raises(ConfigError, match="finite"):
        interface_flux(pair_ctx, 0.0, np.array([1.0, np.inf]))
    with pytest.raises(ConfigError, match="finite"):
        classify_germ(pair_ctx, float("nan"), 0.0)
    with pytest.raises(ConfigError, match="finite"):
        germ_pair(pair_ctx, float("inf"), "G1")
    with pytest.raises(ConfigError, match="finite"):
        dissipativity_gap(pair_ctx, (0.0, float("nan")), (0.0, 0.0))


def test_flux_side_branch_clamp_and_errors(pair_ctx):
    side = pair_ctx.left
    assert side.branch(side.fmin - 1e-11, "plus") == side.alpha
    with pytest.raises(NumericalError, match="below flux minimum"):
        side.branch(side.fmin - 1e-6, "plus")
    with pytest.raises(ValueError, match="side"):
        side.branch(1.0, "up")
    # plus/minus branches straddle alpha and hit the level exactly
    for y in (0.3, 1.7):
        sp = side.branch(y, "plus")
        sm = side.branch(y, "minus")
        assert sm < side.alpha < sp
        assert abs(float(side.f(sp)) - y) < 1e-11
        assert abs(float(side.f(sm)) - y) < 1e-11


def test_germ_pair_rejects_unknown_branch(pair_ctx):
    with pytest.raises(ValueError, match="germ branch"):
        germ_pair(pair_ctx, 1.0, "G4")
