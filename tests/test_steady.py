"""Discrete steady states and the invariant envelope.

Hand-checked envelope constants:

* quadratic u^2/2, bounds [-1, 1]: Legendre sup at slope 1 is 1/2, anchors
  are +-1 and the certified constants are +-1.
* two_state defaults (u^2/2 | u^2), bounds [-1, 1]: sup Legendre 1/2 again
  (the left flux dominates), anchors +-3/2, constants +-13/8.
* heterogeneous_quadratic defaults, bounds [0.2, 1.2]: m widens to 0 (the
  critical curve reaches it), s1 = 3/10 + 1/6 + 1/10 = 17/30, the upper
  anchor is max_x H(x, 1.2) + s1 = 1.44 + 17/30 and the lower anchor is
  -max_x H(x, 0) - s1 = -0.035 - 17/30, giving
  upper constant (1.44 + 17/30)^2 + 17/30 and lower constant
  -((0.035 + 17/30)^2 + 17/30).

Branch values for the two_state pair at level 1 and 1/2: S_l^+(1) = sqrt 2,
S_r^+(1/2) = sqrt(1/2), S_r^-(1/2) = -sqrt(1/2).
"""

import math

import numpy as np
import pytest
from conftest import cosh_model
from test_library_fuzz import _cosh_flux

from hetflux.errors import ConfigError, NumericalError
from hetflux.families import heterogeneous_quadratic, lwr, quadratic, two_state
from hetflux.interface import GermClass, InterfaceContext, classify_germ
from hetflux.flux_model import distinct_span, ghost_cells, invert_branch, lipschitz_bound
from hetflux.solver import Mesh, Scheme, _cfl_policy, datum_step, run, steady_residual
from hetflux.steady import SteadyState, bracket, build_steady, envelope

S1_HQ = 0.3 + 1.0 / 6.0 + 0.1


@pytest.fixture(scope="module")
def hq_mesh():
    return Mesh.make(-2.0, 2.0, 0.02)


# ---------------------------------------------------------------------------
# construction


def test_upper_steady_holds_one_flux_level(hq_model, hq_mesh):
    st = build_steady(hq_model, hq_mesh, 1.3, direction="from_left", branch="upper")
    assert st.flux_level == pytest.approx(1.69, abs=1e-14)  # H(-1, 1.3) = 1.3^2
    xc = hq_mesh.centers()
    levels = np.asarray(hq_model.h(xc, st.values), dtype=float)
    assert np.max(np.abs(levels - st.flux_level)) < 1e-9
    from hetflux.flux_model import critical_point

    assert np.all(st.values >= critical_point(hq_model, xc) - 1e-12)
    # constant and equal to the anchor outside the heterogeneity
    outside = np.abs(xc) > 1.0
    assert np.max(np.abs(st.values[outside] - 1.3)) < 1e-10
    assert st.bound == float(np.max(st.values))
    assert steady_residual(st, hq_model, hq_mesh) < 1e-10


def test_steady_is_one_step_fixed_point(hq_model, hq_mesh):
    st = build_steady(hq_model, hq_mesh, 1.3, branch="upper")
    lo, hi = float(np.min(st.values)), float(np.max(st.values))
    policy = _cfl_policy(lipschitz_bound(hq_model, lo - 0.5, hi + 0.5), hq_mesh, 0.9, None, 1.0)
    scheme = Scheme(hq_model, hq_mesh, policy.lipschitz)
    u = st.values.copy()
    for _ in range(5):
        u, _, _ = scheme.step_arrays(u, policy.dt(hq_mesh.dx))
    assert np.max(np.abs(u - st.values)) < 1e-13


def test_adjacent_steady_cells_are_germ_pairs(hq_model, hq_mesh):
    xc = hq_mesh.centers()
    edges = InterfaceContext.from_model(hq_model, xc[:-1], xc[1:])
    # every edge of both branches, one row each, across the bump where alpha
    # varies fastest too
    u = np.stack([build_steady(hq_model, hq_mesh, -0.4, branch="lower").values,
                  build_steady(hq_model, hq_mesh, 1.3, branch="upper").values])
    tags = classify_germ(edges, u[:, :-1], u[:, 1:])
    assert tags.shape == (2, hq_mesh.n_cells - 1)
    assert np.argwhere(tags == GermClass.NOT_MEMBER).tolist() == []


def test_two_state_branch_values():
    model = two_state()
    mesh = Mesh.make(-2.0, 2.0, 0.5)
    xc = mesh.centers()
    left, right = xc < 0.0, xc > 0.0

    st = build_steady(model, mesh, 1.0, direction="from_right", branch="upper")
    assert st.flux_level == pytest.approx(1.0)
    assert np.max(np.abs(st.values[left] - math.sqrt(2.0))) < 1e-10
    assert np.max(np.abs(st.values[right] - 1.0)) < 1e-12

    st = build_steady(model, mesh, 1.0, direction="from_left", branch="upper")
    assert st.flux_level == pytest.approx(0.5)
    assert np.max(np.abs(st.values[left] - 1.0)) < 1e-12
    assert np.max(np.abs(st.values[right] - math.sqrt(0.5))) < 1e-10

    st = build_steady(model, mesh, -1.0, direction="from_left", branch="lower")
    assert st.flux_level == pytest.approx(0.5)
    assert np.max(np.abs(st.values[left] + 1.0)) < 1e-12
    assert np.max(np.abs(st.values[right] + math.sqrt(0.5))) < 1e-10


BRACKET_MODELS = {
    "quadratic": lambda: quadratic(0.7, shift=0.4, offset=-0.2),
    "two_state": two_state,
    "heterogeneous_quadratic": heterogeneous_quadratic,
    "lwr": lwr,
    "cosh": cosh_model,
    "fuzz cosh": lambda: _cosh_flux(np.random.default_rng(3), 0.8),
}


@pytest.mark.parametrize("name", sorted(BRACKET_MODELS))
def test_bracket_solves_both_branches_at_once_with_the_bits_of_two_builds(name, rng,
                                                                         solve_calls):
    # Reference: each branch built alone, with its own flux call and its
    # own invert_branch call.
    model = BRACKET_MODELS[name]()
    mesh = Mesh.make(-3.0, 3.0, 0.05)
    xc_ext, al_ext, f = ghost_cells(model, mesh)
    span, spread = distinct_span(model, xc_ext[1:-1])
    al, f = al_ext[1:-1], f.at(slice(1, -1))
    curve = model.curve
    for u in (rng.uniform(curve.alpha_min - 1.0, curve.alpha_max + 1.0, mesh.n_cells),
              np.full(mesh.n_cells, curve.alpha_max + 0.5)):
        before = len(solve_calls)
        got = bracket(model, mesh, u)
        # One root solve for both states, on a model with no closed forms.
        assert len(solve_calls) - before == (0 if model.freeze else 1)
        for st, sign, clamp in zip(got, (-1.0, 1.0), (np.minimum, np.maximum)):
            level = max(float(np.max(f(clamp(u, al)))), curve.floor)
            want = spread(invert_branch(f.at(span), al[span], level, sign))
            assert st.flux_level == level
            assert st.values.tobytes() == want.tobytes()
            assert st.bound == (np.min(want) if sign < 0 else np.max(want))


def test_bracket_names_the_lower_overflow_first():
    # Both levels overflow; the lower branch's data level is named.
    model = quadratic()
    mesh = Mesh.make(-1.0, 1.0, 0.5)
    u = np.array([1e200, 0.0, -3e200, 0.0])
    with np.errstate(over="ignore"), pytest.raises(NumericalError,
                                                   match=r"data level -3e\+200 overflows"):
        bracket(model, mesh, u)


def test_homogeneous_steady_is_constant(burgers_model):
    mesh = Mesh.make(-1.0, 1.0, 0.1)
    st = build_steady(burgers_model, mesh, 0.8, branch="upper")
    assert np.max(np.abs(st.values - 0.8)) < 1e-12
    assert steady_residual(st, burgers_model, mesh) < 1e-12


def test_build_steady_rejects_bad_anchors_and_args(hq_model, lwr_model, hq_mesh):
    with pytest.raises(ConfigError, match=r"anchor 0\.1 lies off the requested "
                       r"branch, which ends at the critical state 0\.3 \(critical "
                       r"range \[0\.0, 0\.3\]\)"):
        build_steady(hq_model, hq_mesh, 0.1, branch="upper")
    with pytest.raises(ConfigError, match="branch, which ends at the critical state 0.0 "):
        build_steady(hq_model, hq_mesh, 0.1, branch="lower")
    with pytest.raises(ConfigError, match="direction"):
        build_steady(hq_model, hq_mesh, 1.0, direction="sideways")
    with pytest.raises(ConfigError, match="branch"):
        build_steady(hq_model, hq_mesh, 1.0, branch="middle")
    # lwr: anchoring -1/2 on the left carries flux -1/4, but the right
    # bottleneck only passes -1/10; the message gives the physical density
    # 1/2 and flux 1/4
    with pytest.raises(ConfigError, match=r"anchor 0\.5 carries flux level 0\.25, "
                       r"past the critical flux 0\.1 of the tightest bottleneck"):
        build_steady(lwr_model, hq_mesh, -0.5, direction="from_left", branch="lower")


# ---------------------------------------------------------------------------
# envelope constants


def test_envelope_constants_quadratic():
    model = quadratic(0.5)
    c = envelope(model, None, -1.0, 1.0)
    assert model.legendre_sup_1 == pytest.approx(0.5, abs=1e-8)
    assert c.upper_anchor == pytest.approx(1.0, abs=1e-8)
    assert c.lower_anchor == pytest.approx(-1.0, abs=1e-8)
    assert c.upper_bound == pytest.approx(1.0, abs=1e-8)
    assert c.lower_bound == pytest.approx(-1.0, abs=1e-8)


def test_envelope_constants_two_state():
    model = two_state()
    c = envelope(model, None, -1.0, 1.0)
    assert model.legendre_sup_1 == pytest.approx(0.5, abs=1e-8)
    assert c.upper_anchor == pytest.approx(1.5, abs=1e-8)
    assert c.upper_bound == pytest.approx(1.625, abs=1e-8)
    assert c.lower_bound == pytest.approx(-1.625, abs=1e-8)


def test_envelope_constants_heterogeneous(hq_model):
    c = envelope(hq_model, None, 0.2, 1.2)
    assert c.m == 0.0  # widened to the critical range
    assert c.M == 1.2
    assert hq_model.legendre_sup_1 == pytest.approx(S1_HQ, abs=1e-8)
    assert c.upper_anchor == pytest.approx(1.44 + S1_HQ, abs=1e-8)
    assert c.lower_anchor == pytest.approx(-0.035 - S1_HQ, abs=1e-8)
    assert c.upper_bound == pytest.approx((1.44 + S1_HQ) ** 2 + S1_HQ, abs=1e-7)
    assert c.lower_bound == pytest.approx(-((0.035 + S1_HQ) ** 2 + S1_HQ), abs=1e-7)


def test_envelope_rejects_unordered_bounds(hq_model):
    with pytest.raises(ConfigError, match="out of order"):
        envelope(hq_model, None, 1.0, -1.0)


def test_an_envelope_without_a_mesh_has_no_states(hq_model):
    env = envelope(hq_model, None, 0.2, 1.2)
    for name in ("lower_state", "upper_state"):
        with pytest.raises(ConfigError, match="need a mesh"):
            getattr(env, name)


# ---------------------------------------------------------------------------
# envelope states


def test_envelope_sandwiches_the_datum_range(hq_model, hq_mesh):
    env = envelope(hq_model, hq_mesh, 0.2, 1.2)
    assert np.all(env.upper_state.values >= env.M - 1e-12)
    assert np.all(env.lower_state.values <= env.m + 1e-12)
    assert np.all(env.upper_state.values <= env.upper_bound + 1e-12)
    assert np.all(env.lower_state.values >= env.lower_bound - 1e-12)
    assert np.all(env.lower_state.values < env.upper_state.values)
    for st in (env.lower_state, env.upper_state):
        assert steady_residual(st, hq_model, hq_mesh) < 1e-9


@pytest.mark.parametrize("family", [heterogeneous_quadratic, quadratic, two_state, lwr])
@pytest.mark.parametrize("amp", [10.0, 20.0])
def test_envelope_of_large_data_builds(family, amp):
    # Flux levels reach 1e3-4e5 here, so f(s) - level rounds at well above
    # 1e-12; the branch solves must accept such roots, as run() needs them.
    model = family()
    mesh = Mesh.make(-3.0, 3.0, 0.05)
    res = run(model, mesh, datum_step(amp, -amp), t_end=0.0)
    assert res.n_steps == 0
    env = envelope(model, mesh, -amp, amp)
    assert np.all(env.upper_state.values >= amp)
    assert np.all(env.lower_state.values <= -amp)
    assert np.all(env.upper_state.values <= env.upper_bound)
    assert np.all(env.lower_state.values >= env.lower_bound)
    for st in (env.lower_state, env.upper_state):
        assert steady_residual(st, model, mesh) <= 1e-12 * (1.0 + abs(st.flux_level))


def test_envelope_anchors_do_not_depend_on_the_mesh(hq_model):
    coarse = envelope(hq_model, Mesh.make(-2.0, 2.0, 0.1), -0.3, 0.9)
    fine = envelope(hq_model, Mesh.make(-3.0, 3.0, 0.05), -0.3, 0.9)
    assert coarse.upper_anchor == fine.upper_anchor
    assert coarse.lower_anchor == fine.lower_anchor
    assert coarse.upper_bound == fine.upper_bound
    assert coarse.lower_bound == fine.lower_bound


def test_constant_across_the_bump_is_not_steady(hq_model, hq_mesh):
    fake = SteadyState(
        values=np.full(hq_mesh.n_cells, 0.15),
        flux_level=float("nan"),
        bound=0.15,
    )
    # 0.15 crosses the critical curve (max alpha = 0.3), so fluxes cannot match
    assert steady_residual(fake, hq_model, hq_mesh) > 1e-4
