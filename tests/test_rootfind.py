"""Root finder: elementwise bracketing and refinement, residual guarantees.

Each failure case runs on a scalar (0-d) problem and on a 3-element array in
which a single bad element must make the whole call raise.
"""

import numpy as np
import pytest

from hetflux import flux_model
from hetflux.errors import NumericalError
from hetflux.flux_model import FluxModel, frozen_flux, invert_branch
from hetflux.rootfind import TOL_ROOT, solve_increasing


def _jump(x):
    # Increasing, but jumps over zero at x = 0; the best residual stays near 1.
    return x + np.where(x >= 0, 1.0, -1.0)


def _one_bad(bad):
    """g on 3 elements: x - 1 and x + 2 around `bad` in the middle."""
    def g(x):
        return np.stack([x[0] - 1.0, bad(x[1]), x[2] + 2.0])
    return g


def test_cubic_root_meets_residual_tolerance():
    root = solve_increasing(lambda x: x**3 - 8.0)
    assert root.shape == ()
    assert abs(root - 2.0) < 1e-12
    assert abs(root**3 - 8.0) <= TOL_ROOT


def test_bisection_only_still_meets_residual_tolerance():
    root = solve_increasing(lambda x: np.tanh(x) - 0.5)
    assert abs(np.tanh(root) - 0.5) <= TOL_ROOT


def test_roots_are_solved_elementwise():
    c = np.array([[-37.5, 0.3, 1e3], [2.0, -1e-3, 0.0]])
    roots = solve_increasing(lambda x: x**3 - c, c.shape)
    assert roots.shape == c.shape
    assert np.all(np.abs(roots**3 - c) <= TOL_ROOT)


def test_expand_bracket_walks_far_from_seed():
    assert abs(solve_increasing(lambda x: x + 37.5) + 37.5) < 1e-12
    roots = solve_increasing(lambda x: x - np.array([-37.5, 0.0, 900.0]), (3,))
    assert np.all(np.abs(roots - [-37.5, 0.0, 900.0]) < 1e-12)


def test_expand_bracket_rejects_nan():
    with pytest.raises(NumericalError, match="NaN"):
        solve_increasing(lambda x: np.full_like(x, np.nan))
    with pytest.raises(NumericalError, match="NaN"):
        solve_increasing(_one_bad(lambda x: np.full_like(x, np.nan)), (3,))


def test_no_sign_change_raises():
    # Strictly positive on the whole line: the left expansion never succeeds.
    def positive(x):
        return 1.0 + np.exp(np.minimum(x, 700.0))

    with pytest.raises(NumericalError, match="no sign change"):
        solve_increasing(positive)
    with pytest.raises(NumericalError, match="no sign change"):
        solve_increasing(_one_bad(positive), (3,))


def test_supplied_bracket_endpoints_returned_exactly():
    assert solve_increasing(lambda x: x - 1.0, lo0=1.0, hi0=2.0) == 1.0
    assert solve_increasing(lambda x: x - 2.0, lo0=1.0, hi0=2.0) == 2.0


def test_jump_function_without_root_fails_residual_check():
    with pytest.raises(NumericalError, match="residual"):
        solve_increasing(_jump)
    with pytest.raises(NumericalError, match="residual"):
        solve_increasing(_one_bad(_jump), (3,))


def test_custom_residual_tolerance_accepts_the_same_jump():
    root = solve_increasing(_jump, tol_res=1.5)
    assert abs(root) < 1e-6
    roots = solve_increasing(_one_bad(_jump), (3,), tol_res=1.5)
    assert np.all(np.abs(roots - [1.0, 0.0, -2.0]) < 1e-6)
    with pytest.raises(NumericalError, match="residual"):
        solve_increasing(_one_bad(_jump), (3,), tol_res=0.5)


def test_residual_tolerance_applies_per_element():
    # Only the middle (jump) element gets the loose bound; the others must
    # still meet theirs, and the error names the offending bound.
    roots = solve_increasing(_one_bad(_jump), (3,), tol_res=np.array([1e-12, 1.5, 1e-12]))
    assert np.all(np.abs(roots - [1.0, 0.0, -2.0]) < 1e-6)
    with pytest.raises(NumericalError, match="exceeds tolerance 5.000e-01"):
        solve_increasing(_one_bad(_jump), (3,), tol_res=np.array([1.5, 0.5, 1.5]))


def _counted(g):
    """g with a count of its calls in counted.calls."""
    def counted(x):
        counted.calls += 1
        return g(x)
    counted.calls = 0
    return counted


def test_each_root_has_the_bits_it_has_when_solved_alone():
    # Roots that converge at different rounds: an exact hit, a far root that
    # needs expansion, tiny, large and negative ones, and an x with an exact
    # zero of g at a bracket end.
    c = np.array([0.0, 8.0, -900.0, 1e-30, 2.0, 700.0, 0.3, -1e-3, 1.0])
    batch = solve_increasing(lambda x: x * x * x - c, c.shape)
    for i, ci in enumerate(c):
        alone = solve_increasing(lambda x: x * x * x - ci)
        assert batch[i].tobytes() == alone.tobytes(), (ci, batch[i], alone)


def _centered_square(c, offset, alpha):
    """c (s - alpha)^2 + offset, frozen from a model with no freeze hook
    whose minimizer is its position, so its inverses are root solves."""
    model = FluxModel(h=lambda x, s: c * (s - x) ** 2 + offset,
                      du_h=lambda x, s: 2.0 * c * (s - x),
                      dx_h=lambda x, s: -2.0 * c * (s - x), hetero_radius=0.0)
    return frozen_flux(model, alpha)


def test_branch_inversions_have_the_bits_they_have_when_solved_alone():
    alpha = np.array([0.0, 0.3, -1.7, 4.5e-218, 0.0, 0.3])
    gap = np.array([1e-25, 1e-218, 0.7, 1e-218, 0.0, -1e-12])
    f = _centered_square(1.5, -0.2, alpha)
    for sign in (1.0, -1.0):
        batch = invert_branch(f, alpha, -0.2 + gap, sign)
        for i in range(alpha.size):
            fi = _centered_square(1.5, -0.2, alpha[i])
            alone = invert_branch(fi, alpha[i], -0.2 + gap[i], sign)
            assert np.float64(batch[i]).tobytes() == np.float64(alone).tobytes()


@pytest.mark.parametrize("gap", [1e-25, 1e-218])
@pytest.mark.parametrize("side", ["plus", "minus"])
def test_branch_inversion_just_above_the_minimum_takes_few_evaluations(monkeypatch, gap, side):
    # f - y has a near-double root here: bisection on it takes 50 or more
    # evaluations, the square-root coordinate takes a handful.
    calls = []

    def counting_solve(g, *args, **kwargs):
        g = _counted(g)
        try:
            return solve_increasing(g, *args, **kwargs)
        finally:
            calls.append(g.calls)

    monkeypatch.setattr(flux_model, "solve_increasing", counting_solve)
    alpha = np.array([0.0, 0.3, -1.7, 4.5e-218])
    f = _centered_square(0.5, 0.0, alpha)
    sign = 1.0 if side == "plus" else -1.0
    out = invert_branch(f, alpha, gap, sign)
    assert calls and max(calls) <= 12, calls
    assert np.all(sign * (out - alpha) >= 0.0)
    assert np.all(np.abs(f(out) - gap) <= TOL_ROOT)


def test_smooth_simple_root_takes_few_evaluations():
    g = _counted(lambda x: x**3 - 8.0)
    root = solve_increasing(g, lo0=0.0, hi0=3.0)
    assert abs(root - 2.0) < 1e-15
    assert g.calls <= 15
