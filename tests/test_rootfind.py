"""Root finder: elementwise bracketing and bisection, residual guarantees.

Each failure case runs on a scalar (0-d) problem and on a 3-element array in
which a single bad element must make the whole call raise.
"""

import numpy as np
import pytest

from hetflux.errors import NumericalError
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
