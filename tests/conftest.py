"""Shared fixtures: the canonical two-flux interface and the built-in models."""

import numpy as np
import pytest

from hetflux.families import heterogeneous_quadratic, lwr, quadratic, two_state
from hetflux.interface import InterfaceContext, germ_pair


@pytest.fixture(scope="session")
def pair_model():
    """Flux u^2/2 for x <= 0, u^2 for x > 0 (the worked two-flux example)."""
    return two_state(left_coefficient=0.5, right_coefficient=1.0, radius=0.5)


@pytest.fixture(scope="session")
def pair_ctx(pair_model):
    """Interface context (f_l = u^2/2, f_r = u^2) sampled outside the radius."""
    return InterfaceContext.from_model(pair_model, -1.0, 1.0)


@pytest.fixture(scope="session")
def hq_model():
    return heterogeneous_quadratic()


@pytest.fixture(scope="session")
def lwr_model():
    return lwr()


@pytest.fixture(scope="session")
def burgers_model():
    return quadratic(coefficient=0.5)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def germ_pairs():
    """germ_pair over many (level, class) draws, as a list of pairs in draw
    order; one vectorized branch solve per class instead of one per draw."""

    def build(ctx, levels, classes):
        levels = np.asarray(levels, dtype=float)
        classes = np.asarray(classes)
        k_l, k_r = np.empty_like(levels), np.empty_like(levels)
        for which in np.unique(classes):
            sel = classes == which
            k_l[sel], k_r[sel] = germ_pair(ctx, levels[sel], str(which))
        return list(zip(k_l.tolist(), k_r.tolist()))

    return build
