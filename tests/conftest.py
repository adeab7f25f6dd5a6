"""Shared fixtures: the canonical two-flux interface and the built-in models,
plus RecordStates, a run observer for tests that need a whole trajectory, and
ReferenceEntropyCheck, the entropy slack written over fresh temporaries."""

import numpy as np
import pytest

from hetflux.diagnostics import EntropyCheck
from hetflux.families import heterogeneous_quadratic, lwr, quadratic, two_state
from hetflux.interface import InterfaceContext, germ_pair


class RecordStates:
    """Run observer keeping every step as (u, u_new, dt), by reference.

    run() never modifies the arrays it hands to observers, so no copies are
    needed. Memory grows with the step count: test use only.
    """

    def start(self, scheme, envelope, u0):
        self.u0 = u0
        self.steps = []

    def step(self, u, u_new, dt):
        self.steps.append((u, u_new, dt))

    @property
    def states(self):
        """Initial state, then the state after every step."""
        return [self.u0] + [u_new for _, u_new, _ in self.steps]


class ReferenceEntropyCheck(EntropyCheck):
    """EntropyCheck with the slack of a step as one expression over fresh
    (K, N) temporaries, located by argmax over the whole array. EntropyCheck
    evaluates the same operations in the same order in preallocated buffers,
    so both must agree bit for bit."""

    def step(self, u, u_new, dt):
        kcol, kl, kr = self._ks[:, None], self._kl, self._kr
        a, b = self._scheme.edge_sides(u)
        phi = (np.maximum(np.maximum(a, kl), np.minimum(b, kr))
               - np.maximum(np.minimum(a, kl), np.maximum(b, kr)))
        du1 = u_new[None, :] - kcol
        slack = (
            (np.abs(du1) - np.abs(u[None, :] - kcol)) * self._scheme.mesh.dx
            + (phi[:, 1:] - phi[:, :-1]) * dt
            + np.sign(du1) * self._d_kk * dt
        )
        self._max_slack = np.maximum(self._max_slack, slack.max(axis=1))
        ik, jc = np.unravel_index(int(np.argmax(slack)), slack.shape)
        if slack[ik, jc] > self._worst[0]:
            self._worst = (float(slack[ik, jc]), int(ik), self._n_steps, int(jc))
        self._n_steps += 1


def assert_same_entropy_report(got, want):
    """Equal bit for bit, a NaN slack matching a NaN slack."""
    for name in ("k_values", "max_slack_per_k"):
        g, w = getattr(got, name), getattr(want, name)
        assert np.array_equal(g, w, equal_nan=True), name
        assert g[~np.isnan(g)].tobytes() == w[~np.isnan(w)].tobytes(), name
    fields = ("worst_slack", "worst_k", "worst_step", "worst_cell", "n_steps")
    assert [repr(getattr(got, f)) for f in fields] == [repr(getattr(want, f)) for f in fields]


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
