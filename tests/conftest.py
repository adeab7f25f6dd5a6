"""Shared fixtures: the canonical two-flux interface and the built-in models,
plus RecordStates, a run observer for tests that need a whole trajectory,
cosh_model, a custom flux given by callables only, mirror, the reflected
model, unfrozen_side, a FluxSide through h, solve_calls, a count of root
solves, and references written over fresh temporaries: reference_edge_sides
and reference_step for the Scheme's step kernel, ReferenceEntropyCheck for
the entropy slack."""

import dataclasses
import sys

import numpy as np
import pytest

from hetflux import rootfind

from hetflux.diagnostics import EntropyCheck
from hetflux.families import heterogeneous_quadratic, lwr, quadratic, two_state
from hetflux.flux_model import FluxModel, critical_point, frozen_flux
from hetflux.interface import FluxSide, InterfaceContext, germ_pair


class RecordStates:
    """Run observer keeping every step as (u, u_new, dt), by reference.

    run() never modifies the arrays it hands to observers, so no copies are
    needed. Memory grows with the step count: test use only.
    """

    def start(self, scheme, certified, u0):
        self.u0 = u0
        self.steps = []

    def step(self, u, u_new, dt):
        self.steps.append((u, u_new, dt))

    @property
    def states(self):
        """Initial state, then the state after every step."""
        return [self.u0] + [u_new for _, u_new, _ in self.steps]


def reference_edge_sides(scheme, u):
    """Scheme.edge_sides as one allocating expression over ghost-extended u,
    with the left and right cell fluxes frozen apart from the Scheme's table."""
    u = np.asarray(u, dtype=float)
    u_ext = np.concatenate((u[..., :1], u, u[..., -1:]), axis=-1)
    h_left, h_right = (frozen_flux(scheme.model, xc)
                       for xc in (scheme.xc_ext[:-1], scheme.xc_ext[1:]))
    return (h_left(np.maximum(u_ext[..., :-1], scheme.al_ext[:-1])),
            h_right(np.minimum(scheme.al_ext[1:], u_ext[..., 1:])))


def reference_step(scheme, u, dt):
    """Scheme.step_arrays over fresh temporaries, without its guards. The
    Scheme evaluates the same operations in the same order in its buffers,
    so both must agree bit for bit."""
    F = np.maximum(*reference_edge_sides(scheme, u))
    lam = dt / scheme.mesh.dx
    return u - lam * np.diff(F), float(F[0]), float(F[-1])


class ReferenceEntropyCheck(EntropyCheck):
    """EntropyCheck with the slack of a step as one expression over fresh
    (K, N) temporaries at every cell, the levels in the caller's order,
    located by argmax over the whole array. EntropyCheck evaluates the same
    operations in the same order in preallocated buffers, so both must
    agree bit for bit."""

    def start(self, scheme, certified, u0):
        super().start(scheme, certified, u0)
        ks = self._ks
        shape = (ks.size, scheme.mesh.n_cells)  # (K, N), whatever EntropyCheck's layout
        k_sides = reference_edge_sides(scheme, np.broadcast_to(ks[:, None], shape))
        self._kl, self._kr = k_sides
        self._d_kk = np.diff(np.maximum(*k_sides))

    def step(self, u, u_new, dt):
        kcol, kl, kr = self._ks[:, None], self._kl, self._kr
        a, b = reference_edge_sides(self._scheme, u)
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


def cosh_model():
    """(1.5 + tanh(x) / 2)(cosh u - 1) with x clipped to [-X, X], X = 2.95: a
    custom flux given by callables only, which varies at every cell of a
    mesh of [-3, 3] but the one at each end."""
    X = 2.95
    a = lambda x: 1.5 + 0.5 * np.tanh(np.clip(x, -X, X))
    return FluxModel(
        h=lambda x, u: a(x) * (np.cosh(u) - 1.0),
        du_h=lambda x, u: a(x) * np.sinh(u),
        dx_h=lambda x, u: np.where(np.abs(x) < X, 0.5 / np.cosh(x) ** 2, 0.0) * (np.cosh(u) - 1.0),
        hetero_radius=X,
    )


def mirror(model):
    """The reflected model G(x, w) = H(-x, -w), given by callables only
    (freeze=None): w(t, x) = -u(t, -x) solves w_t + G(x, w)_x = 0 when u
    solves the law of H. G is convex in w, again heterogeneous only on
    [-X, X], and its critical curve is -alpha(-x)."""
    h, du_h, dx_h = model.h, model.du_h, model.dx_h
    neg = np.negative
    return dataclasses.replace(
        model,
        h=lambda x, w: h(neg(x), neg(w)),
        du_h=lambda x, w: neg(du_h(neg(x), neg(w))),
        dx_h=lambda x, w: neg(dx_h(neg(x), neg(w))),
        freeze=None,
        name=f"mirror({model.name})",
    )


@pytest.fixture(scope="session")
def pair_model():
    """Flux u^2/2 for x <= 0, u^2 for x > 0 (the worked two-flux example)."""
    return two_state(left_coefficient=0.5, right_coefficient=1.0, radius=0.5)


def unfrozen_side(model, x):
    """The flux H(x, .) at the positions x through h and du_h, frozen
    without the model's freeze hook (FluxSide.from_model uses it), so its
    inverses are root solves: an oracle independent of the hook."""
    x = np.asarray(x, dtype=float)
    a = critical_point(model, x)
    f = frozen_flux(dataclasses.replace(model, freeze=None), x)
    return FluxSide(f=f, df=f.du, alpha=a, fmin=f(a)[()])


@pytest.fixture()
def solve_calls(monkeypatch):
    """A list that grows by one at each call of rootfind.solve_increasing,
    wherever a hetflux module imported it."""
    calls, solve = [], rootfind.solve_increasing

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("hetflux") and getattr(module, "solve_increasing", None) is solve:
            monkeypatch.setattr(module, "solve_increasing", counted)
    return calls


@pytest.fixture(scope="session")
def pair_ctx(pair_model):
    """Interface context (f_l = u^2/2, f_r = u^2) sampled outside the radius,
    built from h: the exact solutions the scheme is measured against do not
    share its freeze hook."""
    return InterfaceContext(unfrozen_side(pair_model, -1.0), unfrozen_side(pair_model, 1.0))


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
