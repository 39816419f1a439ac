"""Tests for the distribution player: weights, edge, updates, closed-form replay."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracle_runs import recompute_from_history

from ensdistill.core import RngStream
from ensdistill.game import (
    CHECK_DEGENERATE,
    CHECK_FAIL,
    CHECK_PASS,
    WeightState,
    edge,
    init_uniform,
    md_update,
    normalizer_inequality_ok,
    weak_learning_check,
)


def _random_state(rng, n, labels):
    """A valid, generally non-degenerate weight state."""
    kp, rng = rng.uniform(n * labels)
    km, rng = rng.uniform(n * labels)
    kp = kp.reshape(n, labels)
    km = km.reshape(n, labels)
    z = (kp + km).sum(axis=0)
    state = WeightState(kp / z, km / z)
    state.validate()
    return state, rng


# --- init -------------------------------------------------------------------

def test_init_single_sample():
    state = init_uniform(1, 1)
    assert np.array_equal(state.kplus, [[0.5]])
    assert np.array_equal(state.kminus, [[0.5]])


def test_init_n4():
    state = init_uniform(4, 2)
    assert np.all(state.kplus == 0.125)
    assert np.all(state.kminus == 0.125)
    assert np.allclose((state.kplus + state.kminus).sum(axis=0), 1.0)


def test_init_invariants_hold():
    for n, labels in ((1, 1), (7, 3), (100, 1)):
        init_uniform(n, labels).validate()


def test_init_rejects_bad_sizes():
    with pytest.raises(ValueError):
        init_uniform(0, 1)
    with pytest.raises(ValueError):
        init_uniform(1, 0)


# --- edge -------------------------------------------------------------------

def test_edge_uniform_state_is_zero():
    state = init_uniform(5, 2)
    l, _ = RngStream(1).gaussian(10)
    assert np.allclose(edge(state, l.reshape(5, 2)), 0.0, atol=1e-15)


def test_edge_hand_example():
    state = WeightState(np.array([[0.5], [0.5]]), np.array([[0.0], [0.0]]))
    gamma = edge(state, np.array([[0.2], [-0.1]]))
    assert gamma.shape == (1,)
    assert abs(gamma[0] - 0.05) < 1e-15


def test_edge_zero_residual():
    state, _ = _random_state(RngStream(2), 6, 2)
    assert np.all(edge(state, np.zeros((6, 2))) == 0.0)


# --- weak-learning check ----------------------------------------------------

def test_check_degenerate_at_uniform_init():
    state = init_uniform(8, 2)
    l, _ = RngStream(3).gaussian(16)
    assert weak_learning_check(state, l.reshape(8, 2)) == CHECK_DEGENERATE


def test_check_pass_and_fail_from_edge_example():
    state = WeightState(np.array([[0.5], [0.5]]), np.array([[0.0], [0.0]]))
    l = np.array([[0.2], [-0.1]])
    assert weak_learning_check(state, l) == CHECK_PASS
    assert weak_learning_check(state, -l) == CHECK_FAIL


def test_check_exact_zero_edge_is_fail():
    state = WeightState(np.array([[0.5], [0.5]]), np.array([[0.0], [0.0]]))
    assert weak_learning_check(state, np.zeros((2, 1))) == CHECK_FAIL


def test_check_mirrors_min_edge_rule():
    # pass <=> min_j gamma(j) > edge_tol, over many random pairs
    rng = RngStream(99)
    edge_tol = 0.0
    passes = 0
    for trial in range(1000):
        child = rng.split(trial)
        state, child = _random_state(child, 6, 3)
        l, child = child.gaussian(18)
        l = l.reshape(6, 3)
        verdict = weak_learning_check(state, l, edge_tol)
        expected = CHECK_PASS if edge(state, l).min() > edge_tol else CHECK_FAIL
        assert verdict == expected
        passes += verdict == CHECK_PASS
    assert 0 < passes < 1000  # both branches exercised


# --- md_update --------------------------------------------------------------

def test_md_update_zero_residual_is_identity():
    state = init_uniform(4, 2)
    new, record = md_update(state, np.zeros((4, 2)), eta=1.0)
    assert np.array_equal(new.kplus, state.kplus)
    assert np.array_equal(new.kminus, state.kminus)
    assert np.allclose(record.z, 1.0, atol=1e-15)
    assert np.all(record.edge_gamma == 0.0)


def test_md_update_worked_example():
    # N=2, uniform start, l=[ln 2, 0], eta=1:
    # unnormalized k+ = [0.125, 0.25], k- = [0.5, 0.25], z = 1.125
    state = init_uniform(2, 1)
    l = np.array([[np.log(2.0)], [0.0]])
    new, record = md_update(state, l, eta=1.0)
    assert abs(record.z[0] - 1.125) < 1e-15
    assert np.allclose(new.kplus[:, 0], [1 / 9, 2 / 9], atol=1e-15)
    assert np.allclose(new.kminus[:, 0], [4 / 9, 2 / 9], atol=1e-15)


def test_md_update_keeps_invariants_on_random_input():
    rng = RngStream(7)
    state = init_uniform(12, 3)
    for step in range(20):
        l, rng = rng.gaussian(36)
        state, _ = md_update(state, l.reshape(12, 3), eta=0.3)
        sums = (state.kplus + state.kminus).sum(axis=0)
        assert np.all(np.abs(sums - 1.0) <= 1e-12)
        assert state.kplus.min() >= 0.0 and state.kplus.max() <= 1.0
        assert state.kminus.min() >= 0.0 and state.kminus.max() <= 1.0


def test_md_update_overflow_guard():
    state = init_uniform(2, 1)
    with pytest.raises(FloatingPointError):
        md_update(state, np.array([[800.0], [0.0]]), eta=1.0)


def test_md_update_requires_positive_eta():
    state = init_uniform(2, 1)
    with pytest.raises(ValueError):
        md_update(state, np.zeros((2, 1)), eta=0.0)


# --- recompute_from_history -------------------------------------------------

def test_recompute_single_step_matches_update():
    state = init_uniform(5, 2)
    l, _ = RngStream(4).gaussian(10)
    l = l.reshape(5, 2)
    stepped, _ = md_update(state, l, eta=0.7)
    closed = recompute_from_history(state, [l], [0.7])
    assert np.allclose(closed.kplus, stepped.kplus, atol=1e-12)
    assert np.allclose(closed.kminus, stepped.kminus, atol=1e-12)


def test_recompute_ten_steps_matches_iteration():
    rng = RngStream(8)
    initial = init_uniform(8, 3)
    state = initial
    residuals, etas = [], []
    for step in range(10):
        l, rng = rng.gaussian(24)
        l = l.reshape(8, 3)
        state, _ = md_update(state, l, eta=0.5)
        residuals.append(l)
        etas.append(0.5)
    closed = recompute_from_history(initial, residuals, etas)
    assert np.max(np.abs(closed.kplus - state.kplus)) <= 1e-9
    assert np.max(np.abs(closed.kminus - state.kminus)) <= 1e-9


def test_recompute_zero_history_returns_initial():
    initial = init_uniform(6, 2)
    closed = recompute_from_history(initial, [np.zeros((6, 2))] * 3, [1.0] * 3)
    assert np.allclose(closed.kplus, initial.kplus, atol=1e-15)
    assert np.allclose(closed.kminus, initial.kminus, atol=1e-15)


@st.composite
def bounded_histories(draw):
    """n x L residual histories of T rounds under the theorem's premise
    eta * max|l| <= 1, with each round's eta drawn on its own."""
    n, n_labels = draw(st.integers(1, 30)), draw(st.integers(1, 4))
    residuals, etas = [], []
    for _ in range(draw(st.integers(1, 20))):
        eta = draw(st.floats(1e-3, 1e3))
        bound = 1.0 / eta
        residuals.append(draw(arrays(np.float64, (n, n_labels),
                                     elements=st.floats(-bound, bound))))
        etas.append(eta)
    return n, n_labels, residuals, etas


@settings(max_examples=100, deadline=None)
@given(bounded_histories())
def test_every_update_keeps_the_simplex_and_matches_the_replay(history):
    n, n_labels, residuals, etas = history
    initial = init_uniform(n, n_labels)
    state = initial
    for t, (l, eta) in enumerate(zip(residuals, etas), start=1):
        state, _ = md_update(state, l, eta)
        sums = (state.kplus + state.kminus).sum(axis=0)
        assert np.max(np.abs(sums - 1.0)) <= 1e-9
        for k in (state.kplus, state.kminus):
            assert k.min() >= 0.0 and k.max() <= 1.0
        closed = recompute_from_history(initial, residuals[:t], etas[:t])
        assert np.max(np.abs(closed.kplus - state.kplus)) <= 1e-9
        assert np.max(np.abs(closed.kminus - state.kminus)) <= 1e-9


# --- normalizer inequality --------------------------------------------------

def test_normalizer_inequality_on_random_runs():
    # log z(j) <= -eta*gamma(j) + eta^2 * G^2 whenever eta*G <= 1
    rng = RngStream(31)
    for trial in range(20):
        child = rng.split(trial)
        state = init_uniform(10, 2)
        l, child = child.gaussian(20)
        l = l.reshape(10, 2)
        g_inf = np.abs(l).max()
        eta = 0.9 / g_inf
        state, record = md_update(state, l, eta)
        assert normalizer_inequality_ok(record.edge_gamma, record.z, eta, g_inf)
        assert np.all(np.log(record.z) <= -eta * record.edge_gamma + eta**2 * g_inf**2 + 1e-12)
