"""Tests for the weak-learner search: barrier, losses, SGD, restarts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensdistill.core import RngStream
from ensdistill.findwl import (
    _CLAMP_MARGIN,
    FindWlConfig,
    SgdConfig,
    barrier_loss,
    default_logit_bound,
    distill_loss,
    find_weak_learner,
    iplus_mask,
    lr_at_epoch,
    sgd_epoch,
    total_grad_fn,
)
from ensdistill.game import WeightState, edge, init_uniform
from ensdistill.nets import (NO_CONNECTION, LayerSpec, backward, expand_class, forward,
                             init_params)

from oracle_runs import barrier_grad


# --- barrier loss -----------------------------------------------------------

def test_barrier_zero_residual_zero_loss():
    l = np.zeros((3, 2))
    mask = np.ones((3, 2), dtype=bool)
    loss, clamps = barrier_loss(l, mask, b=1.0, barrier_gamma=1.0)
    assert loss == 0.0
    assert clamps == 0


def test_barrier_hand_values():
    mask = np.array([[True]])
    loss, _ = barrier_loss(np.array([[-1.0]]), mask, b=1.0, barrier_gamma=1.0)
    assert abs(loss - (-np.log(0.5))) < 1e-12
    loss, _ = barrier_loss(np.array([[1.0]]), mask, b=1.0, barrier_gamma=1.0)
    assert abs(loss - (-np.log(1.5))) < 1e-12
    assert loss < 0.0  # satisfying the condition is rewarded


def test_barrier_gamma_scales_loss():
    mask = np.array([[True]])
    base, _ = barrier_loss(np.array([[0.5]]), mask, b=1.0, barrier_gamma=1.0)
    scaled, _ = barrier_loss(np.array([[0.5]]), mask, b=1.0, barrier_gamma=4.0)
    assert abs(scaled - base / 4.0) < 1e-15


def test_barrier_clamp_counting():
    mask = np.array([[True, True, True]])
    b = 1.0
    l = np.array([[2 * b, -5.0, 2 * b * (1 - 1e-3)]])
    loss, clamps = barrier_loss(l, mask, b=b, barrier_gamma=1.0)
    assert clamps == 2                      # entries at/beyond the boundary
    assert np.isfinite(loss)               # clamped log stays defined


def test_barrier_rejects_bad_parameters():
    l = np.zeros((1, 1))
    mask = np.ones((1, 1), dtype=bool)
    with pytest.raises(ValueError):
        barrier_loss(l, mask, b=0.0, barrier_gamma=1.0)
    with pytest.raises(ValueError):
        barrier_loss(l, mask, b=1.0, barrier_gamma=0.0)


def test_barrier_grad_at_zero():
    on = np.array([[True]])
    off = np.array([[False]])
    zero = np.zeros((1, 1))
    assert abs(barrier_grad(zero, on, 1.0, 1.0)[0, 0] - (-0.5)) < 1e-15
    assert abs(barrier_grad(zero, off, 1.0, 1.0)[0, 0] - 0.5) < 1e-15


def test_barrier_grad_finite_difference():
    rng = RngStream(5)
    vals, rng = rng.uniform(24)
    l = (vals.reshape(6, 4) - 0.5) * 2.4      # inside (-1.2*B, 1.2*B), away from walls
    mvals, _ = rng.uniform(24)
    mask = mvals.reshape(6, 4) > 0.5
    b, gamma = 1.0, 0.7
    grad = barrier_grad(l, mask, b, gamma)
    h = 1e-6
    for i in range(6):
        for j in range(4):
            up = l.copy(); up[i, j] += h
            dn = l.copy(); dn[i, j] -= h
            fd = (barrier_loss(up, mask, b, gamma)[0] - barrier_loss(dn, mask, b, gamma)[0]) / (2 * h)
            assert abs(grad[i, j] - fd) / max(abs(fd), 1e-9) < 1e-6


def test_barrier_monotone_in_preferred_direction():
    # moving any entry the way its mask prefers strictly lowers the loss
    rng = RngStream(6)
    vals, rng = rng.uniform(10)
    l = (vals - 0.5).reshape(5, 2)
    mvals, _ = rng.uniform(10)
    mask = mvals.reshape(5, 2) > 0.5
    b, gamma = 1.0, 1.0
    before, _ = barrier_loss(l, mask, b, gamma)
    for i in range(5):
        for j in range(2):
            moved = l.copy()
            moved[i, j] += 0.1 if mask[i, j] else -0.1
            after, _ = barrier_loss(moved, mask, b, gamma)
            assert after < before


def test_iplus_mask_definition():
    state = WeightState(np.array([[0.3], [0.1]]), np.array([[0.2], [0.4]]))
    assert np.array_equal(iplus_mask(state), np.array([[True], [False]]))


def test_default_logit_bound():
    g = np.array([[2.0, -4.0], [1.0, 3.0]])
    assert default_logit_bound(g) == 6.0
    assert default_logit_bound(np.zeros((2, 2))) > 0.0


# --- distillation losses ----------------------------------------------------

def distill_grad(f, g):
    """The gradient of `distill_loss` alone, as `total_grad_fn` builds it
    without a barrier."""
    fn, targets = total_grad_fn(g)
    return fn(f, *targets)


def test_squared_error_zero_at_match():
    f, _ = RngStream(1).gaussian(12)
    f = f.reshape(4, 3)
    loss = distill_loss(f, f)
    grad = distill_grad(f, f)
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_squared_error_value_and_grad():
    f = np.array([[1.0, 0.0], [0.0, 2.0]])
    g = np.zeros((2, 2))
    loss = distill_loss(f, g)
    grad = distill_grad(f, g)
    assert abs(loss - 0.5 * 5.0 / 2) < 1e-15
    assert np.allclose(grad, f / 2, atol=1e-15)


def test_distill_grad_finite_difference():
    rng = RngStream(3)
    f, rng = rng.gaussian(256)
    g, _ = rng.gaussian(256)
    f = f.reshape(32, 8)
    g = g.reshape(32, 8)
    grad = distill_grad(f, g)
    h = 1e-5
    checked = 0
    for i in range(32):
        for j in range(8):
            up = f.copy(); up[i, j] += h
            dn = f.copy(); dn[i, j] -= h
            fd = (distill_loss(up, g) - distill_loss(dn, g)) / (2 * h)
            assert abs(grad[i, j] - fd) / max(abs(grad[i, j]), abs(fd), 1e-6) <= 1e-4
            checked += 1
    assert checked >= 200


# --- SGD --------------------------------------------------------------------

def _quadratic_problem(seed=0, n=32, d=4, labels=2):
    rng = RngStream(seed)
    x, rng = rng.gaussian(n * d)
    target, _ = rng.gaussian(n * labels)
    return x.reshape(n, d), target.reshape(n, labels)


def test_sgd_lr_zero_is_identity():
    x, target = _quadratic_problem()
    spec = [LayerSpec(4, 2, "linear")]
    params = init_params(spec, RngStream(1))
    before = [w.copy() for w in params.weights]

    grad_fn = total_grad_fn(target)

    cfg = SgdConfig(lr=0.0, momentum=0.0, weight_decay=0.0, epochs=1, batch_size=8)
    params, _, _ = sgd_epoch(params, x, grad_fn, cfg, RngStream(2), lr=0.0)
    for w, orig in zip(params.weights, before):
        assert np.array_equal(w, orig)


def test_sgd_convex_loss_non_increasing():
    x, target = _quadratic_problem()
    spec = [LayerSpec(4, 2, "linear")]
    params = init_params(spec, RngStream(3))

    grad_fn = total_grad_fn(target)

    cfg = SgdConfig(lr=0.05, momentum=0.0, weight_decay=0.0, epochs=50, batch_size=32)
    rng = RngStream(4)
    losses = []
    state = None
    for epoch in range(cfg.epochs):
        logits, _ = forward(params, x)
        losses.append(distill_loss(logits, target))
        params, state, rng = sgd_epoch(params, x, grad_fn, cfg, rng, lr=cfg.lr, state=state)
    logits, _ = forward(params, x)
    losses.append(distill_loss(logits, target))
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]


def test_sgd_full_batch_equals_plain_gradient_step():
    x, target = _quadratic_problem(seed=7)
    spec = [LayerSpec(4, 2, "linear")]
    params = init_params(spec, RngStream(8))
    w0 = params.weights[0].copy()
    b0 = params.biases[0].copy()

    grad_fn = total_grad_fn(target)

    lr = 0.1
    cfg = SgdConfig(lr=lr, momentum=0.0, weight_decay=0.0, epochs=1, batch_size=32)
    stepped, _, _ = sgd_epoch(params, x, grad_fn, cfg, RngStream(9), lr=lr)

    ref = init_params(spec, RngStream(8))
    logits, acts = forward(ref, x)
    dlogits = grad_fn[0](logits, target)
    dw, db = backward(ref, x, acts, dlogits)
    assert np.allclose(stepped.weights[0], w0 - lr * dw[0], atol=1e-12)
    assert np.allclose(stepped.biases[0], b0 - lr * db[0], atol=1e-12)


def test_lr_schedule_drops():
    cfg = SgdConfig(lr=1.0, epochs=10, lr_drops=(0.3, 0.6, 0.9), lr_factor=0.2)
    lrs = [lr_at_epoch(e, cfg) for e in range(10)]
    assert lrs[0] == 1.0
    assert abs(lrs[3] - 0.2) < 1e-15
    assert abs(lrs[6] - 0.04) < 1e-15
    assert abs(lrs[9] - 0.008) < 1e-15


# --- total objective --------------------------------------------------------

def test_total_loss_is_distill_plus_barrier():
    rng = RngStream(10)
    g, rng = rng.gaussian(20)
    g = g.reshape(10, 2)
    logits, rng = rng.gaussian(20)
    logits = logits.reshape(10, 2)
    mvals, _ = rng.uniform(20)
    mask = mvals.reshape(10, 2) > 0.5
    cfg = FindWlConfig(barrier_gamma=2.0)
    b = default_logit_bound(g)
    fn, targets = total_grad_fn(g, mask, cfg, b)
    grad = fn(logits, *targets)
    dlg = (logits - g) / len(g)
    bg = barrier_grad(logits - g, mask, b, 2.0)
    assert same_bits(grad, dlg + bg)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def grad_cases(draw):
    """Teacher logits, a mask or none, and student logits whose residuals
    lie inside the barrier's clamp 2B(1 - 1e-6), at it (to the rounding of
    f = g + r) or beyond it, on either side; for one net, or gathered for a
    stack of 2-3 as an epoch gathers its rows, one permutation per slice."""
    rows, labels = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    root = RngStream(draw(st.integers(0, 2 ** 32 - 1)))
    g, _ = root.split(0).gaussian(rows * labels)
    g = draw(st.floats(0.1, 10.0)) * g.reshape(rows, labels)
    m, _ = root.split(1).uniform(rows * labels)
    mask = m.reshape(rows, labels) > 0.5 if draw(st.booleans()) else None
    cfg = FindWlConfig(barrier_gamma=draw(st.floats(0.05, 5.0)))
    b = default_logit_bound(g)
    slices = draw(st.sampled_from((0, 2, 3)))   # 0: one net
    perm = np.arange(rows)
    if slices:
        perm = np.stack([RngStream(s).permutation(rows)[0] for s in range(slices)])
    shape = perm.shape + (labels,)
    size = int(np.prod(shape))
    u, _ = root.split(2).uniform(size)
    limit = 2.0 * b * (1.0 - _CLAMP_MARGIN)
    # per entry: inside the clamp, exactly at it, or up to twice it away
    where = np.array(draw(st.lists(st.integers(0, 2), min_size=size, max_size=size)))
    magnitude = np.choose(where, [u * limit, np.full(size, limit), (1.0 + u) * limit])
    sign = np.where(draw(st.lists(st.booleans(), min_size=size, max_size=size)), 1.0, -1.0)
    resid = (sign * magnitude).reshape(shape)
    g_rows = g.take(perm, axis=0)
    return g, mask, cfg, b, perm, g_rows + resid, g_rows


@settings(max_examples=300, deadline=None)
@given(grad_cases())
def test_fused_gradient_has_the_bits_of_distill_plus_barrier(case):
    g, mask, cfg, b, perm, logits, g_rows = case
    fn, targets = total_grad_fn(g, mask, cfg, b)
    rows = [t.take(perm, axis=0) for t in targets]
    want = (logits - g_rows) / logits.shape[-2]
    if mask is not None:
        want = want + barrier_grad(logits - g_rows, mask.take(perm, axis=0), b,
                                   cfg.barrier_gamma)
    assert same_bits(fn(logits, *rows), want)
    # a step's call: the gradient into its buffer, the logits as scratch
    out = np.empty_like(logits)
    assert fn(logits.copy(), *rows, out=out) is out
    assert same_bits(out, want)


# --- find_weak_learner ------------------------------------------------------

def _biased_state(n, labels, hi=0.8):
    """Non-degenerate state whose mask prefers positive residuals everywhere."""
    kplus = np.full((n, labels), hi / n)
    kminus = np.full((n, labels), (1.0 - hi) / n)
    state = WeightState(kplus, kminus)
    state.validate()
    return state


def test_find_degenerate_returns_best_candidate():
    rng = RngStream(20)
    x, rng = rng.gaussian(64)
    x = x.reshape(16, 4)
    g, _ = rng.gaussian(32)
    g = g.reshape(16, 2)
    state = init_uniform(16, 2)
    cfg = FindWlConfig(max_search=2,
                       sgd=SgdConfig(lr=0.05, epochs=10, batch_size=16, weight_decay=0.0))
    result = find_weak_learner(state, [LayerSpec(4, 2, "linear")], NO_CONNECTION,
                               x, g, cfg, RngStream(21))
    assert result.verdict == "degenerate"
    assert result.params is not None
    assert result.restart_index >= 0


def test_find_realizable_setup_passes():
    # constant positive displacement is representable by a bias-capable linear
    # class, and the mask asks for it on every entry
    rng = RngStream(22)
    x, rng = rng.gaussian(128)
    x = x.reshape(32, 4)
    g, _ = rng.gaussian(64)
    g = g.reshape(32, 2)
    state = _biased_state(32, 2)
    cfg = FindWlConfig(barrier_gamma=10.0, max_search=5,
                       sgd=SgdConfig(lr=0.05, momentum=0.9, weight_decay=0.0,
                                     epochs=50, batch_size=32))
    result = find_weak_learner(state, [LayerSpec(4, 2, "linear")], NO_CONNECTION,
                               x, g, cfg, RngStream(23))
    assert result.verdict == "pass"
    logits, _ = forward(result.params, x)
    assert edge(state, logits - g).min() > 0.0


def test_find_diverging_candidates_are_skipped_not_fatal():
    # an absurd lr doubles the logit exponent every epoch until the forward
    # pass goes non-finite; every restart must be spent, none may raise
    x = np.full((4, 1), 1e3)
    g = np.zeros((4, 1))
    state = _biased_state(4, 1)
    cfg = FindWlConfig(barrier_gamma=1.0, max_search=3,
                       sgd=SgdConfig(lr=1e9, momentum=0.0, weight_decay=0.0,
                                     epochs=60, batch_size=4))
    result = find_weak_learner(state, [LayerSpec(1, 1, "linear")], NO_CONNECTION,
                               x, g, cfg, RngStream(6))
    assert result.params is None
    assert result.verdict == "none"
    assert result.restart_index == -1


def test_find_zero_class_returns_none():
    # x = 0 and zero-initialized biases with lr=0 make every candidate the zero
    # function; the state requires positive correlation with -g and g > 0
    x = np.zeros((8, 3))
    g = np.ones((8, 1))
    state = _biased_state(8, 1)
    cfg = FindWlConfig(max_search=3,
                       sgd=SgdConfig(lr=0.0, momentum=0.0, weight_decay=0.0,
                                     epochs=1, batch_size=8))
    result = find_weak_learner(state, [LayerSpec(3, 1, "linear")], NO_CONNECTION,
                               x, g, cfg, RngStream(24))
    assert result.verdict == "none"
    assert result.params is None
    assert result.restart_index == -1


# a degenerate round returns its best candidate, so every class here returns
# one; 2500 rows are two row blocks of `nets.split_head`
@pytest.mark.parametrize("kind", ["none", "residual_add", "dense_concat", "delta"])
def test_find_result_holds_the_logits_of_its_params(kind):
    root = RngStream(31)
    u, _ = root.split(0).uniform(2500 * 32)
    x = 2.0 * u.reshape(2500, 32) - 1.0
    g, _ = root.split(1).gaussian(2500 * 2)
    g = g.reshape(2500, 2)
    base = [LayerSpec(32, 24), LayerSpec(24, 24), LayerSpec(24, 2, "linear")]
    source = init_params(base, root.split(2))
    spec, connection = expand_class(base, kind, 1, [source])
    tap = forward(source, x)[1][-2] if kind != "none" else None
    cfg = FindWlConfig(max_search=2,
                       sgd=SgdConfig(lr=0.005, epochs=1, batch_size=256))
    result = find_weak_learner(init_uniform(2500, 2), spec, connection, x, g, cfg,
                               RngStream(32), tap=tap)
    assert result.verdict == "degenerate"
    want = forward(result.params, x, tap)[0]
    assert result.logits.tobytes() == want.tobytes()
