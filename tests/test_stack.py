"""Restarts trained as one stack against restarts trained one at a time.

The weak-learner search trains its restarts as a stack: weights of shape
(S, in, out), one permutation per slice, one SGD loop.  The reference here is
the unstacked path through the same `sgd_epoch`, `forward` and `backward`:
every slice of a stack must hold the bits its restart gets when trained
alone, a slice that diverges, at its first step or its last, must be dropped
without touching the others, and the search must return what the
restart-by-restart loop did.

`sgd_epoch` updates one flat buffer per step and gathers each minibatch's
rows at its step, from one contiguous copy of `x` made on the first epoch;
`per_array_sgd_epoch` below keeps the update it replaced, one array at a
time on rows indexed per step, as the reference its weights must equal bit
for bit, on a contiguous `x` and on the strided records view the pipeline
loads.  Neither the epoch nor the in-place forward pass may write the
arrays it reads.  The first epoch holds one copy of `x`'s rows, whatever the
stack's size, and one set of permutations; an epoch after the first, which
reuses the state the first one built, allocates no copy of its rows; and a
state is refused with an `x` other than the one it was built for.
"""

import itertools
import multiprocessing
import os
import signal
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ensdistill.findwl as findwl
from ensdistill.core import RngStream
from ensdistill.data import _dataset_record
from ensdistill.findwl import (FindResult, FindWlConfig, SgdConfig,
                               barrier_loss, distill_loss, find_weak_learner, iplus_mask,
                               logit_bound, lr_at_epoch, total_grad_fn)
from ensdistill.game import CHECK_DEGENERATE, CHECK_FAIL, CHECK_PASS, WeightState, init_uniform
from ensdistill.nets import (CONNECTION_KINDS, NO_CONNECTION, ConnectionSpec, LayerSpec,
                             LearnerParams, backward, forward)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def solo_candidate(spec, connection, x, tap, grad_fn, sgd_cfg, rng):
    """One restart trained without a stack axis, as the search did before
    stacking; a diverging candidate raises FloatingPointError."""
    params = findwl.init_params(spec, rng.split(0), connection)
    sgd_rng = rng.split(1)
    state = None
    for epoch in range(sgd_cfg.epochs):
        params, state, sgd_rng = findwl.sgd_epoch(
            params, x, grad_fn, sgd_cfg, sgd_rng,
            lr=lr_at_epoch(epoch, sgd_cfg), state=state, tap=tap)
    return params


def loop_reference(state, spec, connection, x, g_logits, cfg, rng, tap=None, edge_tol=0.0):
    """The search before stacking: restarts trained and checked one at a time.
    The first that passes wins; in a degenerate round, the first of lowest
    distillation loss."""
    b = logit_bound(g_logits)
    degenerate = np.array_equal(state.kplus, state.kminus)
    mask = iplus_mask(state)
    grad_fn = total_grad_fn(g_logits, None if degenerate else mask, cfg, b)
    best = lowest = None
    for restart in range(cfg.max_search):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                params = solo_candidate(spec, connection, x, tap, grad_fn, cfg.sgd,
                                        rng.split(restart))
                logits, _ = forward(params, x, tap)
        except FloatingPointError:
            continue
        resid = logits - g_logits
        clamps = barrier_loss(resid, mask, b, cfg.barrier_gamma)[1]
        verdict = findwl.weak_learning_check(state, resid, edge_tol)
        if verdict == CHECK_PASS:
            return FindResult(params, CHECK_PASS, clamps, restart, logits)
        if verdict == CHECK_DEGENERATE:
            loss = distill_loss(logits, g_logits)
            if best is None or loss < lowest:
                best, lowest = FindResult(params, verdict, clamps, restart, logits), loss
    return best or FindResult(None)


def assert_same_net(got, want):
    assert len(got.weights) == len(want.weights)
    for a, b in zip(got.weights + got.biases, want.weights + want.biases):
        assert same_bits(a, b)


def assert_same_result(got, want):
    assert (got.verdict, got.restart_index, got.clamp_count) == \
        (want.verdict, want.restart_index, want.clamp_count)
    assert (got.params is None) == (want.params is None)
    if got.params is not None:
        assert_same_net(got.params, want.params)
        assert same_bits(got.logits, want.logits)


@st.composite
def stack_cases(draw):
    """A 1-3 layer class with any connection kind, data whose row count the
    batch size does not divide, a degenerate or barrier objective, and 1-4
    restart streams."""
    d = draw(st.integers(1, 4))
    n_labels = draw(st.integers(1, 3))
    batch = draw(st.integers(2, 6))
    n_rows = batch * draw(st.integers(1, 3)) + draw(st.integers(1, batch - 1))
    root = RngStream(draw(st.integers(0, 2 ** 32 - 1)))
    u, _ = root.split(0).uniform(n_rows * d)
    x = 2.0 * u.reshape(n_rows, d) - 1.0
    dims = [d] + draw(st.lists(st.integers(1, 5), min_size=0, max_size=2)) + [n_labels]
    activations = [draw(st.sampled_from(("relu", "linear"))) for _ in dims[2:]] + ["linear"]
    spec = [LayerSpec(dims[i], dims[i + 1], activations[i]) for i in range(len(dims) - 1)]
    kind = draw(st.sampled_from(CONNECTION_KINDS))
    connection, tap = NO_CONNECTION, None
    if kind != "none":
        # joined with the output layer's input
        width = dims[-2] if kind != "dense_concat" else draw(st.integers(1, 5))
        t, _ = root.split(1).gaussian(n_rows * width)
        tap = np.maximum(t.reshape(n_rows, width), 0.0)   # a ReLU layer's output
        connection = ConnectionSpec(kind, 0)
        if kind == "dense_concat":
            spec[-1] = replace(spec[-1], in_dim=spec[-1].in_dim + width)
    g, _ = root.split(2).gaussian(n_rows * n_labels)
    g = g.reshape(n_rows, n_labels)
    mask = None
    if not draw(st.booleans()):   # a barrier toward a random mask
        m, _ = root.split(3).uniform(n_rows * n_labels)
        mask = m.reshape(n_rows, n_labels) > 0.5
    cfg = FindWlConfig(barrier_gamma=1.0,
                       sgd=SgdConfig(lr=0.05, epochs=draw(st.integers(1, 3)),
                                     batch_size=batch))
    grad_fn = total_grad_fn(g, mask, cfg, logit_bound(g))
    rngs = [root.split(10 + s) for s in range(draw(st.integers(1, 4)))]
    return spec, connection, x, tap, grad_fn, cfg.sgd, rngs


@settings(max_examples=120, deadline=None)
@given(stack_cases())
def test_stacked_restarts_equal_solo_restarts(case):
    spec, connection, x, tap, grad_fn, sgd_cfg, rngs = case
    solo = []
    with np.errstate(over="ignore", invalid="ignore"):
        trained = list(findwl._train_stack(spec, connection, x, tap, grad_fn, sgd_cfg, rngs))
        for pos, rng in enumerate(rngs):
            try:
                params = solo_candidate(spec, connection, x, tap, grad_fn, sgd_cfg, rng)
                solo.append((pos, params, forward(params, x, tap)[0]))
            except FloatingPointError:
                pass
    assume(solo)   # a step size that diverges everywhere compares nothing
    assert [pos for pos, _, _ in trained] == [pos for pos, _, _ in solo]
    for (_, got, got_logits), (_, want, want_logits) in zip(trained, solo):
        assert_same_net(got, want)
        assert same_bits(got_logits, want_logits)


def _blow_up(restart_rng):
    """`findwl.init_params` with the weights of the restart drawn from
    `restart_rng` scaled until its logits overflow."""
    original = findwl.init_params

    def init(spec, rng, connection=NO_CONNECTION):
        params = original(spec, rng, connection)
        if rng == restart_rng.split(0):
            params.weights = [w * 1e200 for w in params.weights]
        return params
    return init


def _search_problem():
    rng = RngStream(70)
    x, rng = rng.gaussian(24 * 3)
    g, _ = rng.gaussian(24 * 2)
    spec = [LayerSpec(3, 6), LayerSpec(6, 2, "linear")]
    cfg = FindWlConfig(barrier_gamma=2.0, max_search=4,
                       sgd=SgdConfig(lr=0.02, epochs=4, batch_size=5))
    return spec, x.reshape(24, 3), 3.0 * g.reshape(24, 2), cfg


def test_a_diverging_slice_leaves_only_its_restart(monkeypatch):
    spec, x, g, cfg = _search_problem()
    root = RngStream(71)
    rngs = [root.split(restart) for restart in range(4)]
    monkeypatch.setattr(findwl, "init_params", _blow_up(rngs[2]))
    grad_fn = total_grad_fn(g, None, cfg, logit_bound(g))
    with np.errstate(over="ignore", invalid="ignore"):
        trained = list(findwl._train_stack(spec, NO_CONNECTION, x, None, grad_fn, cfg.sgd,
                                           rngs))
        with pytest.raises(FloatingPointError):
            solo_candidate(spec, NO_CONNECTION, x, None, grad_fn, cfg.sgd, rngs[2])
    assert [pos for pos, _, _ in trained] == [0, 1, 3]
    for pos, params, _ in trained:
        assert_same_net(params, solo_candidate(spec, NO_CONNECTION, x, None, grad_fn,
                                               cfg.sgd, rngs[pos]))


def _poison_bias_grad(step, where):
    """`findwl.backward` with the output-bias gradient at `where` set to inf
    on call `step` (0-based) and left alone on every other call."""
    original = findwl.backward
    calls = itertools.count()

    def backward(*args):
        dW, db = original(*args)
        if next(calls) == step:
            db[-1][where] = np.inf
        return dW, db
    return backward


# 24 rows at batch 5 make 5 steps an epoch, 20 in all: step 19 is the last,
# after which only the final forward pass sees the slice
@pytest.mark.parametrize("step", [0, 7, 19])
def test_a_slice_diverging_mid_training_leaves_only_its_restart(monkeypatch, step):
    spec, x, g, cfg = _search_problem()
    root = RngStream(74)
    rngs = [root.split(restart) for restart in range(4)]
    grad_fn = total_grad_fn(g, None, cfg, logit_bound(g))
    solo = {pos: solo_candidate(spec, NO_CONNECTION, x, None, grad_fn, cfg.sgd, rngs[pos])
            for pos in (0, 1, 3)}
    with np.errstate(over="ignore", invalid="ignore"):
        monkeypatch.setattr(findwl, "backward", _poison_bias_grad(step, 2))
        trained = list(findwl._train_stack(spec, NO_CONNECTION, x, None, grad_fn, cfg.sgd,
                                           rngs))
        monkeypatch.setattr(findwl, "backward", _poison_bias_grad(step, ...))
        with pytest.raises(FloatingPointError):
            diverged = solo_candidate(spec, NO_CONNECTION, x, None, grad_fn, cfg.sgd, rngs[2])
            forward(diverged, x)
    assert [pos for pos, _, _ in trained] == [0, 1, 3]
    for pos, params, logits in trained:
        assert_same_net(params, solo[pos])
        assert same_bits(logits, forward(solo[pos], x)[0])


@pytest.mark.parametrize("degenerate", [True, False])
def test_search_with_a_diverging_restart_matches_the_restart_loop(monkeypatch, degenerate):
    spec, x, g, cfg = _search_problem()
    state = init_uniform(24, 2) if degenerate else \
        WeightState(np.full((24, 2), 0.8 / 24), np.full((24, 2), 0.2 / 24))
    # no edge reaches this tolerance, so restart 0 fails and restarts 1-3
    # train as one stack in the non-degenerate round
    edge_tol = 1e3
    root = RngStream(72)
    monkeypatch.setattr(findwl, "init_params", _blow_up(root.split(2)))
    checked = []
    check = findwl.weak_learning_check
    monkeypatch.setattr(findwl, "weak_learning_check",
                        lambda *args: checked.append(1) or check(*args))
    got = find_weak_learner(state, spec, NO_CONNECTION, x, g, cfg, root, edge_tol=edge_tol)
    assert len(checked) == 3   # every restart but the diverged one
    want = loop_reference(state, spec, NO_CONNECTION, x, g, cfg, root, edge_tol=edge_tol)
    assert_same_result(got, want)
    assert got.verdict == (CHECK_DEGENERATE if degenerate else "none")


def test_the_lowest_passing_restart_of_a_stack_wins(monkeypatch):
    spec, x, g, cfg = _search_problem()
    state = WeightState(np.full((24, 2), 0.8 / 24), np.full((24, 2), 0.2 / 24))
    root = RngStream(73)

    def search(run):
        # restarts 0 and 1 fail, 2 and 3 pass, whatever their residuals
        verdicts = iter([CHECK_FAIL, CHECK_FAIL, CHECK_PASS, CHECK_PASS])
        checked = []
        monkeypatch.setattr(findwl, "weak_learning_check",
                            lambda *args: checked.append(1) or next(verdicts))
        return run(state, spec, NO_CONNECTION, x, g, cfg, root), len(checked)

    want, want_checks = search(loop_reference)
    # in one process, or in one child beside restart 0, restarts 1-3 form one stack
    for workers in (1, 2):
        monkeypatch.setattr(findwl, "_usable_cpus", lambda: workers)
        got, got_checks = search(find_weak_learner)
        assert_same_result(got, want)
        assert got.restart_index == 2
        # the stack trained restart 3 beside restart 2, so it was checked too
        assert (got_checks, want_checks) == (4, 3)


# --- restart chunks trained in forked children ------------------------------

def assert_no_child_left():
    """No child of this process is running, and none is left unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _barrier_state():
    return WeightState(np.full((24, 2), 0.8 / 24), np.full((24, 2), 0.2 / 24))


# (seed, edge_tol, tapped, the restart the search returns) on `_search_problem`
SEARCHES = {"degenerate": (72, 0.0, False, 3), "pass-at-0": (71, 0.0, False, 0),
            "pass-at-1": (70, 0.0, False, 1), "pass-at-2": (74, 0.0, False, 2),
            "pass-at-3": (87, 0.0, False, 3), "none": (72, 1e3, False, -1),
            "tapped-degenerate": (70, 0.0, True, 2), "tapped-pass-at-2": (80, 0.0, True, 2),
            "tapped-none": (75, 1e3, True, -1)}


def _search(case, max_search=4):
    """`find_weak_learner`'s arguments for one of `SEARCHES`."""
    spec, x, g, cfg = _search_problem()
    seed, edge_tol, tapped, _ = SEARCHES[case]
    state = init_uniform(24, 2) if "degenerate" in case else _barrier_state()
    connection, tap = NO_CONNECTION, None
    if tapped:   # a ReLU layer's output added to the output layer's input
        t, _ = RngStream(76).gaussian(24 * 6)
        tap = np.maximum(t.reshape(24, 6), 0.0)
        connection = ConnectionSpec("residual_add", 0)
    cfg = replace(cfg, max_search=max_search)
    return (state, spec, connection, x, g, cfg, RngStream(seed)), {"tap": tap,
                                                                  "edge_tol": edge_tol}


@pytest.mark.parametrize("case", list(SEARCHES))
def test_the_search_returns_the_same_bits_on_any_number_of_cpus(monkeypatch, case):
    args, kwargs = _search(case)
    want = loop_reference(*args, **kwargs)
    assert want.restart_index == SEARCHES[case][3]
    for workers in (1, 2, 3):
        monkeypatch.setattr(findwl, "_usable_cpus", lambda: workers)
        assert_same_result(find_weak_learner(*args, **kwargs), want)
        assert_no_child_left()


@pytest.mark.parametrize("case", list(SEARCHES))
def test_the_search_scores_only_what_decides_its_round(monkeypatch, case):
    """The barrier runs once, for the clamp count of the candidate the search
    returns, and never when it returns none; the distillation loss runs only
    in a degenerate round, once per candidate, since it ranks them there."""
    calls = {"barrier_loss": 0, "distill_loss": 0}

    def counted(name, fn):
        def wrapper(*a, **k):
            calls[name] += 1
            return fn(*a, **k)
        return wrapper
    for name in calls:
        monkeypatch.setattr(findwl, name, counted(name, getattr(findwl, name)))
    args, kwargs = _search(case)
    got = find_weak_learner(*args, **kwargs)
    assert got.restart_index == SEARCHES[case][3]
    assert calls == {"barrier_loss": 0 if "none" in case else 1,
                     "distill_loss": 4 if "degenerate" in case else 0}


@pytest.mark.parametrize("case", list(SEARCHES))
def test_one_cpu_trains_every_chunk_here_and_only_when_reached(monkeypatch, case):
    args, kwargs = _search(case)
    want = loop_reference(*args, **kwargs)

    def no_fork():
        raise AssertionError("a search on one CPU forked")

    def no_fork_context(method=None):
        # as on a platform without fork
        raise ValueError(f"cannot find context for {method!r}")
    monkeypatch.setattr(findwl, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(multiprocessing, "get_context", no_fork_context)
    epochs, sgd_epoch = [], findwl.sgd_epoch
    monkeypatch.setattr(findwl, "sgd_epoch", lambda *a, **k: epochs.append(1) or sgd_epoch(*a, **k))
    assert_same_result(find_weak_learner(*args, **kwargs), want)
    if case == "pass-at-0":
        # restarts 1-3 were initialised but never trained: one stack's epochs
        assert len(epochs) == args[5].sgd.epochs


@pytest.mark.parametrize("max_search", [1, 2, 5])
def test_uneven_chunks_return_the_same_bits(monkeypatch, max_search):
    for case in ("degenerate", "none"):
        args, kwargs = _search(case, max_search)
        want = loop_reference(*args, **kwargs)
        for workers in (2, 3):
            monkeypatch.setattr(findwl, "_usable_cpus", lambda: workers)
            assert_same_result(find_weak_learner(*args, **kwargs), want)
            assert_no_child_left()


@pytest.mark.parametrize("case", ["degenerate", "none", "pass-at-0"])
def test_this_process_initialises_and_checks_every_restart(monkeypatch, case):
    # the benchmark's tracer counts restarts by `init_params` calls and
    # diverged ones by the checks they lack, in this process only
    monkeypatch.setattr(findwl, "_usable_cpus", lambda: 2)
    calls = {"init": 0, "check": 0}
    init, check = findwl.init_params, findwl.weak_learning_check

    def counted(name, fn):
        def wrapper(*a, **k):
            calls[name] += 1
            return fn(*a, **k)
        return wrapper
    monkeypatch.setattr(findwl, "init_params", counted("init", init))
    monkeypatch.setattr(findwl, "weak_learning_check", counted("check", check))
    args, kwargs = _search(case)
    find_weak_learner(*args, **kwargs)
    # a round that passes at restart 0 has started restarts 1-3 beside it
    assert calls == {"init": 4, "check": 1 if case == "pass-at-0" else 4}
    assert_no_child_left()


def _backward_that(action, in_child=True):
    """`findwl.backward` that first runs `action()` when it is called in a
    child of this process (or, with `in_child=False`, in this process)."""
    here, original = os.getpid(), findwl.backward

    def backward(*args):
        if (os.getpid() != here) == in_child:
            action()
        return original(*args)
    return backward


def _raise(exc):
    def action():
        raise exc
    return action


@pytest.mark.parametrize("case, workers", [("degenerate", 2), ("none", 2), ("none", 3)])
def test_a_childs_exception_reaches_the_search(monkeypatch, case, workers):
    monkeypatch.setattr(findwl, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(findwl, "backward", _backward_that(_raise(ValueError("bad step 7"))))
    args, kwargs = _search(case)
    with pytest.raises(ValueError, match="^bad step 7$"):
        find_weak_learner(*args, **kwargs)
    assert_no_child_left()


def test_an_exception_here_stops_the_children(monkeypatch):
    monkeypatch.setattr(findwl, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(findwl, "backward",
                        _backward_that(_raise(KeyError("here")), in_child=False))
    args, kwargs = _search("degenerate")
    with pytest.raises(KeyError, match="here"):
        find_weak_learner(*args, **kwargs)
    assert_no_child_left()


def test_a_child_killed_by_a_signal_is_named(monkeypatch):
    # 4 restarts over 3 CPUs: restart 0 trains here, 1 and 2-3 in a child each
    monkeypatch.setattr(findwl, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(findwl, "backward",
                        _backward_that(lambda: os.kill(os.getpid(), signal.SIGKILL)))
    args, kwargs = _search("degenerate")
    with pytest.raises(ChildProcessError, match="restart 1 was killed by signal 9"):
        find_weak_learner(*args, **kwargs)
    assert_no_child_left()


def test_a_pass_at_restart_0_does_not_wait_for_the_children(monkeypatch):
    slept = []

    def sleep_once():   # per process: a search that waits fails in about 20 s
        if not slept:
            slept.append(True)
            time.sleep(20)
    monkeypatch.setattr(findwl, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(findwl, "backward", _backward_that(sleep_once))
    args, kwargs = _search("pass-at-0")
    start = time.perf_counter()
    got = find_weak_learner(*args, **kwargs)
    assert time.perf_counter() - start < 10
    assert got.restart_index == 0
    assert_no_child_left()


# --- the flat-buffer update against the per-array loop ------------------------

def per_array_sgd_epoch(params, x, grad_fn, cfg, rng, lr, state=None, tap=None):
    """`findwl.sgd_epoch` as it was before the flat buffer: each minibatch's
    rows gathered at its step, and weight decay, momentum and the step
    applied to one weight or bias array at a time.  Its state is the
    velocity of each weight and of each bias."""
    fn, targets = grad_fn
    if state is None:
        state = ([np.zeros_like(w) for w in params.weights],
                 [np.zeros_like(b) for b in params.biases])
    vel_w, vel_b = state
    n = x.shape[0]
    if isinstance(rng, list):
        draws = [stream.permutation(n) for stream in rng]
        perm = np.stack([draw[0] for draw in draws])
        rng = [draw[1] for draw in draws]
    else:
        perm, rng = rng.permutation(n)
    for start in range(0, n, cfg.batch_size):
        idx = perm[..., start:start + cfg.batch_size]
        bx = x[idx]
        btap = None if tap is None else tap[idx]
        logits, acts = forward(params, bx, btap)
        dlogits = fn(logits, *[t[idx] for t in targets])
        dW, db = backward(params, bx, acts, dlogits, btap)
        for li in range(len(params.weights)):
            step_w = dW[li] + cfg.weight_decay * params.weights[li]
            vel_w[li] = cfg.momentum * vel_w[li] + step_w
            params.weights[li] -= lr * vel_w[li]
            step_b = db[li] + cfg.weight_decay * params.biases[li]
            vel_b[li] = cfg.momentum * vel_b[li] + step_b
            params.biases[li] -= lr * vel_b[li]
    return params, (vel_w, vel_b), rng


def _tapped_problem(root, n_rows, d, n_labels, dims, kind):
    """Inputs, a tap of `kind` into the output layer of `dims`, teacher
    logits and a barrier mask, all drawn from `root`."""
    u, _ = root.split(0).uniform(n_rows * d)
    x = 2.0 * u.reshape(n_rows, d) - 1.0
    connection, tap = NO_CONNECTION, None
    spec = [LayerSpec(dims[i], dims[i + 1], "relu" if i < len(dims) - 2 else "linear")
            for i in range(len(dims) - 1)]
    if kind != "none":
        width = dims[-2] if kind != "dense_concat" else 3
        t, _ = root.split(1).gaussian(n_rows * width)
        tap = np.maximum(t.reshape(n_rows, width), 0.0)   # a ReLU layer's output
        connection = ConnectionSpec(kind, 0)
        if kind == "dense_concat":
            spec[-1] = replace(spec[-1], in_dim=spec[-1].in_dim + width)
    g, _ = root.split(2).gaussian(n_rows * n_labels)
    m, _ = root.split(3).uniform(n_rows * n_labels)
    return x, spec, connection, tap, g.reshape(n_rows, n_labels), m.reshape(n_rows, n_labels) > 0.5


def _as_loaded(x):
    """`x` as `data.load_dataset_csv` returns it: the `x` field of records
    with an int64 label beside it, so a row steps d + 1 values."""
    records = np.zeros(len(x), _dataset_record(x.shape[1] + 1))
    records["x"] = x
    assert not records["x"].flags.c_contiguous
    return records["x"]


def _copy(params):
    return LearnerParams(spec=params.spec, connection=params.connection,
                         weights=[w.copy() for w in params.weights],
                         biases=[b.copy() for b in params.biases])


@st.composite
def sgd_cases(draw):
    """One net or a stack of 2-3, no tap or a residual_add or dense_concat
    tap, a random step size, momentum and weight decay, a batch size that
    leaves a ragged last batch, and `x` contiguous or as the pipeline loads
    it."""
    d = draw(st.integers(1, 4))
    n_labels = draw(st.integers(1, 3))
    batch = draw(st.integers(2, 6))
    n_rows = batch * draw(st.integers(1, 3)) + draw(st.integers(1, batch - 1))
    dims = [d] + draw(st.lists(st.integers(1, 5), min_size=0, max_size=2)) + [n_labels]
    kind = draw(st.sampled_from(("none", "residual_add", "dense_concat")))
    root = RngStream(draw(st.integers(0, 2 ** 32 - 1)))
    x, spec, connection, tap, g, mask = _tapped_problem(root, n_rows, d, n_labels, dims, kind)
    if draw(st.booleans()):
        x = _as_loaded(x)
    cfg = FindWlConfig(barrier_gamma=1.0)
    grad_fn = total_grad_fn(g, mask if draw(st.booleans()) else None, cfg,
                            logit_bound(g))
    sgd_cfg = SgdConfig(lr=draw(st.floats(0.0, 0.3)), momentum=draw(st.floats(0.0, 0.95)),
                        weight_decay=draw(st.floats(0.0, 0.05)),
                        epochs=draw(st.integers(2, 4)), batch_size=batch)
    nets = [findwl.init_params(spec, root.split(10 + s), connection)
            for s in range(draw(st.sampled_from((1, 2, 3))))]
    stacked = len(nets) > 1
    if stacked:
        params = LearnerParams(spec=spec, connection=connection,
                               weights=[np.stack(w) for w in zip(*(p.weights for p in nets))],
                               biases=[np.stack(b) for b in zip(*(p.biases for p in nets))])
        rng = [root.split(20 + s) for s in range(len(nets))]
    else:
        params, rng = nets[0], root.split(20)
    return params, x, tap, grad_fn, sgd_cfg, rng


def _train(epoch_fn, params, x, tap, grad_fn, sgd_cfg, rng):
    """Weights, biases and state after `sgd_cfg.epochs` epochs of
    `epoch_fn`, or the FloatingPointError a single net raised."""
    state = None
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(sgd_cfg.epochs):
                params, state, rng = epoch_fn(params, x, grad_fn, sgd_cfg, rng,
                                              lr=lr_at_epoch(epoch, sgd_cfg),
                                              state=state, tap=tap)
    except FloatingPointError as exc:
        return str(exc)
    return params, state


@settings(max_examples=150, deadline=None)
@given(sgd_cases())
def test_flat_update_equals_the_per_array_loop(case):
    params, x, tap, grad_fn, sgd_cfg, rng = case
    got = _train(findwl.sgd_epoch, _copy(params), x, tap, grad_fn, sgd_cfg, rng)
    want = _train(per_array_sgd_epoch, _copy(params), x, tap, grad_fn, sgd_cfg, rng)
    if isinstance(want, str):   # a single net diverged: at the same step on both paths
        assert got == want
        return
    (got_params, state), (want_params, (vel_w, vel_b)) = got, want
    assert_same_net(got_params, want_params)
    assert same_bits(state.velocity, np.concatenate([v.reshape(-1) for v in vel_w + vel_b]))
    for a in got_params.weights + got_params.biases:
        assert a.base is state.flat   # the net trains in the buffer it returns


@pytest.mark.parametrize("kind", CONNECTION_KINDS)
@pytest.mark.parametrize("stacked", [False, True])
def test_training_never_writes_what_it_reads(kind, stacked):
    root = RngStream(80)
    x, spec, connection, tap, g, mask = _tapped_problem(root, 19, 3, 2, [3, 4, 4, 2], kind)
    if stacked:
        nets = [findwl.init_params(spec, root.split(10 + s), connection) for s in range(3)]
        params = LearnerParams(spec=spec, connection=connection,
                               weights=[np.stack(w) for w in zip(*(p.weights for p in nets))],
                               biases=[np.stack(b) for b in zip(*(p.biases for p in nets))])
        rng = [root.split(20 + s) for s in range(3)]
        fx, ftap = np.stack([x] * 3), None if tap is None else np.stack([tap] * 3)
    else:
        params, rng = findwl.init_params(spec, root.split(10), connection), root.split(20)
        fx, ftap = x, tap
    inputs = [a for a in (x, tap, g, mask, fx, ftap) if a is not None]
    before = [a.tobytes() for a in inputs]
    logits, acts = forward(params, fx, ftap)
    assert acts[-1] is logits
    for i, act in enumerate(acts):   # each layer's output is its own array
        assert not any(np.shares_memory(act, other) for other in acts[:i] + inputs)
    backward(params, fx, acts, np.ones_like(logits), ftap)
    cfg = SgdConfig(lr=0.05, epochs=1, batch_size=4)
    findwl.sgd_epoch(params, x, total_grad_fn(g, mask, FindWlConfig(), logit_bound(g)),
                     cfg, rng, lr=0.05, tap=tap)
    assert [a.tobytes() for a in inputs] == before


def _epoch_problem(n_rows, kind, slices, loaded):
    """A net of [32, 8, 8, 3] or a stack of them, `x` of `n_rows` rows
    (contiguous or as loaded), its tap, `sgd_epoch`'s gradient pair and a
    batch size of 64, for the memory tests."""
    root = RngStream(81)
    x, spec, connection, tap, g, mask = _tapped_problem(root, n_rows, 32, 3, [32, 8, 8, 3], kind)
    if loaded:
        x = _as_loaded(x)
    nets = [findwl.init_params(spec, root.split(10 + s), connection) for s in range(slices)]
    if slices == 1:
        params, rng = nets[0], root.split(20)
    else:
        params = LearnerParams(spec=spec, connection=connection,
                               weights=[np.stack(w) for w in zip(*(p.weights for p in nets))],
                               biases=[np.stack(b) for b in zip(*(p.biases for p in nets))])
        rng = [root.split(20 + s) for s in range(slices)]
    grad_fn = total_grad_fn(g, mask, FindWlConfig(), logit_bound(g))
    return params, x, tap, grad_fn, SgdConfig(lr=0.01, epochs=2, batch_size=64), rng


def _traced_peak(fn):
    """`fn()`'s result and the peak of the memory it held at once."""
    tracemalloc.start()
    try:
        got = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return got, peak


@pytest.mark.parametrize("slices, kind, loaded", [
    pytest.param(slices, kind, loaded, id=f"{slices}-{kind}" + ("-loaded" if loaded else ""))
    for loaded in (False, True) for slices in (1, 3) for kind in ("none", "residual_add")])
def test_an_epoch_after_the_first_allocates_no_copy_of_its_rows(kind, slices, loaded):
    # 300 rows at batch 64: four full batches and a ragged one of 44
    params, x, tap, grad_fn, cfg, rng = _epoch_problem(300, kind, slices, loaded)
    params, state, rng = findwl.sgd_epoch(params, x, grad_fn, cfg, rng, lr=0.01, tap=tap)
    (_, again, _), peak = _traced_peak(lambda: findwl.sgd_epoch(
        params, x, grad_fn, cfg, rng, lr=0.01, state=state, tap=tap))
    assert again is state
    # the permutations, a stack's index slices and a step's views are all
    # that is new: about 30 kB for a stack of 3, against 77 kB for one copy
    # of `x`; gathering from the loaded `x` itself would first copy all of it
    assert peak < x.nbytes


@pytest.mark.parametrize("loaded", [False, True], ids=["contiguous", "loaded"])
def test_the_first_epoch_holds_one_copy_of_its_rows(loaded):
    # at 3000 rows the permutations and the buffers of the two minibatch
    # shapes (3 slices of 64 and of 56 rows) take about 0.7 of `x`'s size
    params, x, tap, grad_fn, cfg, rng = _epoch_problem(3000, "residual_add", 3, loaded)
    (_, state, _), peak = _traced_peak(lambda: findwl.sgd_epoch(
        params, x, grad_fn, cfg, rng, lr=0.01, tap=tap))
    # one copy of the loaded `x` and none of a contiguous one, and no
    # row-order copy of the tap or the targets: gathering each slice's rows
    # of `x` alone would hold 3 copies
    assert peak < (2 if loaded else 1) * x.nbytes
    assert state.x.flags.c_contiguous and (state.x is x) == (not loaded)
    assert same_bits(state.x, x)


@pytest.mark.parametrize("loaded", [False, True], ids=["contiguous", "loaded"])
def test_a_stack_holds_one_set_of_permutations(loaded):
    # a stack of 4 over 20,000 rows: its permutations take 640 kB, and one
    # slice's draw in progress (uniforms, sort, tie check) about as much
    # again, 2.0x in all; keeping each slice's draw beside the stacked ones
    # held 2.75x
    params, x, tap, grad_fn, cfg, rng = _epoch_problem(20000, "residual_add", 4, loaded)
    streams = list(rng)
    (_, state, after), peak = _traced_peak(lambda: findwl.sgd_epoch(
        params, x, grad_fn, cfg, rng, lr=0.01, tap=tap))
    permutations = 4 * len(x) * np.dtype(np.intp).itemsize
    copied = 0 if state.x is x else state.x.nbytes
    assert peak < copied + 2.4 * permutations
    # each slice's stream advanced by its draw; the caller's list is not touched
    assert rng == streams and after == [s.permutation(len(x))[1] for s in streams]


def test_a_state_is_refused_with_another_x():
    params, x, tap, grad_fn, cfg, rng = _epoch_problem(300, "none", 1, True)
    params, state, rng = findwl.sgd_epoch(params, x, grad_fn, cfg, rng, lr=0.01, tap=tap)
    before = state.flat.copy()
    for other in (_as_loaded(np.array(x)), np.array(x)):   # the same rows, another array
        with pytest.raises(ValueError, match="'state' was built for another 'x'"):
            findwl.sgd_epoch(params, other, grad_fn, cfg, rng, lr=0.01, state=state, tap=tap)
    assert same_bits(state.flat, before)


@pytest.mark.parametrize("b, gamma", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -0.5)])
def test_total_grad_fn_refuses_a_bad_barrier_when_built(b, gamma):
    g = np.zeros((4, 2))
    mask = np.ones((4, 2), dtype=bool)
    cfg = FindWlConfig(barrier_gamma=gamma)
    with pytest.raises(ValueError, match="logit bound B" if b <= 0 else "barrier_gamma"):
        total_grad_fn(g, mask, cfg, b)
    # without a mask there is no barrier, so neither value is read
    fn, targets = total_grad_fn(g, None, cfg, b)
    assert same_bits(fn(np.ones((4, 2)), *targets), np.full((4, 2), 0.25))
