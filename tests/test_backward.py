"""`nets.backward` reading `forward`'s activations against the two-pass backward.

`backward` takes the activations `forward` returned instead of running the
forward pass again.  The reference below is the re-tracing backward it
replaced; random nets of any depth with every connection kind, joined at the
output layer, must give the same gradient bits, and a tapped search, which trains its restarts
as a stack, must train the same weights as the reference run net by net.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ensdistill.findwl as findwl
from ensdistill.core import RngStream
from ensdistill.findwl import FindWlConfig, SgdConfig, find_weak_learner
from ensdistill.game import WeightState, init_uniform
from ensdistill.nets import (CONNECTION_KINDS, NO_CONNECTION, ConnectionSpec, LayerSpec,
                             LearnerParams, backward, expand_class, forward, init_params)


def reference_trace(params, x, tap):
    """Forward pass keeping per-layer inputs and pre-activations."""
    conn = params.connection
    h = np.asarray(x, dtype=np.float64)
    inputs, pre_acts = [], []
    for idx, layer in enumerate(params.spec):
        if conn.kind != "none" and idx == len(params.spec) - 1:
            if conn.kind == "residual_add":
                h = h + tap
            elif conn.kind == "delta":
                h = tap - h
            elif conn.kind == "dense_concat":
                h = np.concatenate([h, tap], axis=1)
        inputs.append(h)
        z = h @ params.weights[idx] + params.biases[idx]
        pre_acts.append(z)
        h = np.maximum(z, 0.0) if layer.activation == "relu" else z
    return inputs, pre_acts


def reference_backward(params, x, dlogits, tap=None):
    """The backward that traced the forward pass a second time."""
    inputs, pre_acts = reference_trace(params, x, tap)
    conn = params.connection
    dW = [None] * len(params.spec)
    db = [None] * len(params.spec)
    dh = np.asarray(dlogits, dtype=np.float64)
    for idx in range(len(params.spec) - 1, -1, -1):
        layer = params.spec[idx]
        dz = dh if layer.activation == "linear" else dh * (pre_acts[idx] > 0.0)
        dW[idx] = inputs[idx].T @ dz
        db[idx] = dz.sum(axis=0)
        if idx == 0:
            break
        dh = dz @ params.weights[idx].T
        if conn.kind != "none" and idx == len(params.spec) - 1:
            if conn.kind == "delta":
                dh = -dh
            elif conn.kind == "dense_concat":
                dh = dh[:, : dh.shape[1] - tap.shape[1]]
    return dW, db


def reference_backward_per_net(params, x, acts, dlogits, tap=None, buffers=None):
    """`reference_backward` with `backward`'s signature; a stack of nets is
    differentiated one net at a time and its gradients restacked.  Given a
    step's `buffers`, the gradients are copied into their `dW` and `db`,
    where the step reads them."""
    if params.weights[0].ndim == 2:
        dW, db = reference_backward(params, x, dlogits, tap)
    else:
        grads = [reference_backward(
            LearnerParams(params.spec, params.connection, [w[s] for w in params.weights],
                          [b[s] for b in params.biases]),
            x[s], dlogits[s], None if tap is None else tap[s])
            for s in range(len(params.weights[0]))]
        dW = [np.stack(dws) for dws in zip(*(dW for dW, _ in grads))]
        db = [np.stack(dbs) for dbs in zip(*(db for _, db in grads))]
    if buffers is not None:
        for out, grad in zip(buffers.dW + buffers.db, dW + db):
            out[...] = grad
    return dW, db


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def tapped_nets(draw):
    """(params, x, tap, dlogits): a 1-3 layer net, maybe joining the last
    hidden layer of a 2-3 layer source member with its output layer's input
    (`x` itself for a one-layer net, a `split_head` head)."""
    d = draw(st.integers(1, 4))
    n_labels = draw(st.integers(1, 3))
    n_rows = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    root = RngStream(seed)
    u, _ = root.split(0).uniform(n_rows * d)
    x = 2.0 * u.reshape(n_rows, d) - 1.0
    dims = [d] + draw(st.lists(st.integers(1, 5), min_size=0, max_size=2)) + [n_labels]
    activations = [draw(st.sampled_from(("relu", "linear"))) for _ in dims[2:]] + ["linear"]
    kind = draw(st.sampled_from(CONNECTION_KINDS))
    conn, tap, width = NO_CONNECTION, None, 0
    if kind != "none":
        source_dims = [d] + draw(st.lists(st.integers(1, 5), min_size=1, max_size=2)) + [2]
        if kind != "dense_concat":
            # the tap is added to the output layer's input, so widths must agree
            source_dims[-2] = dims[-2]
        source_spec = [LayerSpec(source_dims[i], source_dims[i + 1])
                       for i in range(len(source_dims) - 2)]
        source_spec.append(LayerSpec(source_dims[-2], source_dims[-1], "linear"))
        source = init_params(source_spec, root.split(1))
        _, source_acts = forward(source, x)
        tap = source_acts[-2]
        width = source_dims[-2]
        conn = ConnectionSpec(kind, 0)
    spec = [LayerSpec(dims[i], dims[i + 1], activations[i]) for i in range(len(dims) - 1)]
    if kind == "dense_concat":
        spec[-1] = replace(spec[-1], in_dim=spec[-1].in_dim + width)
    params = init_params(spec, root.split(2), conn)
    dlogits, _ = root.split(3).gaussian(n_rows * n_labels)
    return params, x, tap, dlogits.reshape(n_rows, n_labels)


@settings(max_examples=150, deadline=None)
@given(tapped_nets())
def test_backward_matches_two_pass_reference(case):
    params, x, tap, dlogits = case
    _, acts = forward(params, x, tap)
    dW, db = backward(params, x, acts, dlogits, tap)
    ref_dW, ref_db = reference_backward(params, x, dlogits, tap)
    assert len(dW) == len(ref_dW) == len(params.spec)
    for got, want in zip(dW + db, ref_dW + ref_db):
        assert same_bits(got, want)


def _biased_state(n, labels, hi=0.8):
    """Non-degenerate state whose mask prefers positive residuals everywhere."""
    return WeightState(np.full((n, labels), hi / n), np.full((n, labels), (1.0 - hi) / n))


@pytest.mark.parametrize("kind", ["residual_add", "dense_concat", "delta"])
@pytest.mark.parametrize("degenerate", [True, False])
def test_tapped_search_trains_the_reference_weights(monkeypatch, kind, degenerate):
    rng = RngStream(40)
    x, rng = rng.gaussian(32 * 4)
    x = x.reshape(32, 4)
    g, rng = rng.gaussian(32 * 2)
    g = g.reshape(32, 2)
    base = [LayerSpec(4, 5), LayerSpec(5, 5), LayerSpec(5, 2, "linear")]
    member = init_params(base, rng.split(0))
    _, member_acts = forward(member, x)
    tap = member_acts[len(base) - 2]   # the layer expand_class taps
    spec, conn = expand_class(base, kind, 1, [member])
    state = init_uniform(32, 2) if degenerate else _biased_state(32, 2)
    cfg = FindWlConfig(barrier_gamma=2.0, max_search=2,
                       sgd=SgdConfig(lr=0.02, epochs=6, batch_size=8))

    def search():
        return find_weak_learner(state, spec, conn, x, g, cfg, RngStream(41),
                                 tap=tap, edge_tol=0.0)

    got = search()
    monkeypatch.setattr(findwl, "backward", reference_backward_per_net)
    want = search()
    assert (got.verdict, got.restart_index, got.clamp_count) == \
        (want.verdict, want.restart_index, want.clamp_count)
    assert got.params is not None and want.params is not None
    assert same_bits(got.logits, want.logits)
    for a, b in zip(got.params.weights + got.params.biases,
                    want.params.weights + want.params.biases):
        assert same_bits(a, b)
