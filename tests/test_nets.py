"""Tests for student networks: init, forward/backward, class expansion, FLOPs."""

import json
import re
import tracemalloc

import numpy as np
import pytest

from ensdistill.core import RngStream
from ensdistill.distill import Ensemble, ensemble_from_dict, ensemble_to_dict
from ensdistill.nets import (
    CONNECTION_KINDS,
    NO_CONNECTION,
    ConfigError,
    ConnectionSpec,
    LayerSpec,
    backward,
    connection_flops,
    expand_class,
    flops,
    forward,
    init_params,
    params_from_dict,
    params_to_dict,
    split_head,
    validate_spec,
)

MLP = [LayerSpec(10, 12), LayerSpec(12, 8), LayerSpec(8, 3, "linear")]


def _member_and_tap(seed=0, n=16):
    """A trained-looking base member plus the activation that a connection
    made by `expand_class` taps: its last hidden layer."""
    rng = RngStream(seed)
    params = init_params(MLP, rng.split(0))
    x, _ = rng.split(1).gaussian(n * 10)
    x = x.reshape(n, 10)
    _, post_acts = forward(params, x)
    return params, x, post_acts[len(MLP) - 2]


# --- validation and init ----------------------------------------------------

def test_validate_spec_rejects_nonlinear_output():
    with pytest.raises(ConfigError):
        validate_spec([LayerSpec(4, 2, "relu")])
    with pytest.raises(ConfigError):
        validate_spec([])
    with pytest.raises(ConfigError):
        validate_spec([LayerSpec(0, 2, "linear")])


def test_init_deterministic():
    a = init_params(MLP, RngStream(5))
    b = init_params(MLP, RngStream(5))
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_init_weight_scale():
    params = init_params([LayerSpec(32, 16), LayerSpec(16, 2, "linear")], RngStream(1))
    std = params.weights[0].std()
    target = np.sqrt(2.0 / 32)
    assert 0.7 * target <= std <= 1.3 * target
    assert params.weights[0].shape == (32, 16)


def test_init_biases_zero():
    params = init_params(MLP, RngStream(2))
    for b in params.biases:
        assert np.all(b == 0.0)


# --- forward ----------------------------------------------------------------

def test_forward_zero_weights_gives_bias_rows():
    params = init_params(MLP, RngStream(0))
    for w in params.weights:
        w[:] = 0.0
    params.biases[-1][:] = [1.0, -2.0, 3.0]
    x, _ = RngStream(1).gaussian(50)
    logits, _ = forward(params, x.reshape(5, 10))
    assert np.array_equal(logits, np.tile([1.0, -2.0, 3.0], (5, 1)))


def test_forward_single_linear_layer_is_matmul():
    spec = [LayerSpec(4, 2, "linear")]
    params = init_params(spec, RngStream(3))
    x, _ = RngStream(4).gaussian(24)
    x = x.reshape(6, 4)
    logits, _ = forward(params, x)
    assert np.array_equal(logits, x @ params.weights[0])


def test_forward_residual_with_zero_source_equals_plain():
    params, x, tap = _member_and_tap()
    spec, conn = expand_class(MLP, "residual_add", 1, [params])
    connected = init_params(spec, RngStream(9), conn)
    plain = init_params(spec, RngStream(9), NO_CONNECTION)
    a, _ = forward(connected, x, np.zeros_like(tap))
    b, _ = forward(plain, x)
    assert np.array_equal(a, b)


def test_forward_missing_cache_entry_is_error():
    params, x, _ = _member_and_tap()
    spec, conn = expand_class(MLP, "residual_add", 1, [params])
    connected = init_params(spec, RngStream(9), conn)
    with pytest.raises(ConfigError):
        forward(connected, x)


# --- backward: finite-difference oracle -------------------------------------

def _loss_and_dlogits(logits, target):
    diff = logits - target
    return 0.5 * float(np.sum(diff * diff)), diff


def _fd_check(params, x, tap, target, h=1e-5, tol=1e-4):
    """Central finite differences over every coordinate (>=200 for these nets)."""
    logits, acts = forward(params, x, tap)
    _, dlogits = _loss_and_dlogits(logits, target)
    dw, db = backward(params, x, acts, dlogits, tap)
    checked = 0
    worst = 0.0
    for arrays, grads in ((params.weights, dw), (params.biases, db)):
        for arr, grad in zip(arrays, grads):
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up, _ = _loss_and_dlogits(forward(params, x, tap)[0], target)
                flat[i] = keep - h
                dn, _ = _loss_and_dlogits(forward(params, x, tap)[0], target)
                flat[i] = keep
                fd = (up - dn) / (2 * h)
                rel = abs(gflat[i] - fd) / max(abs(gflat[i]), abs(fd), 1e-6)
                worst = max(worst, rel)
                checked += 1
    assert checked >= 200
    assert worst <= tol


def test_gradcheck_plain_relu_mlp():
    params, x, _ = _member_and_tap()
    target, _ = RngStream(7).gaussian(x.shape[0] * 3)
    _fd_check(params, x, None, target.reshape(-1, 3))


def test_gradcheck_linear_hidden_layer():
    spec = [LayerSpec(10, 12, "linear"), LayerSpec(12, 8), LayerSpec(8, 3, "linear")]
    params = init_params(spec, RngStream(11))
    x, _ = RngStream(12).gaussian(160)
    target, _ = RngStream(13).gaussian(48)
    _fd_check(params, x.reshape(16, 10), None, target.reshape(16, 3))


@pytest.mark.parametrize("kind", ["residual_add", "dense_concat", "delta"])
def test_gradcheck_connection_kinds(kind):
    member, x, tap = _member_and_tap()
    spec, conn = expand_class(MLP, kind, 1, [member])
    params = init_params(spec, RngStream(21), conn)
    target, _ = RngStream(22).gaussian(x.shape[0] * 3)
    _fd_check(params, x, tap, target.reshape(-1, 3))


def test_backward_zero_dlogits_gives_zero_grads():
    params, x, _ = _member_and_tap()
    _, acts = forward(params, x)
    dw, db = backward(params, x, acts, np.zeros((x.shape[0], 3)))
    for g in dw + db:
        assert np.all(g == 0.0)


def test_backward_frozen_tap():
    # the tap is read but contributes no gradient entries of its own:
    # backward returns exactly one gradient per current-member layer, while a
    # perturbed tap changes the forward output
    member, x, tap = _member_and_tap()
    spec, conn = expand_class(MLP, "residual_add", 1, [member])
    params = init_params(spec, RngStream(30), conn)
    logits, acts = forward(params, x, tap)
    logits2, _ = forward(params, x, tap + 0.5)
    assert not np.array_equal(logits, logits2)
    dw, db = backward(params, x, acts, np.ones_like(logits), tap)
    assert len(dw) == len(spec)
    assert len(db) == len(spec)


# --- class expansion --------------------------------------------------------

def test_expand_r0_is_base_with_no_connection():
    spec, conn = expand_class(MLP, "residual_add", 0, [])
    assert spec == MLP
    assert conn.kind == "none"


def test_expand_kind_none_at_any_r_equals_base():
    member, _, _ = _member_and_tap()
    for r in range(4):
        spec, conn = expand_class(MLP, "none", r, [member])
        assert spec == MLP
        assert conn == NO_CONNECTION


def test_expand_r1_taps_last_hidden_of_latest_member():
    member, _, _ = _member_and_tap()
    spec, conn = expand_class(MLP, "residual_add", 1, [member])
    assert spec == MLP
    assert conn == ConnectionSpec("residual_add", source_round=0)
    # the file records the layers the connection joins: the last hidden
    # layer of a 3-layer member feeds the new model's output layer
    ens = Ensemble(members=[member, init_params(spec, RngStream(1), conn)], class_rs=[1, 2],
                   eta=0.1, T=2, R=3)
    assert ensemble_to_dict(ens)["members"][1]["connection"] == {
        "kind": "residual_add", "source_round": 0, "source_layer": 1, "target_layer": 2}


def test_expand_dense_concat_widens_target():
    member, _, _ = _member_and_tap()
    spec, conn = expand_class(MLP, "dense_concat", 1, [member])
    assert spec[2].in_dim == 8 + 8
    assert spec[:2] == MLP[:2]
    assert conn.kind == "dense_concat"


def test_expand_width_mismatch_is_config_error():
    wide = [LayerSpec(10, 16), LayerSpec(16, 16), LayerSpec(16, 3, "linear")]
    member = init_params(wide, RngStream(0))
    narrow = [LayerSpec(10, 8), LayerSpec(8, 8), LayerSpec(8, 3, "linear")]
    with pytest.raises(ConfigError):
        expand_class(narrow, "residual_add", 1, [member])
    with pytest.raises(ConfigError):
        expand_class(narrow, "delta", 1, [member])


def test_expand_connection_needs_a_member():
    with pytest.raises(ConfigError):
        expand_class(MLP, "residual_add", 1, [])


# --- FLOPs ------------------------------------------------------------------

def test_flops_single_layer():
    params = init_params([LayerSpec(32, 2, "linear")], RngStream(0))
    assert flops(params) == 2 * 32 * 2 + 2  # 130


def test_flops_two_layer_mlp():
    params = init_params([LayerSpec(32, 16), LayerSpec(16, 2, "linear")], RngStream(0))
    assert flops(params) == (2 * 32 * 16 + 16) + (2 * 16 * 2 + 2)  # 1106


def test_flops_residual_adds_target_width():
    base = [LayerSpec(8, 16), LayerSpec(16, 16), LayerSpec(16, 2, "linear")]
    member = init_params(base, RngStream(0))
    spec, conn = expand_class(base, "residual_add", 1, [member])
    connected = init_params(spec, RngStream(1), conn)
    plain = init_params(base, RngStream(1))
    assert flops(connected) == flops(plain) + 16
    assert connection_flops(connected) == 16
    assert connection_flops(plain) == 0


# --- model file format ------------------------------------------------------

def test_params_json_round_trip_value_exact():
    member, x, tap = _member_and_tap()
    spec, conn = expand_class(MLP, "dense_concat", 1, [member])
    params = init_params(spec, RngStream(17), conn)
    doc = json.loads(json.dumps(params_to_dict(params)))
    back = params_from_dict(doc)
    assert back.spec == params.spec
    assert back.connection == params.connection
    for a, b in zip(params.weights + params.biases, back.weights + back.biases):
        assert np.array_equal(a, b)
    la, _ = forward(params, x, tap)
    lb, _ = forward(back, x, tap)
    assert np.array_equal(la, lb)


def test_params_from_dict_rejects_bad_shapes():
    params = init_params(MLP, RngStream(0))
    doc = params_to_dict(params)
    doc["weights"][0] = [[1.0, 2.0]]
    with pytest.raises(ConfigError):
        params_from_dict(doc)


@pytest.mark.parametrize("target", [-1, 0, 1, 3, 7, 1.0, "1"], ids=repr)
def test_loading_refuses_a_connected_target_but_the_output_layer(target):
    member, _, _ = _member_and_tap()
    spec, conn = expand_class(MLP, "residual_add", 1, [member])
    doc = ensemble_to_dict(Ensemble(members=[member, init_params(spec, RngStream(1), conn)],
                                    class_rs=[1, 2], eta=0.1, T=2, R=3))
    doc["members"][1]["connection"]["target_layer"] = target
    with pytest.raises(ConfigError, match=re.escape(
            f"member 1: 'target_layer' must be the output layer's index, 2, got {target!r}")):
        ensemble_from_dict(doc)
    # a network document's layer indices are the ensemble's to check
    assert params_from_dict(doc["members"][1]).connection == conn
    doc["members"][1]["connection"]["kind"] = "none"   # an unconnected net's are never read
    assert ensemble_from_dict(doc).members[1].connection == ConnectionSpec("none", 0)


@pytest.mark.parametrize("field", ["weights", "biases"])
def test_params_from_dict_refuses_non_finite_arrays_as_config(field):
    doc = params_to_dict(init_params(MLP, RngStream(0)))
    arr = doc[field][1]
    (arr[0] if field == "weights" else arr)[0] = float("nan")
    with pytest.raises(ConfigError, match=f"layer 1 {field} contains non-finite entries"):
        params_from_dict(doc)


# --- split_head: hidden layers in row blocks, the output layer whole ---------

def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _split_case(kind, hidden, labels, n, d=32):
    """Inputs, an `expand_class` member of `kind` over a base of two
    `hidden`-wide layers, and the tap it reads: its source's last hidden
    layer on all of x.  Every bias is drawn too, so none is zero."""
    rng = RngStream(n * 100 + hidden + labels)
    u, _ = rng.split(0).uniform(n * d)
    x = 2.0 * u.reshape(n, d) - 1.0
    base = [LayerSpec(d, hidden), LayerSpec(hidden, hidden), LayerSpec(hidden, labels, "linear")]
    source = init_params(base, rng.split(1))
    spec, conn = expand_class(base, kind, 1, [source])
    params = init_params(spec, rng.split(2), conn)
    for i, b in enumerate(source.biases + params.biases):
        b[:] = 0.1 * rng.split(10 + i).gaussian(b.size)[0]
    return x, source, params, forward(source, x)[1][-2]


# row counts on each side of the block edges, and one whose 2- and 4-column
# output products are past OpenBLAS's small-matrix path, where a row cut
# changes their bits
@pytest.mark.parametrize("n", [1023, 1024, 1025, 2047, 2048, 40000])
@pytest.mark.parametrize("hidden, labels", [(24, 2), (24, 4), (64, 2), (64, 4)])
@pytest.mark.parametrize("kind", CONNECTION_KINDS)
def test_split_head_gives_the_bits_of_forward(kind, hidden, labels, n):
    x, source, params, tap = _split_case(kind, hidden, labels, n)
    head, rows = split_head(params, x)
    assert _same_bits(forward(head, rows, tap)[0], forward(params, x, tap)[0])
    assert _same_bits(rows, forward(params, x, tap)[1][-2])
    # the tap a run hands a connected class is its source's split rows
    assert _same_bits(split_head(source, x)[1], tap)
    assert len(head.spec) == 1 and head.weights[0] is params.weights[-1]
    assert head.connection == params.connection


def test_split_head_of_a_net_without_hidden_layers_is_the_net_on_x():
    params = init_params([LayerSpec(3, 2, "linear")], RngStream(1))
    x = np.arange(12.0).reshape(4, 3)
    head, rows = split_head(params, x)
    assert rows is x and head.spec == params.spec
    assert _same_bits(forward(head, rows)[0], forward(params, x)[0])


def test_split_head_holds_one_hidden_layer_of_all_rows():
    x, _, params, _ = _split_case("none", 64, 2, 40000)
    tracemalloc.start()
    try:
        _, rows = split_head(params, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the last hidden layer (20.5 MB) and one block of the first (0.6 MB);
    # `forward` holds both hidden layers and the logits, 41.6 MB
    assert peak < 1.1 * rows.nbytes
