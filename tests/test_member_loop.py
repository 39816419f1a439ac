"""The one member-evaluation loop against the every-layer cache it replaced.

`distill.member_logits` runs each member through `nets.split_head` and
caches only the last hidden layers some connection taps.  Random small
ensembles, with every connection kind and taps of any earlier member, in
the shape `expand_class` builds (the only one an ensemble file may hold),
must give the same bits as the reference loop below on every path built on
the generator.

A batch of two blocks or more has its hidden layers evaluated block by
block, in this thread.  With blocks shrunk to 8 or 16 rows, each member's
logits must keep the whole batch's bits, and a forked search after a
prediction of several blocks sees no thread and keeps its bits.
"""

import json
import re
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ensdistill.findwl as findwl
import ensdistill.nets as nets
from ensdistill.core import RngStream, softmax
from ensdistill.distill import (Ensemble, ensemble_from_dict, ensemble_predict,
                                ensemble_to_dict, member_logits)
from ensdistill.evaluate import CurvePoint, accuracy, anytime_curve, early_exit, verify_bound
from ensdistill.findwl import find_weak_learner
from ensdistill.nets import (CONNECTION_KINDS, NO_CONNECTION, ConfigError, ConnectionSpec,
                             LayerSpec, flops, forward, init_params)
from test_stack import _search, assert_no_child_left, assert_same_result, loop_reference


def reference_member_logits(members, x):
    """Every layer of every member cached, as each copy of the loop once did;
    a connection reads its source's last hidden layer."""
    cache = {}
    out = []
    for member_index, params in enumerate(members):
        conn = params.connection
        tap = None
        if conn.kind != "none":
            tap = cache.get((conn.source_round, len(members[conn.source_round].spec) - 2))
        logits, acts = forward(params, x, tap)
        for layer_index, act in enumerate(acts):
            cache[(member_index, layer_index)] = act
        out.append(logits)
    return out


def reference_prefixes(members, x):
    total = None
    prefixes = []
    for k, logits in enumerate(reference_member_logits(members, x), start=1):
        total = logits if total is None else total + logits
        prefixes.append(total / k)
    return prefixes


def reference_early_exit(prefixes, member_costs, threshold):
    n = prefixes[0].shape[0]
    cum_flops = np.cumsum(member_costs)
    chosen = np.full(n, len(prefixes), dtype=np.int64)
    preds = np.argmax(prefixes[-1], axis=1)
    done = np.zeros(n, dtype=bool)
    for k, prefix in enumerate(prefixes, start=1):
        hit = (~done) & (softmax(prefix).max(axis=1) >= threshold)
        chosen[hit] = k
        preds[hit] = np.argmax(prefix[hit], axis=1)
        done |= hit
    return preds, chosen, cum_flops[chosen - 1]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def ensembles(draw, rows=st.integers(1, 8)):
    """(ensemble, x, labels, teacher logits) with random layers and taps, on
    `rows` rows."""
    d = draw(st.integers(1, 4))
    n_labels = draw(st.integers(1, 3))
    n_rows = draw(rows)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    members = []
    for j in range(draw(st.integers(1, 4))):
        # only a member with a hidden layer can be tapped
        sources = [i for i, m in enumerate(members) if len(m.spec) >= 2]
        kind = draw(st.sampled_from(CONNECTION_KINDS if sources else ("none",)))
        hidden = draw(st.lists(st.integers(1, 5), min_size=int(kind != "none"), max_size=3))
        dims = [d] + hidden + [n_labels]          # layer l maps dims[l] -> dims[l + 1]
        conn, width = NO_CONNECTION, 0
        if kind != "none":
            # as `expand_class` builds it: the last hidden layer of an
            # earlier member feeds the output layer
            source_round = draw(st.sampled_from(sources))
            source_spec = members[source_round].spec
            width = source_spec[-2].out_dim
            if kind != "dense_concat":
                dims[-2] = width   # the tap is added to the output layer's input
            conn = ConnectionSpec(kind, source_round)
        spec = [LayerSpec(dims[i], dims[i + 1]) for i in range(len(dims) - 2)]
        spec.append(LayerSpec(dims[-2], dims[-1], "linear"))
        if kind == "dense_concat":
            spec[-1] = replace(spec[-1], in_dim=spec[-1].in_dim + width)
        members.append(init_params(spec, RngStream(seed).split(j), conn))
    ens = Ensemble(members=members, class_rs=[1] * len(members), eta=0.01, T=len(members))
    root = RngStream(seed).split(99)
    u, _ = root.split(0).uniform(n_rows * d)
    x = 2.0 * u.reshape(n_rows, d) - 1.0
    labels, _ = root.split(1).uniform(n_rows)
    labels = np.minimum((labels * n_labels).astype(np.int64), n_labels - 1)
    g, _ = root.split(2).gaussian(n_rows * n_labels)
    return ens, x, labels, g.reshape(n_rows, n_labels)


@settings(max_examples=80, deadline=None)
@given(ensembles(), st.floats(0.05, 1.0))
def test_generator_paths_match_every_layer_reference(case, threshold):
    ens, x, labels, g = case
    expected_logits = reference_member_logits(ens.members, x)
    prefixes = reference_prefixes(ens.members, x)

    for k in range(1, len(ens.members) + 1):
        assert same_bits(ensemble_predict(ens, x, k), prefixes[k - 1])

    costs = [flops(m) for m in ens.members]
    teacher_flops = 1000
    expected_curve = []
    cum = 0
    for k, prefix in enumerate(prefixes, start=1):
        cum += costs[k - 1]
        expected_curve.append(CurvePoint(k, cum / teacher_flops, accuracy(prefix, labels)))
    assert anytime_curve(ens, x, labels, teacher_flops) == expected_curve

    got = early_exit(ens, x, threshold)
    for a, b in zip(got, reference_early_exit(prefixes, costs, threshold)):
        assert same_bits(a, b)

    residuals = [logits - g for logits in member_logits(ens.members, x)]
    expected = [logits - g for logits in expected_logits]
    assert len(residuals) == len(expected)
    for a, b in zip(residuals, expected):
        assert same_bits(a, b)
    report = verify_bound([], ens, x, g, 1.0)
    mean_resid = sum(expected) / len(expected)
    assert report.observed_max_residual == float(max(np.max(np.abs(r)) for r in expected))
    assert report.measured_sup_error == float(np.abs(mean_resid).max(axis=0).max())
    assert report.prediction_paths_agree


def _tapping_pair():
    """Two members; the second adds member 0's last hidden layer to its own."""
    spec = [LayerSpec(3, 4), LayerSpec(4, 4), LayerSpec(4, 2, "linear")]
    first = init_params(spec, RngStream(1).split(0))
    conn = ConnectionSpec("residual_add", source_round=0)
    second = init_params(spec, RngStream(1).split(1), conn)
    return Ensemble(members=[first, second], class_rs=[1, 2], eta=0.01, T=2, R=3)


@pytest.mark.parametrize("source_round, source_layer", [
    (5, 0),     # no such member
    (1, 0),     # the reader itself: not evaluated when it reads
    (0, 7),     # no such layer
    (0, -1),    # negative layer index
    (0, 0),     # a hidden layer, but not the last one
])
def test_loaded_ensemble_with_missing_tap_names_it(source_round, source_layer):
    """The loader refuses a tap of anything but the last hidden layer of an
    earlier member, naming the reading member and the field.  In memory a
    connection names its member alone: an ensemble built past the loader
    with a tap of a member not evaluated before it still has the tap named
    where it is read, and with member 0's it reads that member's last
    hidden layer."""
    doc = json.loads(json.dumps(ensemble_to_dict(_tapping_pair())))
    doc["members"][1]["connection"].update(source_round=source_round,
                                           source_layer=source_layer)
    if source_round != 0:
        refusal = f"'source_round' must be an earlier member's index in 0..0, got {source_round}"
    else:
        refusal = (f"'source_layer' must be member 0's last hidden layer's index, 1, "
                   f"got {source_layer}")
    with pytest.raises(ConfigError, match=f"^member 1: {re.escape(refusal)}$"):
        ensemble_from_dict(doc)
    ens = _tapping_pair()
    tapping = ens.members[1]
    tapping.connection = replace(tapping.connection, source_round=source_round)
    u, _ = RngStream(2).uniform(15)
    x = u.reshape(5, 3)
    g = np.zeros((5, 2))
    if source_round == 0:
        assert same_bits(ensemble_predict(ens, x, 2), reference_prefixes(ens.members, x)[-1])
        return
    name = f"missing cached activation for member {source_round}$"
    for call in (lambda: ensemble_predict(ens, x, 2),
                 lambda: anytime_curve(ens, x, np.zeros(5, dtype=np.int64), 100),
                 lambda: early_exit(ens, x, 0.9),
                 lambda: verify_bound([], ens, x, g, 1.0)):
        with pytest.raises(ConfigError, match=name):
            call()
    # the first member alone taps nothing and still evaluates
    assert ensemble_predict(ens, x, 1).shape == (5, 2)


def test_a_tap_of_a_later_member_is_refused_at_load():
    """Member 0 reading member 1, which runs after it: a forward tap."""
    doc = json.loads(json.dumps(ensemble_to_dict(_tapping_pair())))
    doc["members"][0]["connection"] = dict(doc["members"][1]["connection"], source_round=1)
    with pytest.raises(ConfigError, match=re.escape(
            "member 0: 'source_round' must be an earlier member's index (member 0 has none), "
            "got 1")):
        ensemble_from_dict(doc)
    # with member 0 unconnected again, the file loads
    doc["members"][0]["connection"] = {"kind": "none", "source_round": -1,
                                       "source_layer": -1, "target_layer": -1}
    assert len(ensemble_from_dict(doc).members) == 2


# --- row blocks --------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.data())
def test_blocks_keep_the_bits_of_the_whole_batch(data):
    """Row counts on and either side of the block edges, 1 to 5 blocks."""
    block_rows = data.draw(st.sampled_from((8, 16)), label="block_rows")
    rows = st.builds(lambda blocks, offset: max(1, blocks * block_rows + offset),
                     st.integers(1, 5), st.integers(-2, 2))
    ens, x, _, _ = data.draw(ensembles(rows=rows), label="case")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nets, "_BLOCK_ROWS", block_rows)
        got = list(member_logits(ens.members, x))
        prefix = ensemble_predict(ens, x, len(ens.members))
    expected = reference_member_logits(ens.members, x)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert same_bits(a, b)
    assert same_bits(prefix, reference_prefixes(ens.members, x)[-1])


def test_a_forked_search_after_a_blocked_prediction_sees_no_thread(monkeypatch):
    """Two members of three 1024-row blocks each, evaluated without starting
    a thread, then a search that forks a child: it returns the bits of the
    restart-by-restart loop, with Python's warning about forking a process
    that has other threads raised as an error, and leaves no child."""
    blocks, started = [], []
    row_blocks = nets.row_blocks
    monkeypatch.setattr(nets, "row_blocks",
                        lambda n, rows: blocks.append(n // rows) or row_blocks(n, rows))
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self) or start(self))
    threads = threading.active_count()
    ens = _tapping_pair()
    u, _ = RngStream(4).uniform(3 * nets._BLOCK_ROWS * 3)
    x = u.reshape(-1, 3)
    assert same_bits(ensemble_predict(ens, x, 2), reference_prefixes(ens.members, x)[-1])
    assert blocks == [3, 3]
    assert started == [] and threading.active_count() == threads

    args, kwargs = _search("degenerate")
    want = loop_reference(*args, **kwargs)
    monkeypatch.setattr(findwl, "_usable_cpus", lambda: 2)
    with warnings.catch_warnings():
        # Python 3.12+ warns when a process with other threads forks
        warnings.simplefilter("error", DeprecationWarning)
        assert_same_result(find_weak_learner(*args, **kwargs), want)
    assert_no_child_left()
