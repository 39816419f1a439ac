"""Tests for the outer boosting loop, ensemble prediction, and run I/O."""

import hashlib
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ensdistill.distill as distill_mod
from ensdistill.core import RngStream
from ensdistill.data import (default_teacher_recipe, gen_cube, mlp_spec, split, teacher_logits,
                             train_teacher)
from ensdistill.distill import (
    DistillConfig,
    Ensemble,
    ensemble_predict,
    ensemble_to_dict,
    load_ensemble,
    member_logits,
    read_history,
    resolve_eta,
    run,
    save_ensemble,
    write_history,
)
from ensdistill.findwl import FindResult, FindWlConfig, SgdConfig
from ensdistill.game import init_uniform, md_update
from ensdistill.nets import (CONNECTION_KINDS, ConfigError, LayerSpec, expand_class, forward,
                             init_params, params_to_dict)


def _small_problem(seed=0, n=16, d=3, labels=2):
    rng = RngStream(seed)
    x, rng = rng.gaussian(n * d)
    g, _ = rng.gaussian(n * labels)
    return x.reshape(n, d), g.reshape(n, labels)


def _fast_config(**overrides):
    base = dict(
        T=3, R=2, eta=0.3, seed=5,
        base_hidden=[4],
        findwl=FindWlConfig(barrier_gamma=10.0, max_search=2,
                            sgd=SgdConfig(lr=0.05, weight_decay=0.0, epochs=20, batch_size=16)),
    )
    base.update(overrides)
    return DistillConfig(**base)


# --- config -----------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        _fast_config(T=0).validate()
    with pytest.raises(ValueError):
        _fast_config(R=0).validate()
    with pytest.raises(ValueError):
        _fast_config(R=1).validate()
    with pytest.raises(ValueError):
        _fast_config(eta=0.0).validate()
    # a connected class taps a hidden layer, which an empty base lacks
    with pytest.raises(ConfigError, match="'base_hidden' must be a non-empty list"):
        _fast_config(base_hidden=[]).validate()
    _fast_config(base_hidden=[], connection_kind="none").validate()
    _fast_config().validate()


@pytest.mark.parametrize("section, key, value", [
    ("top", "eta", float("nan")), ("top", "eta", float("inf")),
    ("top", "edge_tol", float("nan")), ("findwl", "barrier_gamma", float("inf")),
    ("sgd", "lr", float("nan")), ("sgd", "weight_decay", float("inf")),
])
def test_config_refuses_non_finite_values_by_name(section, key, value):
    cfg = _fast_config()
    target = {"top": cfg, "findwl": cfg.findwl, "sgd": cfg.findwl.sgd}[section]
    setattr(target, key, value)
    with pytest.raises(ConfigError, match=f"'{key}'"):
        cfg.validate()


# a value of the wrong type is refused by name, not left to fail (or pass)
# where it is first used; with `g_inf` set, `eta` is the rate field left unread
@pytest.mark.parametrize("section, key, value", [
    ("findwl", "max_search", 2.5), ("sgd", "epochs", 2.5), ("sgd", "batch_size", True),
    ("top", "T", True), ("top", "T", "7"), ("top", "seed", "x"), ("top", "eta", "x"),
])
def test_config_refuses_values_of_the_wrong_type_by_name(section, key, value):
    cfg = _fast_config(g_inf=2.0)
    cfg.validate()
    target = {"top": cfg, "findwl": cfg.findwl, "sgd": cfg.findwl.sgd}[section]
    setattr(target, key, value)
    with pytest.raises(ConfigError, match=f"'{key}'"):
        cfg.validate()


def test_resolve_eta_fixed_and_theorem():
    assert resolve_eta(_fast_config(eta=0.7), n_samples=50) == 0.7
    cfg = _fast_config(eta=1.0, g_inf=2.0, T=8)
    expected = np.sqrt(np.log(100.0) / 8) / 2.0
    assert abs(resolve_eta(cfg, n_samples=50) - expected) < 1e-15


# --- loop structure via stubbed searches ------------------------------------

def test_always_passing_search_fills_ensemble(monkeypatch):
    calls = []

    def stub(state, spec, connection, x, g_logits, cfg, rng, tap=None, edge_tol=0.0):
        calls.append(connection.kind)
        params = init_params(spec, rng.split(0), connection)
        return FindResult(params, "pass", 0, 0, forward(params, x, tap)[0])

    monkeypatch.setattr(distill_mod, "find_weak_learner", stub)
    x, g = _small_problem()
    ens, hist = run(_fast_config(T=4, R=3, eta=0.05), x, g)
    assert len(ens.members) == 4
    assert len(hist.rounds) == 4
    assert hist.escalations == []
    assert ens.class_rs == [1, 1, 1, 1]
    assert [rec.round_index for rec in hist.rounds] == [1, 2, 3, 4]


# the loop searches classes r = 1 .. R-1: r = 1 is the base class, and only
# r >= 2 adds a connection, so the default R = 2 never reaches one
@pytest.mark.parametrize("R, kinds", [(2, ["none", "none"]),
                                      (3, ["none", "none", "residual_add"])],
                         ids=["R2", "R3"])
def test_always_failing_search_traces_escalations(monkeypatch, R, kinds):
    searched = []

    def stub(state, spec, connection, x, g_logits, cfg, rng, tap=None, edge_tol=0.0):
        searched.append(connection.kind)
        if np.array_equal(state.kplus, state.kminus):
            params = init_params(spec, rng.split(0), connection)
            return FindResult(params, "degenerate", 0, 0, forward(params, x, tap)[0])
        return FindResult(None)

    monkeypatch.setattr(distill_mod, "find_weak_learner", stub)
    x, g = _small_problem()
    ens, hist = run(_fast_config(T=5, R=R, eta=0.05), x, g)
    assert len(ens.members) == 1               # the degenerate round only
    assert hist.rounds[0].class_r == 1
    assert len(hist.escalations) == R - 1      # R-1 escalations, then halt
    assert [new_r for _, new_r in hist.escalations] == list(range(2, R + 1))
    assert searched == kinds


def test_overflowing_candidates_escalate_instead_of_crashing(monkeypatch):
    def stub(state, spec, connection, x, g_logits, cfg, rng, tap=None, edge_tol=0.0):
        params = init_params(spec, rng.split(0), connection)
        params.biases[-1][:] = 1e6            # eta*|l| far past the exp limit
        return FindResult(params, "pass", 0, 0, forward(params, x, tap)[0])

    monkeypatch.setattr(distill_mod, "find_weak_learner", stub)
    x, g = _small_problem()
    # memberless escalation has nothing to tap, so a connected run halts
    ens, hist = run(_fast_config(T=3, R=3), x, g)
    assert ens.members == []
    assert hist.escalations == [(0, 2)]
    # with no connections the base class is retried until the budget runs out
    ens, hist = run(_fast_config(T=3, R=3, connection_kind="none"), x, g)
    assert ens.members == []
    assert [new_r for _, new_r in hist.escalations] == [2, 3]


def test_run_reuses_the_search_logits_and_taps_only_for_a_connected_class(monkeypatch):
    # the base class fails once a member exists, so the run escalates to the
    # connected class; 2500 rows are two row blocks of `nets.split_head`
    forwards, splits, searches = [], [], []
    monkeypatch.setattr(distill_mod, "forward",
                        lambda *a, **k: forwards.append(a) or forward(*a, **k))
    split_head = distill_mod.split_head
    monkeypatch.setattr(distill_mod, "split_head",
                        lambda *a: splits.append(a) or split_head(*a))
    search = distill_mod.find_weak_learner

    def stub(state, spec, connection, x, g_logits, cfg, rng, tap=None, edge_tol=0.0):
        if connection.kind == "none" and not np.array_equal(state.kplus, state.kminus):
            return FindResult(None)
        result = search(state, spec, connection, x, g_logits, cfg, rng, tap, edge_tol)
        searches.append((connection, tap, result))
        return result

    monkeypatch.setattr(distill_mod, "find_weak_learner", stub)
    rng = RngStream(12)
    x, _ = rng.split(0).gaussian(2500 * 32)
    g, _ = rng.split(1).gaussian(2500 * 2)
    x, g = x.reshape(2500, 32), g.reshape(2500, 2)
    sgd = SgdConfig(lr=0.005, epochs=1, batch_size=256)
    cfg = _fast_config(T=3, R=3, base_hidden=[24, 24],
                       findwl=FindWlConfig(max_search=1, sgd=sgd))
    ens, hist = run(cfg, x, g)
    assert forwards == []           # no pass over the split after a search
    tapped = [(conn, tap) for conn, tap, _ in searches if conn.kind != "none"]
    assert tapped and len(splits) == len({conn.source_round for conn, _ in tapped})
    for conn, tap in tapped:
        want = forward(ens.members[conn.source_round], x)[1][-2]   # its last hidden layer
        assert tap.tobytes() == want.tobytes()
    accepted = [result for _, _, result in searches if result.params is not None]
    assert len(accepted) == len(ens.members)
    assert all(result.params is member for result, member in zip(accepted, ens.members))
    # the first member's residuals, taken from the search's logits, replay
    # to the history's first round
    first = accepted[0]
    record = md_update(init_uniform(2500, 2), first.logits - g, ens.eta)[1]
    assert np.array_equal(hist.rounds[0].edge_gamma, record.edge_gamma)
    # with no connection, no class reads a tap
    splits.clear()
    run(_fast_config(T=2, R=2, base_hidden=[24, 24], connection_kind="none",
                     findwl=FindWlConfig(max_search=1, sgd=sgd)),
        x, g)
    assert splits == [] and forwards == []


def test_verify_replays_the_runs_logits_bit_for_bit(monkeypatch):
    """4800 training rows are four row blocks, and a 64-wide last hidden
    layer into 4 labels takes the output layer's product off BLAS's
    small-matrix path, where a row cut of it can change its bits.  The
    members read back from the ensemble file give each accepted
    candidate's own logits, so the history replays with ==, the connected
    member's included."""
    accepted = []
    search = distill_mod.find_weak_learner

    def stub(state, spec, connection, *args, **kwargs):
        # the base class fails once a member exists, so the run escalates
        if connection.kind == "none" and not np.array_equal(state.kplus, state.kminus):
            return FindResult(None)
        result = search(state, spec, connection, *args, **kwargs)
        if result.params is not None:
            accepted.append(result)
        return result

    monkeypatch.setattr(distill_mod, "find_weak_learner", stub)
    train, _ = split(gen_cube(3, 6000, 8), 0.8, 3)
    teacher = train_teacher(train, mlp_spec(8, [32, 32], 4),
                            replace(default_teacher_recipe(), epochs=10, batch_size=256), 3)
    g = teacher_logits(teacher, train.x)
    cfg = _fast_config(T=3, R=5, base_hidden=[64], seed=3,
                       findwl=FindWlConfig(max_search=3,
                                           sgd=SgdConfig(lr=0.1, epochs=4, batch_size=128)))
    ens, hist = run(cfg, train.x, g)
    assert train.x.shape[0] >= 2 * 2048
    assert [m.connection.kind for m in ens.members][:2] == ["none", "residual_add"]
    loaded = distill_mod.ensemble_from_dict(distill_mod.ensemble_to_dict(ens))
    got = list(member_logits(loaded.members, train.x))
    assert len(got) == len(accepted) == len(hist.rounds)
    state = init_uniform(*g.shape)
    for logits, result, rec in zip(got, accepted, hist.rounds):
        assert logits.tobytes() == result.logits.tobytes()
        state, replay = md_update(state, logits - g, loaded.eta)
        assert np.all(replay.edge_gamma == rec.edge_gamma) and np.all(replay.z == rec.z)


def test_empty_or_mismatched_data_rejected():
    x, g = _small_problem()
    with pytest.raises(ValueError):
        run(_fast_config(), x[:0], g[:0])
    with pytest.raises(ValueError):
        run(_fast_config(), x, g[:-1])


# --- realizable distillation ------------------------------------------------

def test_round_one_fits_realizable_teacher():
    # the teacher is a linear map inside the base class, so the degenerate
    # round's pure distillation drives the sup-norm residual to a few percent
    # of the teacher's own scale
    rng = RngStream(42)
    x, rng = rng.gaussian(32 * 4)
    x = x.reshape(32, 4)
    teacher = init_params([LayerSpec(4, 2, "linear")], rng.split(0))
    g, _ = forward(teacher, x)
    cfg = DistillConfig(
        T=1, R=2, eta=0.5, seed=3,
        base_hidden=[], connection_kind="none",
        findwl=FindWlConfig(max_search=1,
                            sgd=SgdConfig(lr=0.05, momentum=0.9, weight_decay=0.0,
                                          epochs=200, batch_size=32)))
    ens, hist = run(cfg, x, g)
    assert len(ens.members) == 1
    resid = ensemble_predict(ens, x, 1) - g
    assert np.abs(resid).max() <= 0.05 * np.abs(g).max()


# --- prediction -------------------------------------------------------------

def _constant_member(value, in_dim=3, out_dim=2):
    params = init_params([LayerSpec(in_dim, out_dim, "linear")], RngStream(0))
    params.weights[0][:] = 0.0
    params.biases[0][:] = value
    return params


def test_predict_k1_is_first_member():
    x, g = _small_problem(seed=9)
    ens, _ = run(_fast_config(T=2), x, g)
    first, _ = forward(ens.members[0], x)
    assert np.array_equal(ensemble_predict(ens, x, 1), first)


def test_predict_averages_constant_members():
    ens = Ensemble(seed=0, eta=1.0, T=2, R=2, teacher_hash="")
    ens.members = [_constant_member(0.0), _constant_member(2.0)]
    ens.class_rs = [1, 1]
    x = np.zeros((4, 3))
    out = ensemble_predict(ens, x, 2)
    assert np.array_equal(out, np.ones((4, 2)))


def test_predict_rejects_bad_prefix():
    ens = Ensemble(seed=0, eta=1.0, T=1, R=2, teacher_hash="")
    ens.members = [_constant_member(1.0)]
    ens.class_rs = [1]
    x = np.zeros((2, 3))
    with pytest.raises(ValueError):
        ensemble_predict(ens, x, 0)
    with pytest.raises(ValueError):
        ensemble_predict(ens, x, 2)


def test_telescoping_residual_identity():
    # residuals rebuilt from the members replay the recorded game bit for bit,
    # and their mean IS the ensemble residual
    x, g = _small_problem(seed=13)
    ens, hist = run(_fast_config(), x, g)
    k = len(ens.members)
    assert k >= 1
    residuals = [l - g for l in member_logits(ens.members, x)]
    state = init_uniform(*g.shape)
    for rec, resid in zip(hist.rounds, residuals, strict=True):
        state, replay = md_update(state, resid, ens.eta)
        assert replay.edge_gamma.tobytes() == rec.edge_gamma.tobytes()
        assert replay.z.tobytes() == rec.z.tobytes()
    mean_resid = np.mean(residuals, axis=0)
    direct = ensemble_predict(ens, x, k) - g
    assert np.max(np.abs(mean_resid - direct)) <= 1e-9


# --- serialization ----------------------------------------------------------

def test_ensemble_round_trip_bitwise(tmp_path):
    x, g = _small_problem(seed=21)
    ens, _ = run(_fast_config(), x, g)
    path = tmp_path / "ens.json"
    save_ensemble(path, ens)
    loaded = load_ensemble(path)
    assert loaded.seed == ens.seed
    assert loaded.eta == ens.eta
    assert loaded.class_rs == ens.class_rs
    k = len(ens.members)
    assert np.array_equal(ensemble_predict(ens, x, k), ensemble_predict(loaded, x, k))


@pytest.mark.parametrize("key, value", [
    ("seed", 1.5), ("eta", "0.3"), ("eta", 0.0), ("eta", float("inf")), ("T", "x"), ("R", 0),
    ("teacher_hash", 5), ("member_class_r", [0]), ("member_class_r", [1, 1]),
    ("member_class_r", []), ("member_class_r", "1"),
])
def test_load_refuses_a_meta_value_by_key(key, value):
    x, g = _small_problem(seed=21)
    ens, _ = run(_fast_config(), x, g)
    assert len(ens.members) == 1
    doc = distill_mod.ensemble_to_dict(ens)
    doc["meta"][key] = value
    with pytest.raises(ConfigError, match=f"'{key}' must be"):
        distill_mod.ensemble_from_dict(doc)


def test_save_refuses_an_ensemble_that_would_not_load(tmp_path):
    x, g = _small_problem(seed=21)
    ens, _ = run(_fast_config(), x, g)
    path = tmp_path / "ens.json"
    with pytest.raises(ConfigError, match="'T' must be"):
        save_ensemble(path, Ensemble(members=ens.members[:1], class_rs=[1]))
    assert not path.exists()


@pytest.mark.parametrize("key, value, refusal, underivable", [
    ("target_layer", 0, "'target_layer' must be the output layer's index, 1, got 0",
     "'spec' must be 2 layers or more with a 'dense_concat' connection, got 1"),
    ("source_layer", 1, "'source_layer' must be member 0's last hidden layer's index, 0, got 1",
     "'source_round' must be a member with a hidden layer to tap, got 0"),
], ids=["target_layer", "source_layer"])
def test_save_refuses_a_tap_that_a_load_refuses(tmp_path, key, value, refusal, underivable):
    """A connection feeds the output layer from an earlier member's last
    hidden layer, as `expand_class` builds it, and a file that records other
    layers is refused.  In memory a connection names its member alone and a
    save derives the layers, so what a save refuses is a tap with no layer
    to derive: a member with no hidden layer before its output layer, or a
    source member with none to tap.  A file of either is refused too."""
    base = mlp_spec(3, [4], 2)
    first = init_params(base, RngStream(1).split(0))
    spec, conn = expand_class(base, "dense_concat", 1, [first])
    ens = Ensemble(members=[first, init_params(spec, RngStream(1).split(1), conn)],
                   class_rs=[1, 2], eta=0.3, T=2, R=3)
    doc = distill_mod.ensemble_to_dict(ens)
    doc["members"][1]["connection"][key] = value
    with pytest.raises(ConfigError, match=f"^member 1: {re.escape(refusal)}$"):
        distill_mod.ensemble_from_dict(doc)
    if key == "target_layer":   # one layer over the features and the tap
        ens.members[1] = init_params([replace(spec[-1], in_dim=3 + 4)], RngStream(1).split(2),
                                     conn)
    else:                       # one layer over the features
        ens.members[0] = init_params([replace(base[-1], in_dim=3)], RngStream(1).split(3))
    path = tmp_path / "ens.json"
    with pytest.raises(ConfigError, match=f"^member 1: {re.escape(underivable)}$"):
        save_ensemble(path, ens)
    assert not path.exists()
    doc["members"] = [params_to_dict(ens.members[0]), params_to_dict(ens.members[1], 0)]
    with pytest.raises(ConfigError, match=f"^member 1: {re.escape(underivable)}$"):
        distill_mod.ensemble_from_dict(doc)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_an_expand_class_ensemble_keeps_its_bytes_and_logits_through_a_file(data):
    """For every kind, escalation level and base depth, an ensemble that
    `expand_class` builds is saved with the layers each connection joins,
    and loads back to the same bytes and the same `member_logits` bits."""
    kind = data.draw(st.sampled_from(CONNECTION_KINDS), label="kind")
    hidden = data.draw(st.lists(st.integers(1, 5), min_size=int(kind != "none"), max_size=3),
                       label="hidden")
    levels = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4), label="levels")
    d = data.draw(st.integers(1, 4), label="d")
    labels = data.draw(st.integers(1, 3), label="labels")
    rng = RngStream(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    base = mlp_spec(d, hidden, labels)
    members = []
    for i, r in enumerate(levels):
        spec, conn = expand_class(base, kind, r if members else 0, members)
        members.append(init_params(spec, rng.split(i), conn))
    ens = Ensemble(members=members, class_rs=[1] * len(members), eta=0.1, T=len(members), R=5)
    u, _ = rng.split(99).uniform(5 * d)
    x = u.reshape(5, d)
    with tempfile.TemporaryDirectory() as tmp:
        first, again = Path(tmp) / "first.json", Path(tmp) / "again.json"
        save_ensemble(first, ens)
        loaded = load_ensemble(first)
        save_ensemble(again, loaded)
        assert again.read_bytes() == first.read_bytes()
    for i, (member, recorded) in enumerate(zip(members, ensemble_to_dict(ens)["members"])):
        connected = member.connection.kind != "none"
        assert recorded["connection"] == {
            "kind": member.connection.kind, "source_round": i - 1 if connected else -1,
            "source_layer": len(hidden) - 1 if connected else -1,
            "target_layer": len(hidden) if connected else -1}
    for a, b in zip(member_logits(ens.members, x), member_logits(loaded.members, x),
                    strict=True):
        assert a.tobytes() == b.tobytes()


def test_save_is_deterministic(tmp_path):
    x, g = _small_problem(seed=21)
    ens, _ = run(_fast_config(), x, g)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_ensemble(a, ens)
    save_ensemble(b, ens)
    assert a.read_bytes() == b.read_bytes()


def test_history_round_trip(tmp_path):
    x, g = _small_problem(seed=25)
    ens, hist = run(_fast_config(), x, g)
    path = tmp_path / "history.csv"
    write_history(path, hist)
    rows = read_history(path)
    n_labels = g.shape[1]
    assert len(rows) == len(hist.rounds) * n_labels
    for rec in hist.rounds:
        for j in range(n_labels):
            row = rows[(rec.round_index - 1) * n_labels + j]
            assert row["round"] == rec.round_index
            assert row["label"] == j
            assert row["edge_gamma"] == float(rec.edge_gamma[j])
            assert row["z"] == float(rec.z[j])
            assert row["eta"] == rec.eta
            assert row["class_r"] == rec.class_r
            assert row["clamp_count"] == rec.clamp_count


def test_history_rejects_wrong_header(tmp_path):
    path = tmp_path / "history.csv"
    path.write_text("round,label,edge\n1,0,0.5\n")
    with pytest.raises(ValueError):
        read_history(path)


@pytest.fixture(scope="module")
def cube_teacher():
    """A 4-class cube problem whose runs reach a connection class."""
    train, _ = split(gen_cube(2, 600, 8), 0.8, 2)
    teacher = train_teacher(train, mlp_spec(8, [16, 16], 4),
                            replace(default_teacher_recipe(), epochs=40), seed=2)
    return train.x, teacher_logits(teacher, train.x)


# sha256 of each run's saved ensemble.json and history.csv
TAPPED_RUNS = {
    "residual_add": ("3b7385f8f08c09d6ddd82d0cd6e8a6978f8e2c3fc972582b966c0ba4d5d25517",
                     "5b30f5450e4706d779b744bdbc618b488eb9a12b0a5a41b79e426a9ee5320792"),
    "dense_concat": ("f84f79bd9a2c0abf1d32a92639c619ad421c3389ee6cf0794e16862878aa258b",
                     "8a032d161f58409a01a8d428bbd5956371d24844bf2f4082c5f98805ca9a9edf"),
    "delta": ("750662d8bda45acc604f9858799d670a1e110873eac35f4f7245af1a137c8428",
              "5bde813f8587fccafc38c55698ea675b2bd334572b66e95ffa4e434ff6d8114a"),
}


@pytest.mark.parametrize("kind", sorted(TAPPED_RUNS))
def test_tapped_run_is_byte_stable(kind, cube_teacher, tmp_path):
    x, g = cube_teacher
    cfg = DistillConfig(T=5, R=5, edge_tol=2.0, base_hidden=[8, 8],
                        connection_kind=kind, seed=2)
    ens, hist = run(cfg, x, g)
    assert max(ens.class_rs) >= 2, "no member of a connection class was accepted"
    save_ensemble(tmp_path / "ensemble.json", ens)
    write_history(tmp_path / "history.csv", hist)
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("ensemble.json", "history.csv"))
    assert digests == TAPPED_RUNS[kind]
