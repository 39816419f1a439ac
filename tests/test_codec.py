"""Every artifact reader/writer pair round-trips bit for bit through the codec.

Matrices are drawn over the whole finite float64 range, with -0.0,
subnormals and +-1e308 forced in, so a writer that prints a float any other
way than its repr, or a reader that parses it any other way than exactly,
shows up as a changed bit.
"""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ensdistill.core import read_csv
from ensdistill.data import (LabeledDataset, load_dataset_csv, load_logits_csv,
                             save_dataset_csv, save_logits_csv)
from ensdistill.distill import (Ensemble, RoundRecord, RunHistory, load_ensemble,
                                read_history, save_ensemble, write_history)
from ensdistill.evaluate import CURVE_COLUMNS, CurvePoint, write_curve_csv
from ensdistill.nets import CONNECTION_KINDS, ConnectionSpec, LayerSpec, LearnerParams

SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
           1e308, -1e308, 1.7976931348623157e308, 0.1, -1.0 / 3.0)
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)


def matrices(rows=st.integers(1, 6), cols=st.integers(1, 5)):
    return st.tuples(rows, cols).flatmap(
        lambda shape: arrays(np.float64, shape, elements=FLOATS))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def floats_bits(values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


@st.composite
def datasets(draw):
    x = draw(matrices())
    labels = draw(arrays(np.int64, x.shape[0], elements=INT64))
    return LabeledDataset(x=x, labels=labels)


@st.composite
def histories(draw):
    n_labels = draw(st.integers(1, 4))
    hist = RunHistory()
    for t in range(draw(st.integers(0, 4))):
        gamma, z = (draw(arrays(np.float64, n_labels, elements=FLOATS)) for _ in range(2))
        hist.rounds.append(RoundRecord(
            round_index=t + 1, class_r=draw(st.integers(1, 9)), edge_gamma=gamma, z=z,
            eta=draw(FLOATS), clamp_count=draw(st.integers(0, 10 ** 6)),
            verdict="pass", train_loss=0.0))
    return hist


@st.composite
def ensembles(draw):
    members = []
    for _ in range(draw(st.integers(0, 3))):
        dims = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
        spec = [LayerSpec(a, b, "relu") for a, b in zip(dims, dims[1:])]
        spec[-1] = LayerSpec(dims[-2], dims[-1], "linear")
        conn = ConnectionSpec(draw(st.sampled_from(CONNECTION_KINDS)),
                              *(draw(st.integers(-1, 5)) for _ in range(3)))
        members.append(LearnerParams(
            spec=spec, connection=conn,
            weights=[draw(arrays(np.float64, (s.in_dim, s.out_dim), elements=FLOATS))
                     for s in spec],
            biases=[draw(arrays(np.float64, s.out_dim, elements=FLOATS)) for s in spec]))
    return Ensemble(members=members, class_rs=[draw(st.integers(1, 9)) for _ in members],
                    seed=draw(st.integers(0, 2 ** 64 - 1)), eta=draw(FLOATS),
                    T=draw(st.integers(1, 50)), R=draw(st.integers(1, 9)),
                    teacher_hash=draw(st.text(max_size=16)))


@settings(max_examples=60, deadline=None)
@given(datasets(), matrices(), histories(),
       st.lists(st.tuples(st.integers(1, 99), FLOATS, FLOATS), max_size=5), ensembles())
def test_every_artifact_round_trips_bit_for_bit(ds, logits, hist, curve, ens):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_dataset_csv(tmp / "dataset.csv", ds)
        back = load_dataset_csv(tmp / "dataset.csv")
        assert same_bits(back.x, ds.x) and same_bits(back.labels, ds.labels)

        save_logits_csv(tmp / "logits.csv", logits)
        assert same_bits(load_logits_csv(tmp / "logits.csv"), logits)

        write_history(tmp / "history.csv", hist)
        rows = read_history(tmp / "history.csv")
        expected = [(rec.round_index, j, rec.class_r, rec.clamp_count)
                    for rec in hist.rounds for j in range(len(rec.edge_gamma))]
        assert [(r["round"], r["label"], r["class_r"], r["clamp_count"]) for r in rows] == expected
        for key, values in (("edge_gamma", [g for rec in hist.rounds for g in rec.edge_gamma]),
                            ("z", [z for rec in hist.rounds for z in rec.z]),
                            ("eta", [rec.eta for rec in hist.rounds for _ in rec.edge_gamma])):
            assert floats_bits([r[key] for r in rows]) == floats_bits(values), key

        points = [CurvePoint(k, frac, acc) for k, frac, acc in curve]
        write_curve_csv(tmp / "curve.csv", points)
        loaded = list(read_csv(tmp / "curve.csv", CURVE_COLUMNS))
        assert [int(k) for k, _, _ in loaded] == [p.prefix_k for p in points]
        for col, key in ((1, "cum_flops_fraction"), (2, "accuracy")):
            assert floats_bits([float(row[col]) for row in loaded]) == \
                floats_bits([getattr(p, key) for p in points])

        save_ensemble(tmp / "ensemble.json", ens)
        got = load_ensemble(tmp / "ensemble.json")
        assert (got.class_rs, got.seed, got.T, got.R, got.teacher_hash) == \
            (ens.class_rs, ens.seed, ens.T, ens.R, ens.teacher_hash)
        assert floats_bits([got.eta]) == floats_bits([ens.eta])
        assert len(got.members) == len(ens.members)
        for a, b in zip(got.members, ens.members):
            assert (a.spec, a.connection) == (b.spec, b.connection)
            assert all(same_bits(u, v) for u, v in zip(a.weights + a.biases,
                                                        b.weights + b.biases))


@pytest.mark.parametrize("reader", [load_dataset_csv, load_logits_csv, read_history],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("text", ["", "\r\n0.5,1\r\n", "a,b\r\n0.5,1\r\n"],
                         ids=["empty", "blank-first-line", "wrong-header"])
def test_csv_readers_name_the_file_of_a_bad_header(reader, text, tmp_path):
    path = tmp_path / "artifact.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.raises(ValueError, match=re.escape(str(path))):
        reader(path)


@pytest.mark.parametrize("reader, text", [
    (load_dataset_csv, "x0,x1,label\r\n0.5,1\r\n"),
    (load_logits_csv, "l0,l1\r\n0.5,1\r\n0.5\r\n"),
    (read_history, "round,label,edge_gamma,z,eta,class_r,clamp_count\r\n1,0,0.5,1.0\r\n"),
    (read_history, "round,label,edge_gamma,z,eta,class_r,clamp_count\r\n"
                   "1,0,0.5,1.0,1.0,1,0\r\n\r\n"),
    (load_dataset_csv, "x0,label\r\n"),
    (load_logits_csv, "l0\r\n"),
], ids=["dataset-short-row", "logits-short-row", "history-short-row", "history-blank-row",
        "dataset-no-rows", "logits-no-rows"])
def test_csv_readers_name_the_file_of_a_truncated_body(reader, text, tmp_path):
    path = tmp_path / "artifact.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.raises(ValueError, match=re.escape(str(path))):
        reader(path)
