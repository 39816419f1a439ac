"""Every artifact reader/writer pair round-trips bit for bit through the codec.

Matrices are drawn over the whole finite float64 range, with -0.0,
subnormals and +-1e308 forced in, so a writer that prints a float any other
way than its repr, or a reader that parses it any other way than exactly,
shows up as a changed bit.  The table reader is also checked against the
csv-module reader it replaced, on valid and on broken dataset and logits
files, the table writer against the csv-module writer on every kind of
table, and the binary sidecar each data file is written with against the
parse of that file.  The round trip and the differential cases read with no
sidecar present, so they test the parse.  The cell encoder alone is checked
against repr and str on floats drawn from raw 64-bit patterns (every
exponent, subnormals, +-0.0, +-inf and NaN payloads), on pinned cells
(boundaries, every power of two and the floats beside it, the 4096 least
subnormals, 2**18 seeded raw patterns) and on int64 cells at both ends.  A
table formatted in forked children, at any CPU count, must be the bytes of
the one-process write, and a child that fails must be named with no child
left behind.
"""

import hashlib
import multiprocessing
import os
import re
import signal
import tempfile
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracle_runs import read_csv, write_csv
from test_stack import assert_no_child_left

from ensdistill import core
from ensdistill.core import (RngStream, _file_sha256, read_numeric_csv, write_numeric_csv,
                            write_table)
from ensdistill.data import (LabeledDataset, load_dataset_csv, load_logits_csv, mlp_spec,
                             save_dataset_csv, save_logits_csv)
from ensdistill.distill import (HISTORY_RECORD, Ensemble, RoundRecord, RunHistory,
                                load_ensemble, read_history, save_ensemble, write_history)
from ensdistill.evaluate import CURVE_RECORD, CurvePoint, write_curve_csv
from ensdistill.nets import (CONNECTION_KINDS, ConnectionSpec, LayerSpec, LearnerParams,
                             forward, init_params)

SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
           1e308, -1e308, 1.7976931348623157e308, 0.1, -1.0 / 3.0)
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
# an ensemble's eta: its loader refuses one that is not finite and > 0
POSITIVE_FLOATS = st.one_of(st.sampled_from([v for v in SPECIAL if v > 0]),
                            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
LABELS = st.integers(0, 2 ** 63 - 1)      # the dataset loader refuses negative labels


def matrices(rows=st.integers(1, 6), cols=st.integers(1, 5)):
    return st.tuples(rows, cols).flatmap(
        lambda shape: arrays(np.float64, shape, elements=FLOATS))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def floats_bits(values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


@st.composite
def datasets(draw, labels=LABELS, x=matrices()):
    x = draw(x)
    return LabeledDataset(x=x, labels=draw(arrays(np.int64, x.shape[0], elements=labels)))


@st.composite
def histories(draw):
    n_labels = draw(st.integers(1, 4))
    hist = RunHistory()
    for t in range(draw(st.integers(0, 4))):
        gamma, z = (draw(arrays(np.float64, n_labels, elements=FLOATS)) for _ in range(2))
        hist.rounds.append(RoundRecord(
            round_index=t + 1, class_r=draw(st.integers(1, 9)), edge_gamma=gamma, z=z,
            eta=draw(FLOATS), clamp_count=draw(st.integers(0, 10 ** 6))))
    return hist


@st.composite
def ensembles(draw):
    members = []
    for _ in range(draw(st.integers(0, 3))):
        dims = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
        spec = [LayerSpec(a, b, "relu") for a, b in zip(dims, dims[1:])]
        spec[-1] = LayerSpec(dims[-2], dims[-1], "linear")
        # only a member with a hidden layer, with an earlier one that has a
        # hidden layer, can be connected
        sources = [i for i, m in enumerate(members) if len(m.spec) >= 2]
        connectable = sources and len(spec) >= 2
        kind = draw(st.sampled_from(CONNECTION_KINDS if connectable else ["none"]))
        if kind == "none":
            conn = ConnectionSpec(kind, draw(st.integers(-1, 5)))
        else:
            # a connected net feeds its output layer from the last hidden
            # layer of an earlier member, or it does not load
            conn = ConnectionSpec(kind, draw(st.sampled_from(sources)))
        members.append(LearnerParams(
            spec=spec, connection=conn,
            weights=[draw(arrays(np.float64, (s.in_dim, s.out_dim), elements=FLOATS))
                     for s in spec],
            biases=[draw(arrays(np.float64, s.out_dim, elements=FLOATS)) for s in spec]))
    return Ensemble(members=members, class_rs=[draw(st.integers(1, 9)) for _ in members],
                    seed=draw(st.integers(0, 2 ** 64 - 1)), eta=draw(POSITIVE_FLOATS),
                    T=draw(st.integers(1, 50)), R=draw(st.integers(1, 9)),
                    teacher_hash=draw(st.text(max_size=16)))


@settings(max_examples=60, deadline=None)
@given(datasets(), matrices(), histories(),
       st.lists(st.tuples(st.integers(1, 99), FLOATS, FLOATS), max_size=5), ensembles())
def test_every_artifact_round_trips_bit_for_bit(ds, logits, hist, curve, ens):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_dataset_csv(tmp / "dataset.csv", ds)
        (tmp / "dataset.csv.npz").unlink()
        back = load_dataset_csv(tmp / "dataset.csv")
        assert same_bits(back.x, ds.x) and same_bits(back.labels, ds.labels)

        save_logits_csv(tmp / "logits.csv", logits)
        (tmp / "logits.csv.npz").unlink()
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
        loaded = list(read_csv(tmp / "curve.csv", CURVE_RECORD.names))
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
    with pytest.raises(ValueError, match=re.escape(f"bad header in {path}")):
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


# --- the numeric reader against the csv-module reader it replaced ------------

def _dataset_columns(width):
    return [f"x{i}" for i in range(width - 1)] + ["label"]


def _logits_columns(width):
    return [f"l{i}" for i in range(width)]


def _refuse_first(path, flags, what):
    for line, bad in enumerate(flags, start=2):
        if bad:
            raise ValueError(f"{path} line {line}: {what}")


def csv_module_dataset(path):
    """The dataset reader before numpy parsed the body: csv rows, float, int;
    then the cell checks every dataset load makes."""
    values, labels = array("d"), []
    for row in read_csv(path, _dataset_columns):
        values.extend(map(float, row[:-1]))
        labels.append(int(row[-1]))
    if not labels:
        raise ValueError(f"{path} has no data rows")
    x = np.frombuffer(values, dtype=np.float64).reshape(len(labels), -1)
    labels = np.array(labels, dtype=np.int64)
    _refuse_first(path, (not np.isfinite(row).all() for row in x), "non-finite feature")
    _refuse_first(path, labels < 0, "negative label")
    return x, labels


def csv_module_logits(path):
    values, n_rows = array("d"), 0
    for n_rows, row in enumerate(read_csv(path, _logits_columns), start=1):
        values.extend(map(float, row))
    if not n_rows:
        raise ValueError(f"{path} has no data rows")
    logits = np.frombuffer(values, dtype=np.float64).reshape(n_rows, -1)
    _refuse_first(path, (not np.isfinite(row).all() for row in logits), "non-finite logit")
    return logits


def numeric_dataset(path):
    ds = load_dataset_csv(path)
    return ds.x, ds.labels


READERS = {"dataset": (csv_module_dataset, numeric_dataset),
           "logits": (csv_module_logits, load_logits_csv)}
VALID = ("none", "no-final-newline", "lf-endings", "quoted-cell")
BROKEN = ("blank-line", "short-row", "long-row", "trailing-comma", "non-finite-cell")
LABEL_ONLY = ("non-integer-label", "label-out-of-range", "negative-label")


@st.composite
def numeric_files(draw):
    """(kind, mutation, file text): a dataset or logits file as the codec
    writes it, then changed by one mutation."""
    kind = draw(st.sampled_from(sorted(READERS)))
    x = draw(matrices(rows=st.integers(0, 6)))
    rows = [[repr(v) for v in row] for row in x.tolist()]
    if kind == "dataset":
        header = _dataset_columns(x.shape[1] + 1)
        for row in rows:
            row.append(str(draw(LABELS)))
    else:
        header = _logits_columns(x.shape[1])
    mutation = draw(st.sampled_from(VALID + BROKEN + (LABEL_ONLY if kind == "dataset" else ())))
    if rows and mutation not in VALID[:3]:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        cell = draw(st.integers(0, len(row) - 1))
        if mutation == "quoted-cell":
            row[cell] = f'"{row[cell]}"'
        elif mutation == "short-row":
            del row[cell]
        elif mutation == "long-row":
            row.insert(cell, repr(draw(FLOATS)))
        elif mutation == "trailing-comma":
            row.append("")
        elif mutation == "non-finite-cell":
            floats = len(row) - (kind == "dataset")
            row[draw(st.integers(0, floats - 1))] = draw(st.sampled_from(["nan", "inf", "-inf"]))
        elif mutation == "non-integer-label":
            row[-1] = draw(st.sampled_from(["1.5", "1.0", "1e3", "abc", "", "0x1f", "nan"]))
        elif mutation == "label-out-of-range":
            row[-1] = str(draw(st.sampled_from([2 ** 63, -2 ** 63 - 1, 10 ** 30])))
        elif mutation == "negative-label":
            row[-1] = str(draw(st.integers(-2 ** 63, -1)))
    lines = [",".join(header)] + [",".join(row) for row in rows]
    if mutation == "blank-line" and rows:
        lines.insert(draw(st.integers(2, len(lines))), "")
    eol = "\n" if mutation == "lf-endings" else "\r\n"
    return kind, mutation, eol.join(lines) + ("" if mutation == "no-final-newline" else eol)


def _outcome(reader, path):
    try:
        return reader(path), None
    # the csv-module reader let a label beyond int64 through int(), and then
    # np.array raised OverflowError; the numeric reader raises ValueError
    except (ValueError, OverflowError) as exc:
        return None, exc


@settings(max_examples=300, deadline=None)
@given(numeric_files())
def test_numeric_reader_agrees_with_the_csv_module_reader(case):
    kind, mutation, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{kind}.csv"
        path.write_text(text, encoding="utf-8", newline="")
        oracle, numeric = READERS[kind]
        old, old_exc = _outcome(oracle, path)
        new, new_exc = _outcome(numeric, path)
    assert (old_exc is None) == (new_exc is None), (mutation, old_exc, new_exc)
    if new_exc is None:
        old, new = (old, new) if kind == "dataset" else ((old,), (new,))
        assert all(same_bits(a, b) for a, b in zip(old, new)), mutation
    else:
        assert isinstance(new_exc, ValueError) and str(path) in str(new_exc), new_exc
        if str(path) in str(old_exc):   # any rejection but a parse error's
            assert str(new_exc) == str(old_exc)


@pytest.mark.parametrize("n, d", [(1, 1), (7, 3), (300, 32)])
def test_a_loaded_dataset_computes_as_its_contiguous_copy(n, d, tmp_path):
    rng = np.random.default_rng(n + d)
    ds = LabeledDataset(x=rng.uniform(-1.0, 1.0, (n, d)), labels=rng.integers(0, 4, n))
    save_dataset_csv(tmp_path / "dataset.csv", ds)
    loaded = load_dataset_csv(tmp_path / "dataset.csv")
    assert n == 1 or not loaded.x.flags["C_CONTIGUOUS"]   # rows step d + 1 floats
    params = init_params(mlp_spec(d, [24, 24], 4), RngStream(d))
    for x in (loaded.x, loaded.x[-1:]):
        assert same_bits(forward(params, x)[0], forward(params, np.ascontiguousarray(x))[0])


# --- the sidecar beside each numeric file --------------------------------------

def _dataset_record(width):
    return np.dtype([("x", np.float64, (width - 1,)), ("label", np.int64)])


def _logits_record(width):
    return np.dtype([("l", np.float64, (width,))])


def _dataset_table(ds):
    records = np.empty(ds.n, _dataset_record(ds.d + 1))
    records["x"], records["label"] = ds.x, ds.labels
    return records


def _logits_table(logits):
    records = np.empty(len(logits), _logits_record(logits.shape[1]))
    records["l"] = logits
    return records


def parsed(path, record):
    """`read_numeric_csv` of `path` with its sidecar moved away and back."""
    sidecar = Path(f"{path}.npz")
    aside = sidecar.with_suffix(".aside")
    sidecar.rename(aside)
    try:
        return read_numeric_csv(path, record)
    finally:
        aside.rename(sidecar)


@settings(max_examples=60, deadline=None)
@given(datasets(labels=INT64), matrices())
def test_a_sidecar_holds_what_parsing_its_file_gives(ds, logits):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_dataset_csv(tmp / "dataset.csv", ds)
        save_logits_csv(tmp / "logits.csv", logits)
        for path, record in ((tmp / "dataset.csv", _dataset_record),
                             (tmp / "logits.csv", _logits_record)):
            with np.load(f"{path}.npz", allow_pickle=False) as npz:
                saved = npz["records"]
            assert same_bits(read_numeric_csv(path, record), saved)
            assert same_bits(parsed(path, record), saved)


# row counts up to 600, a few of them around 256 (block edges: test_block_edges_change_no_byte)
BLOCK_ROWS = st.one_of(st.integers(0, 6), st.sampled_from([256, 257, 600]))


def tables(record, rows=BLOCK_ROWS):
    """Record arrays of the scalar fields of `record`: an int64 cell drawn
    over the whole int64 range, a float64 cell from FLOATS."""
    cells = st.tuples(*(INT64 if record[name] == np.int64 else FLOATS for name in record.names))
    return rows.flatmap(lambda n: arrays(record, n, elements=cells))


@settings(max_examples=40, deadline=None)
@given(datasets(labels=INT64, x=matrices(rows=BLOCK_ROWS)),
       matrices(rows=BLOCK_ROWS, cols=st.one_of(st.just(1), st.integers(1, 5))),
       tables(HISTORY_RECORD), tables(CURVE_RECORD))
def test_the_numeric_writer_writes_what_the_csv_module_writes(ds, logits, history, curve):
    """`write_table` against `write_csv` of the same names and rows, on
    dataset, logits, history and curve records drawn with subnormals, -0.0,
    int64 cells at both ends and one-column logits; the digest it returns is
    the file's, and `write_numeric_csv` writes the same bytes with a sidecar
    of that digest and those records."""
    dataset, matrix = _dataset_table(ds), _logits_table(logits)
    rows = [row + [label] for row, label in zip(ds.x.tolist(), ds.labels.tolist())]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for records, names, cells in (
                (dataset, _dataset_columns(ds.d + 1), rows),
                (matrix, _logits_columns(logits.shape[1]), logits.tolist()),
                (history, HISTORY_RECORD.names, history.tolist()),
                (curve, CURVE_RECORD.names, curve.tolist())):
            digest = write_table(tmp / "table.csv", records)
            write_csv(tmp / "reference.csv", names, cells)
            raw = (tmp / "table.csv").read_bytes()
            assert raw == (tmp / "reference.csv").read_bytes()
            assert digest == hashlib.sha256(raw).hexdigest()
        for records in (dataset, matrix):
            digest = write_table(tmp / "table.csv", records)
            write_numeric_csv(tmp / "numeric.csv", records)
            assert (tmp / "numeric.csv").read_bytes() == (tmp / "table.csv").read_bytes()
            with np.load(tmp / "numeric.csv.npz", allow_pickle=False) as npz:
                assert str(npz["csv_sha256"]) == digest
                assert same_bits(npz["records"], records)


# --- the cell encoder against repr and str ----------------------------------------

# cells where the digits or their layout change: both sides of the switch to
# the exponent form, 2**53 +- k, the least subnormal and normal floats, the
# largest float, decimals with no exact binary value, and large floats whose
# digits hang on a half-way point that scales exactly
BOUNDARY = (1e-05, 0.0001, 9.999999999999999e-05, 0.00010000000000000002, 1e15, 1e16,
            999999999999999.9, 9999999999999998.0, 1.0000000000000002e16, 1e17, 123.0, 0.5,
            *(2.0 ** 53 + k for k in range(-4, 5)), 2.0 ** 54, 5e-324, 1e-323,
            2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
            0.3, 0.1, 1e23, 1e22, 5e-310, 123456789012345.67,
            1.806717506761523e16, 7.36760751540142e16, 2.947043006160568e17, 4.6e22)
EVERY_POWER_OF_TWO = tuple(2.0 ** k for k in range(-1074, 1024))
NON_FINITE_BITS = (0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000,
                   0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF)
FLOAT_BITS = st.one_of(
    st.integers(0, 2 ** 64 - 1),
    st.sampled_from(NON_FINITE_BITS),
    st.sampled_from([int(v) for v in np.array(BOUNDARY + tuple(-v for v in BOUNDARY))
                     .view(np.uint64)]))
INT64_ENDS = (-2 ** 63, -2 ** 63 + 1, -10 ** 18, -1, 0, 1, 9, 10, 10 ** 18 - 1, 10 ** 18,
              2 ** 63 - 2, 2 ** 63 - 1)
# the least subnormals, where repr may print a single digit ("5e-324"), and
# at each finite nonzero exponent the floats beside its power of two
# (fractions 1 and 2**52 - 1) and the one half-way up (2**51)
SUBNORMALS = np.arange(1, 4097, dtype=np.uint64).view(np.float64)
BESIDE_POWERS = (np.arange(1, 2047, dtype=np.uint64)[:, None] << np.uint64(52)
                 | np.array([1, 2 ** 51, 2 ** 52 - 1], dtype=np.uint64)).view(np.float64)
RAW_PATTERNS = np.random.default_rng(34).integers(2 ** 64, size=2 ** 18, dtype=np.uint64)


def repr_lines(values) -> bytes:
    """The lines the csv module writes for the rows of `values`: repr of a
    float, str of an int."""
    return "".join(",".join(map(repr, row)) + "\r\n" for row in values.tolist()).encode()


def one_field(values):
    records = np.empty(len(values), [("c", values.dtype, values.shape[1:])])
    records["c"] = values
    return records


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(1, 40), st.integers(1, 6)).flatmap(
    lambda shape: arrays(np.uint64, shape, elements=FLOAT_BITS)))
def test_the_encoder_writes_repr_of_every_float64(bits):
    values = bits.view(np.float64)
    assert core._encode_block(one_field(values)) == repr_lines(values)


@pytest.mark.parametrize("cells", [
    BOUNDARY + tuple(-v for v in BOUNDARY) + (0.0, -0.0),
    EVERY_POWER_OF_TWO + tuple(-v for v in EVERY_POWER_OF_TWO),
    np.array(INT64_ENDS, dtype=np.int64),
    np.concatenate([SUBNORMALS, -SUBNORMALS]),
    BESIDE_POWERS,
    RAW_PATTERNS.view(np.float64),
], ids=["boundary", "powers-of-two", "int64-ends", "subnormals", "beside-powers-of-two",
        "raw-patterns"])
def test_the_encoder_writes_repr_of_the_pinned_cells(cells):
    values = np.asarray(cells).reshape(-1, 2)
    assert core._encode_block(one_field(values)) == repr_lines(values)


@settings(max_examples=100, deadline=None)
@given(arrays(np.int64, st.tuples(st.integers(1, 30), st.integers(1, 4)),
              elements=st.one_of(INT64, st.sampled_from(INT64_ENDS))))
def test_the_encoder_writes_str_of_every_int64(values):
    assert core._encode_block(one_field(values)) == repr_lines(values)


def test_non_finite_cells_are_written_as_repr_writes_them(tmp_path):
    """inf, -inf and every NaN (either sign, any payload) are written as
    `repr` writes them, in a dataset, a logits table and a history."""
    odd = np.array(NON_FINITE_BITS, dtype=np.uint64).view(np.float64)
    ds = LabeledDataset(x=np.stack([odd, odd[::-1]]), labels=np.array([3, 0]))
    history = np.array([(1, 0, np.inf, np.nan, -np.inf, 1, 0)], HISTORY_RECORD)
    for records, names, cells in (
            (_dataset_table(ds), _dataset_columns(ds.d + 1),
             [row + [label] for row, label in zip(ds.x.tolist(), ds.labels.tolist())]),
            (_logits_table(ds.x), _logits_columns(ds.d), ds.x.tolist()),
            (history, HISTORY_RECORD.names, history.tolist())):
        write_table(tmp_path / "table.csv", records)
        write_csv(tmp_path / "reference.csv", names, cells)
        raw = (tmp_path / "table.csv").read_bytes()
        assert raw == (tmp_path / "reference.csv").read_bytes()
        assert b"inf" in raw and b"nan" in raw and b"-nan" not in raw


@pytest.mark.parametrize("cells", [1, 2, 5, 33, 100])
def test_block_edges_change_no_byte(cells, tmp_path, monkeypatch):
    """Blocks of any size write the bytes of the default blocks: a block
    holds `_BLOCK_CELLS // width` records, and at least one."""
    rng = np.random.default_rng(cells)
    ds = LabeledDataset(x=rng.standard_normal((301, 6)) * 10.0 ** rng.integers(-5, 20, (301, 6)),
                        labels=rng.integers(0, 4, 301))
    expected = write_table(tmp_path / "default.csv", _dataset_table(ds))
    monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
    assert write_table(tmp_path / "table.csv", _dataset_table(ds)) == expected
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()


@pytest.mark.parametrize("kind", [np.bool_, np.uint64, np.complex128, np.longdouble, "U3"])
def test_a_field_of_another_type_is_named(kind):
    records = np.zeros(2, [("x", np.float64), ("odd", kind)])
    with pytest.raises(TypeError, match="odd"):
        core._encode_block(records)


def _small_dataset(tmp_path):
    ds = LabeledDataset(x=np.array([[0.5, -0.25], [1e-310, 3.0]]), labels=np.array([1, 0]))
    path = tmp_path / "dataset.csv"
    save_dataset_csv(path, ds)
    return path


def test_a_file_edited_to_the_same_length_is_read_as_edited(tmp_path):
    path = _small_dataset(tmp_path)
    sidecar = Path(f"{path}.npz").read_bytes()
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b"0.5,", b"0.7,").replace(b",0\r\n", b",2\r\n"))
    assert len(path.read_bytes()) == len(raw)
    ds = load_dataset_csv(path)
    assert ds.x[0, 0] == 0.7 and ds.labels.tolist() == [1, 2]
    assert Path(f"{path}.npz").read_bytes() == sidecar      # readers never write


def _save_sidecar(path, records):
    """A sidecar of `records` that matches the file at `path` as it is now."""
    np.savez(f"{path}.npz", records=records, csv_sha256=np.array(_file_sha256(path)))


def _wrong_type(path):
    records = np.zeros(2, [("x", np.float64, (2,)), ("label", np.int32)])
    _save_sidecar(path, records)


def _overwrite(data: bytes):
    return lambda path: Path(f"{path}.npz").write_bytes(data)


def _truncate(path):
    sidecar = Path(f"{path}.npz")
    sidecar.write_bytes(sidecar.read_bytes()[:-40])


def _without_digest(path):
    with np.load(f"{path}.npz") as npz:
        records = npz["records"]
    np.savez(f"{path}.npz", records=records)


def _flat_records(path):
    with np.load(f"{path}.npz") as npz:
        records = npz["records"]
    _save_sidecar(path, records.reshape(1, 2))


@pytest.mark.parametrize("spoil", [
    _wrong_type, _truncate, _overwrite(b""), _overwrite(b"PK\x03\x04 not a zip"),
    _overwrite(np.random.default_rng(0).bytes(300)), _without_digest, _flat_records,
], ids=["wrong-record-type", "truncated", "empty", "garbage", "random-bytes", "no-digest",
        "two-dimensional"])
def test_a_spoiled_sidecar_is_ignored(spoil, tmp_path):
    path = _small_dataset(tmp_path)
    spoil(path)
    spoiled = Path(f"{path}.npz").read_bytes()
    ds = load_dataset_csv(path)
    assert same_bits(ds.x, np.array([[0.5, -0.25], [1e-310, 3.0]]))
    assert ds.labels.tolist() == [1, 0]
    assert Path(f"{path}.npz").read_bytes() == spoiled


def test_a_bad_header_is_refused_even_beside_a_matching_sidecar(tmp_path):
    path = _small_dataset(tmp_path)
    with np.load(f"{path}.npz") as npz:
        records = npz["records"]
    path.write_bytes(path.read_bytes().replace(b"x0,x1,label", b"x0,x9,label"))
    _save_sidecar(path, records)       # the sidecar now matches the file
    with pytest.raises(ValueError, match="bad header"):
        load_dataset_csv(path)


_BAD_CELLS = {
    "nan-feature": ("dataset", np.array([[0.5, 1.0], [np.nan, 2.0]]), [0, 1], 3,
                    "non-finite feature"),
    "inf-feature": ("dataset", np.array([[-np.inf, 1.0], [0.5, 2.0]]), [0, 1], 2,
                    "non-finite feature"),
    "negative-label": ("dataset", np.array([[0.5, 1.0], [0.5, 2.0]]), [0, -1], 3,
                       "negative label"),
    "inf-logit": ("logits", np.array([[0.5, 1.0], [2.0, np.inf]]), None, 3, "non-finite logit"),
    "nan-logit": ("logits", np.array([[np.nan, 1.0], [2.0, 0.5]]), None, 2, "non-finite logit"),
}


@pytest.mark.parametrize("sidecar", [True, False], ids=["sidecar", "parsed"])
@pytest.mark.parametrize("case", sorted(_BAD_CELLS))
def test_loaders_refuse_bad_cells_by_file_and_line(case, sidecar, tmp_path):
    kind, values, labels, line, what = _BAD_CELLS[case]
    path = tmp_path / f"{kind}.csv"
    if kind == "dataset":
        save_dataset_csv(path, LabeledDataset(x=values, labels=np.array(labels)))
        load = load_dataset_csv
    else:
        save_logits_csv(path, values)
        load = load_logits_csv
    if not sidecar:
        Path(f"{path}.npz").unlink()
    with pytest.raises(ValueError, match=re.escape(f"{path} line {line}: {what}")):
        load(path)


# --- row ranges formatted in forked children -----------------------------------

# row counts around 1, 2 and 3 CPUs: fewer rows than workers, and ranges that
# do not divide evenly
FEW_ROWS = st.integers(0, 9)


def _counting_forks(monkeypatch):
    """Count the children started here: each asks for the fork context."""
    started, original = [], multiprocessing.get_context

    def get_context(method=None):
        started.append(method)
        return original(method)
    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    return started


@settings(max_examples=30, deadline=None)
@given(datasets(labels=INT64, x=matrices(rows=FEW_ROWS)), matrices(rows=FEW_ROWS),
       tables(HISTORY_RECORD, FEW_ROWS), st.integers(1, 28))
def test_forked_ranges_write_the_bytes_of_one_process(ds, logits, history, cells):
    """At 1, 2 and 3 usable CPUs, with the cell minimum at one cell so that
    every table of two rows or more forks, `write_table` writes the bytes
    and returns the digest of the one-process path, about `cells` cells to a
    block; `write_numeric_csv` writes the same sidecar; no child is left."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        tmp = Path(tmp)
        mp.setattr(core, "_FORK_MIN_CELLS", 1)
        mp.setattr(core, "_BLOCK_CELLS", cells)
        started = _counting_forks(mp)
        for records in (_dataset_table(ds), _logits_table(logits), history):
            written = []
            for workers in (1, 2, 3):
                mp.setattr(core, "usable_cpus", lambda: workers)
                del started[:]
                digest = write_table(tmp / "table.csv", records)
                raw = (tmp / "table.csv").read_bytes()
                assert digest == hashlib.sha256(raw).hexdigest()
                assert len(started) == max(min(workers, len(records)) - 1, 0)
                if records.dtype.names != HISTORY_RECORD.names:
                    write_numeric_csv(tmp / "numeric.csv", records)
                    assert (tmp / "numeric.csv").read_bytes() == raw
                    raw += (tmp / "numeric.csv.npz").read_bytes()
                written.append(raw)
                assert_no_child_left()
            assert written[1] == written[0] and written[2] == written[0]


@pytest.mark.parametrize("workers", [2, 3])
def test_a_table_forks_only_when_each_share_has_the_cell_minimum(workers, tmp_path,
                                                                  monkeypatch):
    # 4 cells a row: each share needs _FORK_MIN_CELLS / 4 rows
    least = -(-core._FORK_MIN_CELLS // 4)
    monkeypatch.setattr(core, "usable_cpus", lambda: workers)
    started = _counting_forks(monkeypatch)
    logits = np.arange(4.0 * workers * least).reshape(-1, 4) / 7.0
    for n, children in ((2 * least - 1, 0), (2 * least, 1),
                        (workers * least - 1, workers - 2), (workers * least, workers - 1)):
        del started[:]
        write_table(tmp_path / "table.csv", _logits_table(logits[:n]))
        assert len(started) == children, n
        assert_no_child_left()


def test_one_cpu_formats_every_range_here(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("a write on one CPU forked")

    def no_fork_context(method=None):
        # as on a platform without fork
        raise ValueError(f"cannot find context for {method!r}")
    logits = np.arange(60.0).reshape(20, 3) / 7.0
    write_csv(tmp_path / "reference.csv", _logits_columns(3), logits.tolist())
    monkeypatch.setattr(core, "_FORK_MIN_CELLS", 1)
    monkeypatch.setattr(core, "usable_cpus", lambda: 1)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(multiprocessing, "get_context", no_fork_context)
    write_numeric_csv(tmp_path / "numeric.csv", _logits_table(logits))
    assert (tmp_path / "numeric.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert_no_child_left()


def lines_that(action):
    """`core._lines` that runs `action()` before each block it yields in a
    child of this process."""
    here, original = os.getpid(), core._lines

    def lines(records):
        for block in original(records):
            if os.getpid() != here:
                action()
            yield block
    return lines


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def _raise_value_error():
    raise ValueError("bad cell 3")


@pytest.mark.parametrize("workers, rows", [(2, "5-9"), (3, "3-5")])
def test_a_writer_child_killed_mid_format_is_named(workers, rows, tmp_path, monkeypatch):
    path = tmp_path / "logits.csv"
    monkeypatch.setattr(core, "_FORK_MIN_CELLS", 1)
    monkeypatch.setattr(core, "usable_cpus", lambda: workers)
    monkeypatch.setattr(core, "_lines", lines_that(_kill_self))
    with pytest.raises(ChildProcessError, match=re.escape(
            f"the process formatting rows {rows} of {path} was killed by signal 9")):
        write_numeric_csv(path, _logits_table(np.ones((10, 2))))
    assert not Path(f"{path}.npz").exists()
    assert_no_child_left()


def test_a_writer_childs_exception_reaches_the_writer(tmp_path, monkeypatch):
    path = tmp_path / "logits.csv"
    monkeypatch.setattr(core, "_FORK_MIN_CELLS", 1)
    monkeypatch.setattr(core, "usable_cpus", lambda: 3)
    monkeypatch.setattr(core, "_lines", lines_that(_raise_value_error))
    with pytest.raises(ValueError, match="^bad cell 3$"):
        write_numeric_csv(path, _logits_table(np.ones((10, 2))))
    assert not Path(f"{path}.npz").exists()
    assert_no_child_left()
