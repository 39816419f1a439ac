"""Tests for dataset generation, splitting, teacher training, and file I/O."""

import json
from pathlib import Path

import numpy as np
import pytest

from ensdistill.core import RngStream, read_json, write_json
from ensdistill.data import (
    LabeledDataset,
    cube_labels,
    default_teacher_recipe,
    ellipsoid_labels,
    gen_cube,
    gen_ellipsoid,
    hard_label_grad,
    load_dataset_csv,
    load_logits_csv,
    mlp_spec,
    save_dataset_csv,
    save_logits_csv,
    split,
    teacher_logits,
    train_teacher,
)
from ensdistill.evaluate import accuracy
from ensdistill.findwl import LR_DROPS, LR_FACTOR
from ensdistill.nets import LayerSpec

GOLDEN = json.loads((Path(__file__).parent / "golden" / "ellipsoid_seed7.json").read_text())


# --- ellipsoid --------------------------------------------------------------

def test_ellipsoid_balance():
    ds = gen_ellipsoid(3, 1000, d=16)
    ones = int(ds.labels.sum())
    assert abs(ones - 500) <= 1


def test_ellipsoid_zero_row_gets_label_zero():
    ds = gen_ellipsoid(5, 200, d=8)
    b = np.array(ds.meta["matrix_b"])
    threshold = ds.meta["threshold"]
    assert threshold > 0.0              # nondegenerate sample
    assert ellipsoid_labels(np.zeros((1, 8)), b, threshold)[0] == 0


def test_ellipsoid_deterministic():
    a = gen_ellipsoid(11, 300, d=8)
    b = gen_ellipsoid(11, 300, d=8)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.labels, b.labels)
    assert a.meta == b.meta


def test_ellipsoid_labels_recomputable_from_meta():
    ds = gen_ellipsoid(13, 400, d=8)
    b = np.array(ds.meta["matrix_b"])
    again = ellipsoid_labels(ds.x, b, ds.meta["threshold"])
    assert np.array_equal(again, ds.labels)


def test_ellipsoid_rejects_tiny_input():
    with pytest.raises(ValueError):
        gen_ellipsoid(0, 1)


# --- cube -------------------------------------------------------------------

def test_cube_vertices_take_their_own_class():
    ds = gen_cube(2, 10, d=6, classes=4, vertices=8)
    v = np.array(ds.meta["vertices"])
    per_class = 8 // 4
    assert np.array_equal(cube_labels(v, v, 4), np.arange(8) // per_class)


def test_cube_tie_breaks_to_lowest_class():
    corners = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    midpoint = (corners[0] + corners[3]) / 2.0   # equidistant to every corner
    assert cube_labels(midpoint[None, :], corners, 4)[0] == 0


def test_cube_labels_recomputable_from_meta():
    ds = gen_cube(4, 500, d=10, classes=4, vertices=8)
    again = cube_labels(ds.x, np.array(ds.meta["vertices"]), 4)
    assert np.array_equal(again, ds.labels)


def test_cube_covers_all_classes():
    ds = gen_cube(7, 10000)
    assert sorted(np.unique(ds.labels).tolist()) == [0, 1, 2, 3]


def test_cube_deterministic():
    a = gen_cube(9, 200, d=8, classes=2, vertices=4)
    b = gen_cube(9, 200, d=8, classes=2, vertices=4)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.labels, b.labels)


def test_cube_rejects_uneven_partition():
    with pytest.raises(ValueError):
        gen_cube(0, 10, d=8, classes=3, vertices=16)


# --- split ------------------------------------------------------------------

def test_split_sizes_and_disjointness():
    ds = gen_ellipsoid(21, 10, d=4)
    train, test = split(ds, 0.8, seed=0)
    assert train.n == 8
    assert test.n == 2
    combined = {tuple(row) for row in np.vstack([train.x, test.x])}
    original = {tuple(row) for row in ds.x}
    assert combined == original
    assert len(original) == 10


def test_split_deterministic():
    ds = gen_ellipsoid(22, 50, d=4)
    a_train, a_test = split(ds, 0.8, seed=5)
    b_train, b_test = split(ds, 0.8, seed=5)
    assert np.array_equal(a_train.x, b_train.x)
    assert np.array_equal(a_test.labels, b_test.labels)


def test_split_carries_logits_and_meta():
    ds = gen_ellipsoid(23, 20, d=4)
    train, test = split(ds, 0.8, seed=1)
    assert train.meta["part"] == "train"
    assert test.meta["part"] == "test"
    assert train.meta["split_seed"] == 1


def test_split_rejects_degenerate_fractions():
    ds = gen_ellipsoid(24, 4, d=4)
    with pytest.raises(ValueError):
        split(ds, 0.0, seed=0)
    with pytest.raises(ValueError):
        split(ds, 1.0, seed=0)
    tiny = gen_ellipsoid(24, 2, d=4)
    with pytest.raises(ValueError):
        split(tiny, 0.9, seed=0)


# --- teacher ----------------------------------------------------------------

def test_mlp_spec_shapes():
    spec = mlp_spec(32, [64, 64], 2)
    assert spec == [LayerSpec(32, 64, "relu"), LayerSpec(64, 64, "relu"),
                    LayerSpec(64, 2, "linear")]


def test_default_recipe_values():
    recipe = default_teacher_recipe()
    assert recipe.lr == 0.1
    assert recipe.momentum == 0.9
    assert recipe.weight_decay == 5e-4
    assert recipe.epochs == 200
    assert (LR_DROPS, LR_FACTOR) == ((0.3, 0.6, 0.9), 0.2)


def test_hard_label_loss_value_and_grad():
    fn, targets = hard_label_grad(np.array([0]), 2)
    grad = fn(np.zeros((1, 2)), *targets)
    assert np.allclose(grad, [[-0.5, 0.5]], atol=1e-12)


def test_train_teacher_rejects_label_overflow():
    ds = LabeledDataset(x=np.zeros((4, 3)), labels=np.array([0, 1, 2, 3]))
    with pytest.raises(ValueError):
        train_teacher(ds, mlp_spec(3, [4], 2), seed=0)


def test_teacher_golden_run():
    # the canonical pipeline the end-to-end criteria build on
    p = GOLDEN["pipeline"]
    ds = gen_ellipsoid(p["seed"], p["n"], p["d"])
    train, test = split(ds, p["split_fraction"], seed=p["split_seed"])
    widths = p["teacher_spec"]
    teacher = train_teacher(train, mlp_spec(widths[0], widths[1:-1], widths[-1]),
                            seed=p["teacher_seed"])
    train_logits = teacher_logits(teacher, train.x)
    test_logits = teacher_logits(teacher, test.x)
    assert test_logits.shape == (test.n, 2)
    assert accuracy(train_logits, train.labels) >= 0.95
    assert abs(accuracy(train_logits, train.labels) - GOLDEN["teacher_train_accuracy"]) <= 2e-3
    assert abs(accuracy(test_logits, test.labels) - GOLDEN["teacher_test_accuracy"]) <= 2e-3


# --- file I/O ---------------------------------------------------------------

def test_dataset_csv_round_trip(tmp_path):
    ds = gen_ellipsoid(31, 40, d=5)
    path = tmp_path / "data.csv"
    save_dataset_csv(path, ds)
    header = path.read_text().splitlines()[0]
    assert header == "x0,x1,x2,x3,x4,label"
    back = load_dataset_csv(path)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.labels, ds.labels)


def test_dataset_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b,label\n1.0,2.0,0\n")
    with pytest.raises(ValueError):
        load_dataset_csv(path)


def test_logits_csv_round_trip(tmp_path):
    logits, _ = RngStream(1).gaussian(24)
    logits = logits.reshape(12, 2)
    path = tmp_path / "logits.csv"
    save_logits_csv(path, logits)
    assert path.read_text().splitlines()[0] == "l0,l1"
    assert np.array_equal(load_logits_csv(path), logits)


def test_meta_round_trip(tmp_path):
    ds = gen_cube(5, 30, d=6, classes=2, vertices=4)
    path = tmp_path / "meta.json"
    write_json(path, ds.meta)
    assert read_json(path) == ds.meta
