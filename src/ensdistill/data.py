"""Synthetic classification data and the teacher that gets distilled.

Two generators: a quadratic-form (ellipsoid) two-class problem and a
nearest-corner-cluster multiclass problem, both on the hypercube.  Everything
is a pure function of its seed; generator parameters land in a metadata
sidecar so labels can be re-derived from files alone.  `train_net` trains
one net by SGD: the teacher here, and each of `evaluate`'s resched students.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import RngStream, read_numeric_csv, softmax, write_numeric_csv
from .findwl import SgdConfig, lr_at_epoch, sgd_epoch
from .nets import ConfigError, LayerSpec, LearnerParams, forward, init_params, split_head


@dataclass
class LabeledDataset:
    x: np.ndarray                      # n x d features
    labels: np.ndarray                 # n int class indices
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


def _uniform_box(rng: RngStream, n: int, d: int):
    """n x d points uniform in [-1, 1]."""
    u, rng = rng.uniform(n * d)
    return 2.0 * u.reshape(n, d) - 1.0, rng


def ellipsoid_labels(x: np.ndarray, b: np.ndarray, threshold: float) -> np.ndarray:
    """Label rule for the quadratic-form dataset: I[x'(B'B)x >= threshold]."""
    a = b.T @ b
    quad = ((x @ a) * x).sum(axis=1)
    return (quad >= threshold).astype(np.int64)


def gen_ellipsoid(seed: int, n: int, d: int = 32) -> LabeledDataset:
    """Two classes split by a random positive-semidefinite quadratic form.

    The form x'Ax with A = B'B is nonnegative everywhere, so the class
    boundary is drawn at the sample median of the form rather than at zero —
    that yields a balanced, nondegenerate problem.  B and the threshold are
    recorded in metadata.
    """
    if n < 2 or d < 1:
        raise ConfigError("need n >= 2 and d >= 1")
    root = RngStream(seed)
    draw, _ = root.split(0).gaussian(d * d)
    b = draw.reshape(d, d)
    x, _ = _uniform_box(root.split(1), n, d)
    quad = ((x @ (b.T @ b)) * x).sum(axis=1)
    threshold = float(np.median(quad))
    labels = ellipsoid_labels(x, b, threshold)
    meta = {"generator": "ellipsoid", "seed": seed, "n": n, "d": d,
            "threshold": threshold, "matrix_b": b.tolist()}
    return LabeledDataset(x=x, labels=labels, meta=meta)


def cube_labels(x: np.ndarray, vertices: np.ndarray, classes: int) -> np.ndarray:
    """Label rule for the nearest-corner dataset.

    The class of a point is the class of its nearest vertex (Euclidean);
    vertices are partitioned sequentially into equal classes, and distance
    ties resolve to the lowest class index (first minimum wins).
    """
    v = np.asarray(vertices, dtype=np.float64)
    d2 = (x * x).sum(axis=1, keepdims=True) - 2.0 * x @ v.T + (v * v).sum(axis=1)
    nearest = np.argmin(d2, axis=1)
    return (nearest // (v.shape[0] // classes)).astype(np.int64)


def gen_cube(seed: int, n: int, d: int = 32, classes: int = 4,
             vertices: int = 16) -> LabeledDataset:
    """Multiclass by nearest corner: `vertices` distinct corners of {-1,1}^d,
    partitioned sequentially into equal classes; each point takes the class of
    its closest corner (Euclidean, ties to the lowest class index)."""
    if n < 1 or d < 1:
        raise ConfigError("need n >= 1 and d >= 1")
    if vertices % classes != 0:
        raise ConfigError(f"{vertices} vertices do not split into {classes} equal classes")
    root = RngStream(seed)
    vrng = root.split(0)
    corners, seen = [], set()
    attempts = 0
    while len(corners) < vertices:
        attempts += 1
        if attempts > 1000 * vertices:
            raise ConfigError("could not sample distinct corners; d too small?")
        u, vrng = vrng.uniform(d)
        corner = np.where(u > 0.5, 1.0, -1.0)
        key = tuple(corner)
        if key not in seen:
            seen.add(key)
            corners.append(corner)
    v = np.stack(corners)                     # vertices x d
    x, _ = _uniform_box(root.split(1), n, d)
    labels = cube_labels(x, v, classes)
    meta = {"generator": "cube", "seed": seed, "n": n, "d": d, "classes": classes,
            "vertices": v.tolist()}
    return LabeledDataset(x=x, labels=labels, meta=meta)


def split(ds: LabeledDataset, fraction: float = 0.8,
          seed: int = 0) -> tuple[LabeledDataset, LabeledDataset]:
    """The train and test parts of a deterministic shuffled split of `ds`;
    every row lands in exactly one part."""
    if not 0.0 < fraction < 1.0:
        raise ConfigError("fraction must be in (0, 1)")
    n_train = int(round(ds.n * fraction))
    if n_train < 1 or ds.n - n_train < 1:
        raise ConfigError(f"split of {ds.n} rows at {fraction} leaves an empty part")
    perm, _ = RngStream(seed).permutation(ds.n)
    parts = []
    for name, idx in (("train", perm[:n_train]), ("test", perm[n_train:])):
        meta = dict(ds.meta, part=name, split_fraction=fraction, split_seed=seed)
        parts.append(LabeledDataset(x=ds.x[idx], labels=ds.labels[idx], meta=meta))
    return parts[0], parts[1]


def mlp_spec(in_dim: int, hidden: list, out_dim: int) -> list:
    """ReLU MLP spec from a list of hidden widths."""
    dims = [in_dim] + list(hidden)
    layers = [LayerSpec(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
    layers.append(LayerSpec(dims[-1], out_dim, "linear"))
    return layers


def default_teacher_recipe() -> SgdConfig:
    return SgdConfig(lr=0.1, epochs=200, batch_size=128)


def hard_label_grad(labels: np.ndarray, n_classes: int):
    """Gradient of the cross-entropy against integer labels w.r.t. the
    logits, for teacher training, as `sgd_epoch`'s pair `(fn, targets)`: the
    one target is the one-hot label matrix."""
    def fn(logits: np.ndarray, onehot: np.ndarray, out: np.ndarray | None = None):
        grad = softmax(logits, out)
        grad -= onehot
        grad /= logits.shape[0]
        return grad
    onehot = np.zeros((len(labels), n_classes))   # n rows, not an n_classes^2 identity
    onehot[np.arange(len(labels)), labels] = 1.0
    return fn, (onehot,)


def train_net(spec: list, x: np.ndarray, grad_fn, recipe: SgdConfig,
              rng: RngStream) -> LearnerParams:
    """One net trained alone by `recipe`'s step-decay SGD on `grad_fn`,
    `sgd_epoch`'s gradient pair: the teacher's and each resched student's
    driver.  Weights start from `rng.split(0)`, epochs shuffle from `rng.split(1)`."""
    params = init_params(spec, rng.split(0))
    state, sgd_rng = None, rng.split(1)
    # a diverging recipe overflows inside a matmul before `forward` sees
    # non-finite logits and raises, so the overflow itself is not reported
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(recipe.epochs):
            params, state, sgd_rng = sgd_epoch(
                params, x, grad_fn, recipe, sgd_rng,
                lr=lr_at_epoch(epoch, recipe), state=state)
    return params


def train_teacher(train: LabeledDataset, spec: list, recipe: SgdConfig | None = None,
                  seed: int = 0) -> LearnerParams:
    """Fit the teacher on hard labels with the standard step-decay recipe."""
    recipe = recipe or default_teacher_recipe()
    recipe.validate()
    n_classes = spec[-1].out_dim
    if train.labels.max() >= n_classes:
        raise ValueError(f"labels reach {int(train.labels.max())} but spec has {n_classes} outputs")
    return train_net(spec, train.x, hard_label_grad(train.labels, n_classes), recipe,
                     RngStream(seed))


def teacher_logits(params: LearnerParams, x: np.ndarray) -> np.ndarray:
    """The teacher's logits on `x`.  Its hidden layers run in row blocks
    (`nets.split_head`), so only the last one is held for all rows, and its
    output layer runs on all rows at once."""
    head, rows = split_head(params, x)
    logits, _ = forward(head, rows)
    return logits


# --- files ------------------------------------------------------------------

def _dataset_record(width: int) -> np.dtype:
    return np.dtype([("x", np.float64, (width - 1,)), ("label", np.int64)])


def save_dataset_csv(path, ds: LabeledDataset) -> None:
    """Write `ds` as a numeric file of its records, with their sidecar."""
    records = np.empty(ds.n, _dataset_record(ds.d + 1))
    records["x"], records["label"] = ds.x, ds.labels
    write_numeric_csv(path, records)


def _refuse_rows(path, bad: np.ndarray, what: str) -> None:
    """Reject a loaded file whose rows are flagged in `bad`, naming the line
    of the first one (the header is line 1)."""
    if bad.any():
        raise ValueError(f"{path} line {int(np.argmax(bad)) + 2}: {what}")


def load_dataset_csv(path) -> LabeledDataset:
    """`x` and `labels` are views of the loaded records, so nothing is copied:
    `x` steps d + 1 floats per row, which numpy and BLAS read in place with
    the same results as a contiguous copy (checked in tests/test_codec.py).
    Training gathers minibatch rows with `take`, which would copy all of a
    strided source at every gather, so `findwl.sgd_epoch` copies `x` once
    per training run instead.  A file with no rows, a non-finite feature or
    a negative label is refused."""
    body = read_numeric_csv(path, _dataset_record)
    if not len(body):
        raise ValueError(f"{path} has no data rows")
    _refuse_rows(path, ~np.isfinite(body["x"]).all(axis=1), "non-finite feature")
    _refuse_rows(path, body["label"] < 0, "negative label")
    return LabeledDataset(x=body["x"], labels=body["label"])


def _logits_record(width: int) -> np.dtype:
    # one field holds the whole row, so that field is a C-contiguous matrix
    return np.dtype([("l", np.float64, (width,))])


def save_logits_csv(path, logits: np.ndarray) -> None:
    """Write `logits` as a numeric file of its records, with their sidecar."""
    logits = np.asarray(logits, dtype=np.float64)
    records = np.empty(len(logits), _logits_record(logits.shape[1]))
    records["l"] = logits
    write_numeric_csv(path, records)


def load_logits_csv(path) -> np.ndarray:
    """The logits matrix; a file with no rows or a non-finite entry is refused."""
    logits = read_numeric_csv(path, _logits_record)["l"]
    if not len(logits):
        raise ValueError(f"{path} has no data rows")
    _refuse_rows(path, ~np.isfinite(logits).all(axis=1), "non-finite logit")
    return logits
