"""Student/teacher network substrate.

Fully connected nets with manual backprop, plus the machinery that lets a new
ensemble member reuse a cached activation of an earlier member (residual,
dense and feature-delta connections) to grow capacity at near-zero inference
cost.  A tap is joined at one place only: the input of a net's output layer.
Earlier members are frozen: gradients never flow through a tapped activation.
"""
from __future__ import annotations

from sys import float_info
from dataclasses import dataclass, field, replace

import numpy as np

from .core import RngStream, check_finite, row_blocks

ACTIVATIONS = ("relu", "linear")
CONNECTION_KINDS = ("none", "residual_add", "dense_concat", "delta")


class ConfigError(ValueError):
    """Invalid configuration: layers, connections, flags or data sizes."""


# config field rules: (test, what the field must be).  Each test checks the
# value's type before its range, so a value of the wrong type is refused by
# name instead of failing inside a comparison or a loop; a non-finite number
# fails every range test, NaN because it fails every comparison, and a
# "finite" number is one a float can hold, so an integer past it fails too;
# so does a count past it, since counts such as epochs meet float arithmetic
NUMBER = (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number")
INTEGER = (lambda v: NUMBER[0](v) and isinstance(v, int), "an integer")
AT_LEAST_ONE = (lambda v: INTEGER[0](v) and 1 <= v <= float_info.max, "an integer >= 1")
FINITE_POSITIVE = (lambda v: NUMBER[0](v) and 0 < v <= float_info.max, "a finite number > 0")
FINITE_NONNEGATIVE = (lambda v: NUMBER[0](v) and 0 <= v <= float_info.max, "a finite number >= 0")
NONNEGATIVE_BELOW_ONE = (lambda v: NUMBER[0](v) and 0 <= v < 1, "a number in [0, 1)")
POSITIVE_UP_TO_ONE = (lambda v: NUMBER[0](v) and 0 < v <= 1, "a number in (0, 1]")
LIST_AT_LEAST_ONE = (lambda v: isinstance(v, list) and all(map(AT_LEAST_ONE[0], v)),
                     "a list of integers >= 1")


def check(key: str, value, rule: tuple) -> None:
    """Refuse `value` for field `key` unless it passes `rule`, naming the field."""
    if not rule[0](value):
        raise ConfigError(f"{key!r} must be {rule[1]}, got {value!r}")


def check_fields(cfg, rules: dict) -> None:
    """Refuse the first field of `cfg` that fails its rule in `rules` (field
    name -> rule), naming the field."""
    for key, rule in rules.items():
        check(key, getattr(cfg, key), rule)


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str = "relu"


@dataclass(frozen=True)
class ConnectionSpec:
    """One tap of an earlier member's cached activation: the last hidden
    layer of member `source_round`, joined by `kind` with the input of this
    net's output layer.  The layer indices an ensemble file records beside
    these two fields follow from the nets, and `distill` derives them."""

    kind: str = "none"
    source_round: int = -1


NO_CONNECTION = ConnectionSpec()


@dataclass
class LearnerParams:
    spec: list  # LayerSpec sequence; dims already widened for dense_concat
    connection: ConnectionSpec = NO_CONNECTION
    weights: list = field(default_factory=list)  # weights[l]: (in_dim, out_dim)
    biases: list = field(default_factory=list)


def validate_spec(spec: list) -> None:
    if not spec:
        raise ConfigError("empty layer spec")
    for i, layer in enumerate(spec):
        if layer.in_dim < 1 or layer.out_dim < 1:
            raise ConfigError(f"layer {i}: dims must be >= 1, got {layer.in_dim}x{layer.out_dim}")
        if layer.activation not in ACTIVATIONS:
            raise ConfigError(f"layer {i}: unknown activation {layer.activation!r}")
    if spec[-1].activation != "linear":
        raise ConfigError("output layer must be linear")


def init_params(spec: list, rng: RngStream, connection: ConnectionSpec = NO_CONNECTION) -> LearnerParams:
    """He-style init: weights ~ N(0, 2/in_dim), biases zero."""
    validate_spec(spec)
    weights, biases = [], []
    for layer in spec:
        draw, rng = rng.gaussian(layer.in_dim * layer.out_dim)
        w = draw.reshape(layer.in_dim, layer.out_dim) * np.sqrt(2.0 / layer.in_dim)
        weights.append(w)
        biases.append(np.zeros(layer.out_dim))
    return LearnerParams(spec=list(spec), connection=connection, weights=weights, biases=biases)


def _join(params: LearnerParams, h: np.ndarray, tap: np.ndarray | None,
          out: np.ndarray | None = None) -> np.ndarray:
    """Input of the output layer: `h` joined with `tap`, the earlier
    member's activation that the connection reads; written into `out` if
    given."""
    conn = params.connection
    if tap is None:
        raise ConfigError(f"missing cached activation for member {conn.source_round}")
    if tap.shape[-2] != h.shape[-2]:
        raise ConfigError(f"cached activation has {tap.shape[-2]} rows, batch has {h.shape[-2]}")
    if conn.kind == "dense_concat":
        return np.concatenate([h, tap], axis=-1, out=out)
    if tap.shape[-1] != h.shape[-1]:
        raise ConfigError(f"{conn.kind} width mismatch: source {tap.shape[-1]} vs {h.shape[-1]}")
    return np.add(h, tap, out=out) if conn.kind == "residual_add" else np.subtract(tap, h, out=out)


@dataclass
class StepBuffers:
    """The arrays one training step of a net (or a stack of nets) writes, for
    minibatches of one shape; `step_buffers` allocates them.

    `forward` writes each layer's output into `acts` and the connection's
    joined input into `joined`; `backward` reads `joined` back instead of
    joining again, writes each ReLU layer's mask and masked gradient into
    `masks` and `dz`, the gradient w.r.t. layer idx's input into `dh[idx]`,
    and the weight and bias gradients into `dW` and `db`, which are views of
    one flat buffer laid out as `flatten` lays out the parameters."""
    acts: list
    joined: np.ndarray | None
    masks: list      # None at a linear layer
    dz: list         # None at a linear layer
    dh: list         # None at layer 0
    dW: list
    db: list


def _views(flat: np.ndarray, arrays: list) -> list:
    """Views of consecutive pieces of `flat`, shaped like `arrays` in turn."""
    views, start = [], 0
    for a in arrays:
        views.append(flat[start:start + a.size].reshape(a.shape))
        start += a.size
    return views


def step_buffers(params: LearnerParams, batch: tuple, grad: np.ndarray) -> StepBuffers:
    """`StepBuffers` for minibatches of shape `batch` + (width,): `batch` is
    (n,) for a single net, (S, n) for a stack of S.  `grad` is the flat
    gradient buffer, as large as `flatten(params)`."""
    conn, spec = params.connection, params.spec
    relu = [layer.activation == "relu" for layer in spec]
    grads = _views(grad, params.weights + params.biases)
    return StepBuffers(
        acts=[np.empty(batch + (layer.out_dim,)) for layer in spec],
        joined=np.empty(batch + (spec[-1].in_dim,)) if conn.kind != "none" else None,
        masks=[np.empty(batch + (layer.out_dim,), dtype=bool) if r else None
               for layer, r in zip(spec, relu)],
        dz=[np.empty(batch + (layer.out_dim,)) if r else None for layer, r in zip(spec, relu)],
        dh=[None] + [np.empty(batch + (layer.in_dim,)) for layer in spec[1:]],
        dW=grads[:len(spec)], db=grads[len(spec):])


def forward(params: LearnerParams, x: np.ndarray, tap: np.ndarray | None = None,
            buffers: StepBuffers | None = None):
    """Batch logits plus this member's per-layer post-activations, which later
    taps and `backward` read; `tap` is what `params.connection` reads on `x`,
    joined with the output layer's input (`x` itself for a one-layer net).

    Weights of shape (S, in, out) and biases (S, out) make `params` a stack
    of S nets with one spec and connection.  `x`, `tap`, the logits and the
    activations then carry the same leading axis: one minibatch per slice.
    Only a single net's non-finite logits raise: a stack's caller drops the
    slices that diverged.

    With `buffers` (a training step's, see `StepBuffers`) every layer's
    output and the joined input are written into them; without, each is a
    fresh array.
    """
    last = len(params.spec) - 1
    h = np.asarray(x, dtype=np.float64)
    acts = []
    for idx in range(len(params.spec)):
        if idx == last and params.connection.kind != "none":
            h = _join(params, h, tap, None if buffers is None else buffers.joined)
        h = _layer(params, idx, h, None if buffers is None else buffers.acts[idx])
        acts.append(h)
    if h.ndim == 2:
        check_finite("logits", h)
    return h, acts


def _layer(params: LearnerParams, idx: int, h: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """Layer `idx` of `params` on its input `h`, written into `out` if given."""
    layer = params.spec[idx]
    if h.shape[-1] != layer.in_dim:
        raise ConfigError(f"layer {idx} expects input width {layer.in_dim}, got {h.shape[-1]}")
    # the matmul's result is fresh or `out`, so the bias and the ReLU can
    # write into it without touching `h`, a tap or an earlier activation
    h = np.matmul(h, params.weights[idx], out=out)
    h += params.biases[idx][..., None, :]
    if layer.activation == "relu":
        np.maximum(h, 0.0, out=h)
    return h


# the rows of one block of a net's hidden layers, the one row cut (`split_head`)
_BLOCK_ROWS = 1024


def split_head(params: LearnerParams, x: np.ndarray, out: np.ndarray | None = None):
    """`(head, rows)`: the output layer of a single net `params` as a
    one-layer net with the same connection, and that layer's input on all of
    `x` before the join, the last hidden layer's output (`x` itself for a net
    with no hidden layer).  A tap joins the output layer, so `forward(head,
    rows, tap)` gives the logits of `forward(params, x, tap)`.  `rows` is
    written into `out` if given, an array of its shape; a net with no hidden
    layer ignores it.

    This is the package's one rule for cutting a batch into rows: the
    teacher's logits, a search's candidates on all of its split, every
    ensemble member (`distill.member_logits`) and every resched baseline
    student are computed through it, so each gets the same bits on the same
    rows wherever it is evaluated.  The hidden layers run on blocks of
    `_BLOCK_ROWS` rows, the last one taking the remainder
    (`core.row_blocks`), through block buffers that every block reuses; only
    the last one is written for all rows, so a pass over a whole training
    split holds one hidden layer of it.  The head runs on all rows at once
    in the caller's `forward`, because a row cut can change the bits of a
    narrow layer's product (with OpenBLAS 0.3.31, 2- and 4-column output
    layers did, once the uncut product left BLAS's small-matrix path), while
    the 24- and 64-wide hidden layers kept their bits at every cut of 2 or
    more rows tried."""
    spec = params.spec
    last = len(spec) - 1
    head = LearnerParams(spec=[spec[last]], connection=params.connection,
                         weights=[params.weights[last]], biases=[params.biases[last]])
    x = np.asarray(x, dtype=np.float64)
    if last == 0:
        return head, x
    blocks = row_blocks(x.shape[0], _BLOCK_ROWS)
    most = blocks[-1].stop - blocks[-1].start   # the last block is the largest
    rows = np.empty((x.shape[0], spec[last - 1].out_dim)) if out is None else out
    buffers = [np.empty((most, layer.out_dim)) for layer in spec[:last - 1]]
    for block in blocks:
        h = x[block]
        outs = [buffer[:block.stop - block.start] for buffer in buffers] + [rows[block]]
        for idx, out in enumerate(outs):
            h = _layer(params, idx, h, out)
    return head, rows


def flatten(params: LearnerParams) -> np.ndarray:
    """Copy every weight and bias of `params` into one contiguous float64
    buffer and return it; `params.weights` and `params.biases` become views
    into it.  The layout is the weights in layer order, then the biases, each
    in C order: the layout of `StepBuffers.dW` and `db` in a gradient buffer
    of the same size."""
    arrays = params.weights + params.biases
    flat = np.concatenate([a.reshape(-1) for a in arrays], dtype=np.float64)
    views = _views(flat, arrays)
    params.weights, params.biases = views[:len(params.weights)], views[len(params.weights):]
    return flat


def backward(params: LearnerParams, x: np.ndarray, acts: list, dlogits: np.ndarray,
             tap: np.ndarray | None = None, buffers: StepBuffers | None = None):
    """Exact gradients of a logits-composed loss w.r.t. every weight and bias.

    `acts` are the activations `forward` returned for the same `x` and
    `tap`: a layer's input is the previous layer's activation (or `x`),
    joined again at the output layer, and a ReLU passes gradient where its
    output is positive.  The tap is a constant: no gradient is returned
    (or propagated) for earlier members.  A stack of nets (see `forward`)
    gets one gradient per slice, stacked like its weights and biases.

    With `buffers`, the ones `forward` wrote for this minibatch, every
    intermediate goes into them and the returned gradients are their `dW`
    and `db`, views of the flat gradient buffer.
    """
    conn, last = params.connection, len(params.spec) - 1
    if buffers is None:   # every output fresh
        dW, db = [None] * len(params.spec), [None] * len(params.spec)
        masks = dzs = dhs = [None] * len(params.spec)
    else:
        dW, db, masks, dzs, dhs = (buffers.dW, buffers.db, buffers.masks, buffers.dz,
                                   buffers.dh)
    dh = np.asarray(dlogits, dtype=np.float64)
    for idx in range(last, -1, -1):
        layer = params.spec[idx]
        dz = dh if layer.activation == "linear" else np.multiply(
            dh, np.greater(acts[idx], 0.0, out=masks[idx]), out=dzs[idx])
        h = acts[idx - 1] if idx > 0 else np.asarray(x, dtype=np.float64)
        joined = idx == last and conn.kind != "none"
        if joined:
            h = _join(params, h, tap) if buffers is None else buffers.joined
        dW[idx] = np.matmul(h.swapaxes(-1, -2), dz, out=dW[idx])
        # `add.reduce` is what `dz.sum(axis=-2)` calls, without its wrappers
        db[idx] = np.add.reduce(dz, axis=-2, out=db[idx])
        if idx == 0:
            break
        dh = np.matmul(dz, params.weights[idx].swapaxes(-1, -2), out=dhs[idx])
        if joined:
            if conn.kind == "delta":
                np.negative(dh, out=dh)
            elif conn.kind == "dense_concat":
                dh = dh[..., : acts[idx - 1].shape[-1]]   # drop the tap's columns
            # residual_add: identity on the current path
    return dW, db


def expand_class(base: list, kind: str, r: int, ensemble_so_far: list):
    """Grow the base class for escalation level r.

    r=0 is the base class itself.  r>=1 adds a single connection of `kind`
    from the most recent ensemble member, `ConnectionSpec`'s one shape: its
    last hidden layer joins the input of the new model's output layer, which
    `dense_concat` widens.  The level is read no further: every r >= 1 (the
    run's classes 2 and up) is that same class, so escalating past it only
    searches it again with a new seed.  Width mismatches are hard errors;
    nothing is silently padded or projected.
    """
    validate_spec(base)
    if kind not in CONNECTION_KINDS:
        raise ConfigError(f"unknown connection kind {kind!r}")
    if r < 0:
        raise ConfigError("expansion level must be >= 0")
    if r == 0 or kind == "none":
        return list(base), NO_CONNECTION
    if not ensemble_so_far:
        raise ConfigError("connection requested but no trained member to tap")
    source_round = len(ensemble_so_far) - 1
    source_spec = ensemble_so_far[source_round].spec
    if len(source_spec) < 2:
        raise ConfigError("source member has no hidden layer to tap")
    source_width = source_spec[-2].out_dim
    conn = ConnectionSpec(kind=kind, source_round=source_round)
    if kind == "dense_concat":
        return base[:-1] + [replace(base[-1], in_dim=base[-1].in_dim + source_width)], conn
    if source_width != base[-1].in_dim:
        raise ConfigError(
            f"{kind} width mismatch: source {source_width} vs target input {base[-1].in_dim}")
    return list(base), conn


def flops(params: LearnerParams) -> int:
    """Analytic inference cost: 2*in*out + out per layer, plus the elementwise
    adds a residual/delta tap costs.  dense_concat adds nothing beyond the
    widened matmul, which the layer term already counts."""
    return (sum(2 * layer.in_dim * layer.out_dim + layer.out_dim for layer in params.spec)
            + connection_flops(params))


def connection_flops(params: LearnerParams) -> int:
    """The tap's own cost, separated out for overhead reporting."""
    if params.connection.kind in ("residual_add", "delta"):
        return params.spec[-1].in_dim
    return 0


# --- model file format ------------------------------------------------------

def params_to_dict(params: LearnerParams, source_layer: int = -1) -> dict:
    """The network file's layout.  Its connection records, beside the
    connection's fields, the tapped layer's index `source_layer`, which only
    the ensemble knows (`distill` derives it), and the joined layer's index,
    the output layer's (-1 for each without a tap)."""
    conn = params.connection
    return {
        "spec": [{"in_dim": s.in_dim, "out_dim": s.out_dim, "activation": s.activation}
                 for s in params.spec],
        "connection": {
            "kind": conn.kind,
            "source_round": conn.source_round,
            "source_layer": source_layer,
            "target_layer": len(params.spec) - 1 if conn.kind != "none" else -1,
        },
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
    }


def params_from_dict(doc: dict) -> LearnerParams:
    """A network read back from `params_to_dict`'s layout.  Its layers, its
    connection's kind, and its arrays' count, shapes and finiteness are
    checked, each refused by name, so a net that loads is one `forward`
    computes as written.  The connection's layer indices are not read here:
    `distill` checks them against the ensemble."""
    try:
        spec = [LayerSpec(s["in_dim"], s["out_dim"], s["activation"]) for s in doc["spec"]]
        validate_spec(spec)
        c = doc["connection"]
        conn = ConnectionSpec(c["kind"], c["source_round"])
        weights = [np.asarray(w, dtype=np.float64) for w in doc["weights"]]
        biases = [np.asarray(b, dtype=np.float64) for b in doc["biases"]]
    except (KeyError, TypeError) as exc:   # a missing key, or a list where an object belongs
        raise ValueError(f"malformed network document: {exc!r}") from exc
    if conn.kind not in CONNECTION_KINDS:
        raise ConfigError(f"unknown connection kind {conn.kind!r}")
    for name, arrays in (("weight", weights), ("bias", biases)):
        if len(arrays) != len(spec):
            raise ConfigError(f"{len(arrays)} {name} arrays for {len(spec)} layers")
    for idx, layer in enumerate(spec):
        if weights[idx].shape != (layer.in_dim, layer.out_dim) or biases[idx].shape != (layer.out_dim,):
            raise ConfigError(f"layer {idx} arrays do not match spec dims")
        for name, arr in (("weights", weights[idx]), ("biases", biases[idx])):
            if not np.isfinite(arr).all():
                raise ConfigError(f"layer {idx} {name} contains non-finite entries")
    return LearnerParams(spec=spec, connection=conn, weights=weights, biases=biases)
