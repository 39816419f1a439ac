"""Constructed runs whose members realize chosen residuals exactly.

With x = I and a single zero-bias linear layer, a member's logits ARE its
weight column, so any per-row residual pattern is representable.  Each round
picks residuals sign-aligned with the current weight imbalance at magnitudes
in [0.25, 1.0], which keeps every post-degenerate round's edge positive and
the sup norm of residuals at exactly G_inf = 1.

Beside them are the second paths the tests check the package's first ones
against: the weight game replayed in closed form, an ensemble's FLOPs
counted from its layer shapes, the barrier's gradient on its own, the
reference for the search's fused training gradient, and a CSV writer and
reader on the csv module, the reference for the codec's own table writer
and reader.
"""

import csv

import numpy as np

from ensdistill.core import RngStream, ShapeError
from ensdistill.distill import Ensemble, RoundRecord, RunHistory
from ensdistill.findwl import _clamp_limit
from ensdistill.game import WeightState, init_uniform, md_update
from ensdistill.nets import NO_CONNECTION, LayerSpec, LearnerParams


def constructed_oracle_run(n, t_rounds, seed=7, r_max=2):
    """Returns (ensemble, history, x, teacher_logits); eta per the sqrt rule."""
    eta = np.sqrt(np.log(2.0 * n) / t_rounds)
    x = np.eye(n)
    g = np.zeros((n, 1))
    state = init_uniform(n, 1)
    ens = Ensemble(seed=seed, eta=float(eta), T=t_rounds, R=r_max, teacher_hash="")
    hist = RunHistory()
    root = RngStream(seed)
    for t in range(t_rounds):
        diff = state.kplus - state.kminus
        signs = np.where(diff >= 0.0, 1.0, -1.0)
        u, _ = root.split(t).uniform(n)
        mags = 0.25 + 0.75 * u
        l = signs * mags.reshape(n, 1)
        params = LearnerParams(
            spec=[LayerSpec(n, 1, "linear")], connection=NO_CONNECTION,
            weights=[l.copy()], biases=[np.zeros(1)])
        state, record = md_update(state, l, float(eta))
        state.validate()
        ens.members.append(params)
        ens.class_rs.append(1)
        hist.rounds.append(RoundRecord(
            round_index=t + 1, class_r=1, edge_gamma=record.edge_gamma,
            z=record.z, eta=float(eta), clamp_count=0))
    return ens, hist, x, g


def history_rows(hist):
    """The typed dict rows a history CSV would round-trip to."""
    rows = []
    for rec in hist.rounds:
        for j in range(len(rec.edge_gamma)):
            rows.append({
                "round": rec.round_index, "label": j,
                "edge_gamma": float(rec.edge_gamma[j]), "z": float(rec.z[j]),
                "eta": rec.eta, "class_r": rec.class_r,
                "clamp_count": rec.clamp_count,
            })
    return rows


def recompute_from_history(initial_state: WeightState, residual_history: list,
                           eta_history: list) -> WeightState:
    """Closed-form weights after a whole run.

    The iterated update telescopes: the final state depends only on the
    initial masses and the eta-weighted cumulative residual, with one joint
    normalization standing in for the product of per-round normalizers.
    Computed in log space so long histories cannot overflow.
    """
    if len(residual_history) != len(eta_history):
        raise ValueError("residual and eta histories differ in length")
    s = np.zeros_like(initial_state.kplus)
    for l, eta in zip(residual_history, eta_history):
        if np.shape(l) != initial_state.kplus.shape:
            raise ShapeError(f"recompute_from_history: shape {initial_state.kplus.shape} "
                             f"vs {np.shape(l)}")
        s = s + float(eta) * np.asarray(l, dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_up = np.log(initial_state.kplus) - s
        log_dn = np.log(initial_state.kminus) + s
    shift = np.maximum(log_up.max(axis=0), log_dn.max(axis=0))
    up = np.exp(log_up - shift)
    dn = np.exp(log_dn - shift)
    z = up.sum(axis=0) + dn.sum(axis=0)
    final = WeightState(kplus=up / z, kminus=dn / z)
    final.validate()
    return final


def ensemble_flops_direct(ens: Ensemble) -> int:
    """Whole-ensemble cost accounted directly from layer shapes — a second
    code path against sum-of-member flops."""
    total = 0
    for params in ens.members:
        for layer in params.spec:
            total += 2 * layer.in_dim * layer.out_dim + layer.out_dim
        if params.connection.kind in ("residual_add", "delta"):
            total += params.spec[-1].in_dim   # the tap joins the output layer
    return total


def write_csv(path, header, rows) -> None:
    """`header`, then each row, in the csv module's default dialect, each
    cell as str(cell)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path, header):
    """Yield the rows (lists of str) under a CSV file's `header`: its column
    names, or a function of their count that returns them.  A refusal reads
    as the codec's does."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, [])   # [] if the file is empty or starts blank
        if not found:
            raise ValueError(f"bad header in {path}: no column names")
        expected = list(header(len(found)) if callable(header) else header)
        if found != expected:
            raise ValueError(f"bad header in {path}: expected {expected}, got {found}")
        for row in reader:
            if len(row) != len(found):
                raise ValueError(f"{path} line {reader.line_num}: expected {len(found)} fields")
            yield row


def barrier_grad(l, mask, b, barrier_gamma):
    """d(barrier)/dl, with `findwl.barrier_loss`'s clamp: clamped entries get
    the boundary gradient.  `findwl.total_grad_fn` fuses this with the
    distillation gradient and must give the bits of their sum."""
    limit = _clamp_limit(b)
    lc = l.clip(-limit, limit)
    grad = np.where(mask, 1.0 / (2.0 * b + lc), -1.0 / (2.0 * b - lc))
    return -grad / barrier_gamma
