"""Evaluation protocol at desk scale.

Anytime accuracy/cost curves over ensemble prefixes, the independently-trained
averaging baseline (students trained by `data.train_net`, scored as an
ensemble by the same curve), confidence-threshold early exit, and the
convergence-bound verifier that replays a run's weight
updates from its artifacts and checks the recorded history against them.
"""
from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, replace

import numpy as np

from .core import RngStream, softmax, write_json, write_table
from .data import train_net
# unread `ensemble_predict`, `sgd_epoch` and `forward` stay bound for `benchmarks/tracer.py`
from .distill import (Ensemble, ensemble_predict, history_matches,  # noqa: F401
                      member_logits, prefix_logits)
from .findwl import SgdConfig, sgd_epoch, total_grad_fn  # noqa: F401
from .game import init_uniform, md_update, normalizer_inequality_ok
from .nets import flops, forward  # noqa: F401


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(labels)))


@dataclass(frozen=True)
class CurvePoint:
    prefix_k: int
    cum_flops_fraction: float
    accuracy: float


def member_flops(ens: Ensemble) -> list:
    return [flops(m) for m in ens.members]


def anytime_curve(ens: Ensemble, x: np.ndarray, labels: np.ndarray,
                  teacher_flops: int) -> list:
    """One point per prefix: cumulative cost as a fraction of the teacher's,
    accuracy of the prefix-average prediction."""
    if not ens.members:
        raise ValueError("empty ensemble")
    if teacher_flops <= 0:
        raise ValueError("teacher_flops must be > 0")
    per_member = member_flops(ens)
    points = []
    cum = 0
    for k, prefix in enumerate(prefix_logits(ens.members, x), start=1):
        cum += per_member[k - 1]
        points.append(CurvePoint(prefix_k=k, cum_flops_fraction=cum / teacher_flops,
                                 accuracy=accuracy(prefix, labels)))
    return points


def train_plain_student(spec: list, x: np.ndarray, g_logits: np.ndarray,
                        sgd: SgdConfig, rng: RngStream):
    """Distillation only: no game weights, no barrier, no connections."""
    return train_net(spec, x, total_grad_fn(g_logits), sgd, rng)


def baseline_resched(member_specs: list, train_x: np.ndarray, train_g: np.ndarray,
                     test_x: np.ndarray, test_labels: np.ndarray,
                     teacher_flops: int, sgd: SgdConfig, seed: int = 0) -> list:
    """Averaging baseline: each spec trained independently against the
    teacher, the students then scored as an ensemble by `anytime_curve`."""
    root = RngStream(seed)
    students = [train_plain_student(spec, train_x, train_g, sgd, root.split(i))
                for i, spec in enumerate(member_specs)]
    return anytime_curve(Ensemble(members=students), test_x, test_labels, teacher_flops)


def standalone_spec(params) -> list:
    """A member's layer spec with any connection widening undone, so the same
    architecture can be trained independently (the resched baseline): a
    `dense_concat` tap widens the output layer, which follows a hidden layer
    in every member that loads (`distill._check_tap`)."""
    spec = list(params.spec)
    if params.connection.kind == "dense_concat":
        spec[-1] = replace(spec[-1], in_dim=spec[-2].out_dim)
    return spec


def early_exit(ens: Ensemble, x: np.ndarray, threshold: float):
    """Per-row budgeted inference: walk the ensemble in order and stop at the
    first prefix whose top softmax probability reaches the threshold.

    Returns (predictions, members_evaluated, flops_spent) arrays.  The
    simulation evaluates every member once, holding one prefix at a time, and
    reads off where each row would have exited: at the first prefix whose
    confidence reaches the threshold, or else at the last.  The reported
    FLOPs are what a sequential evaluator would actually have spent.
    """
    if not ens.members:
        raise ValueError("empty ensemble")
    n_members = len(ens.members)
    chosen = np.zeros(x.shape[0], dtype=np.int64)   # 0: not exited yet
    preds = np.zeros(x.shape[0], dtype=np.int64)
    for k, prefix in enumerate(prefix_logits(ens.members, x), start=1):
        hit = (chosen == 0) & ((softmax(prefix).max(axis=1) >= threshold) | (k == n_members))
        chosen[hit] = k
        preds[hit] = np.argmax(prefix[hit], axis=1)
    return preds, chosen, np.cumsum(member_flops(ens))[chosen - 1]


# --- bound verification -----------------------------------------------------

@dataclass
class BoundReport:
    """The verify report; its fields, in order, are the JSON file's keys."""
    n_samples: int
    n_labels: int
    T: int
    eta: float
    g_inf_config: float
    observed_max_residual: float
    premises: dict                 # rounds_ok: T >= ln(2N); eta_ok: eta * G <= 1;
                                   # residuals_ok: observed max|l| <= configured G
    measured_sup_error: float
    theorem_bound: float
    per_label: list
    normalizer_inequality_held: bool
    history_consistent: bool
    prediction_paths_agree: bool
    status: str                    # "pass" | "bound_violation" | "premise_violated"


def verify_bound(history_rows: list, ens: Ensemble, x: np.ndarray,
                 teacher_logits: np.ndarray, g_inf_config: float) -> BoundReport:
    """Replay a run from its artifacts and check the convergence accounting.

    Residuals are recomputed by evaluating each stored member once on the
    training data; the weight updates are replayed from scratch at the
    ensemble's eta; the recorded history must be what the run would have
    written for the replay (a tampered log fails verification even when the
    bound itself would hold).  The sup-norm error is checked against both the plain bound
    G*sqrt(ln(2N)/T) and the sharper form with the edge sum subtracted.
    """
    if not ens.members:
        raise ValueError("empty ensemble")
    if g_inf_config <= 0:
        raise ValueError("g_inf_config must be > 0")
    g = np.asarray(teacher_logits, dtype=np.float64)
    n, n_labels = g.shape
    t_rounds = len(ens.members)
    eta = ens.eta

    # one pass over the members: each one's residuals, and its logits summed
    # in `prefix_logits`' order into the prediction path's prefix average
    residuals, total = [], None
    for logits in member_logits(ens.members, x):
        residuals.append(logits - g)
        total = logits if total is None else total + logits
    mean_resid = sum(residuals) / t_rounds
    paths_agree = bool(np.max(np.abs((total / t_rounds - g) - mean_resid)) <= 1e-9)
    measured_per_label = np.abs(mean_resid).max(axis=0)
    measured = float(measured_per_label.max())
    observed = float(max(np.max(np.abs(r)) for r in residuals))

    # replay the weight player
    state = init_uniform(n, n_labels)
    records = []
    for resid in residuals:
        state, record = md_update(state, resid, eta)
        records.append(record)
    consistent = history_matches(history_rows, ens, records)

    premises = {"rounds_ok": t_rounds >= math.log(2.0 * n),
                "eta_ok": eta * g_inf_config <= 1.0 + 1e-12,
                "residuals_ok": observed <= g_inf_config + 1e-12}
    # the proof's per-round inequality holds only where eta * G <= 1
    normalizer_held = not premises["eta_ok"] or all(
        normalizer_inequality_ok(rec.edge_gamma, rec.z, eta, g_inf_config) for rec in records)
    theorem_bound = g_inf_config * math.sqrt(math.log(2.0 * n) / t_rounds)
    edge_sums = np.sum([rec.edge_gamma for rec in records], axis=0)

    per_label = []
    bound_ok = True
    for j in range(n_labels):
        appendix = theorem_bound - float(edge_sums[j]) / t_rounds
        ok = bool(measured_per_label[j] <= theorem_bound + 1e-9
                  and measured_per_label[j] <= appendix + 1e-9)
        bound_ok &= ok
        per_label.append({
            "label": j,
            "measured_sup_error": float(measured_per_label[j]),
            "edge_sum": float(edge_sums[j]),
            "appendix_bound": appendix,
            "ok": ok,
        })

    if not all(premises.values()):
        status = "premise_violated"
    elif bound_ok and consistent and paths_agree and normalizer_held:
        status = "pass"
    else:
        status = "bound_violation"
    return BoundReport(
        n_samples=n, n_labels=n_labels, T=t_rounds, eta=float(eta),
        g_inf_config=float(g_inf_config), observed_max_residual=observed,
        premises=premises, measured_sup_error=measured,
        theorem_bound=theorem_bound, per_label=per_label,
        normalizer_inequality_held=normalizer_held, history_consistent=consistent,
        prediction_paths_agree=paths_agree, status=status)


# --- files ------------------------------------------------------------------

# a curve file's record: one `CurvePoint`
CURVE_RECORD = np.dtype([("prefix_k", np.int64), ("cum_flops_fraction", np.float64),
                         ("accuracy", np.float64)])


def write_curve_csv(path, points: list) -> None:
    write_table(path, np.array([astuple(p) for p in points], CURVE_RECORD))


def save_bound_report(path, report: BoundReport) -> None:
    write_json(path, asdict(report))
