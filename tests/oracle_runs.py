"""Constructed runs whose members realize chosen residuals exactly.

With x = I and a single zero-bias linear layer, a member's logits ARE its
weight column, so any per-row residual pattern is representable.  Each round
picks residuals sign-aligned with the current weight imbalance at magnitudes
in [0.25, 1.0], which keeps every post-degenerate round's edge positive and
the sup norm of residuals at exactly G_inf = 1.
"""

import numpy as np

from ensdistill.core import RngStream
from ensdistill.distill import Ensemble, RoundRecord, RunHistory
from ensdistill.game import init_uniform, md_update
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
            z=record.z, eta=float(eta), clamp_count=0,
            verdict="degenerate" if t == 0 else "pass", train_loss=0.0))
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
