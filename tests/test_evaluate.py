"""Curves, baselines, early exit, and the bound verifier."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest

from oracle_runs import constructed_oracle_run, ensemble_flops_direct, history_rows, read_csv

import ensdistill.distill as distill_mod
import ensdistill.evaluate as evaluate_mod
from ensdistill.core import RngStream
from ensdistill.distill import Ensemble, read_history, write_history
from ensdistill.evaluate import (
    CURVE_RECORD,
    BoundReport,
    CurvePoint,
    accuracy,
    anytime_curve,
    baseline_resched,
    early_exit,
    member_flops,
    save_bound_report,
    standalone_spec,
    train_plain_student,
    verify_bound,
    write_curve_csv,
)
from ensdistill.findwl import SgdConfig
from ensdistill.nets import (
    NO_CONNECTION,
    LayerSpec,
    LearnerParams,
    expand_class,
    flops,
    forward,
    init_params,
)


def _constant_member(d, bias):
    """Single linear layer with zero weights: every row maps to `bias`."""
    out = len(bias)
    return LearnerParams(
        spec=[LayerSpec(d, out, "linear")], connection=NO_CONNECTION,
        weights=[np.zeros((d, out))], biases=[np.array(bias, dtype=np.float64)])


def _ensemble_of(members):
    ens = Ensemble(seed=0, eta=1.0, T=len(members), R=2, teacher_hash="")
    for m in members:
        ens.members.append(m)
        ens.class_rs.append(1)
    return ens


def test_accuracy_counts_argmax_matches():
    logits = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, -1.0], [0.5, 0.6]])
    labels = np.array([0, 1, 1, 1])
    assert accuracy(logits, labels) == 0.75


def test_anytime_single_member_point():
    member = _constant_member(3, [4.0, -2.0])
    ens = _ensemble_of([member])
    x = np.zeros((5, 3))
    labels = np.array([0, 0, 0, 1, 1])
    points = anytime_curve(ens, x, labels, teacher_flops=1000)
    assert len(points) == 1
    assert points[0].prefix_k == 1
    assert points[0].cum_flops_fraction == flops(member) / 1000
    assert points[0].accuracy == 0.6


def test_anytime_fractions_strictly_increase():
    members = [_constant_member(3, [1.0, 0.0]) for _ in range(3)]
    ens = _ensemble_of(members)
    x = np.zeros((4, 3))
    labels = np.zeros(4, dtype=np.int64)
    points = anytime_curve(ens, x, labels, teacher_flops=500)
    fractions = [p.cum_flops_fraction for p in points]
    assert fractions == sorted(fractions)
    assert len(set(fractions)) == 3
    assert [p.prefix_k for p in points] == [1, 2, 3]


def test_anytime_identical_constant_members_flat_accuracy():
    members = [_constant_member(2, [0.5, 1.5]) for _ in range(3)]
    ens = _ensemble_of(members)
    x = np.zeros((6, 2))
    labels = np.array([1, 1, 1, 1, 0, 0])
    points = anytime_curve(ens, x, labels, teacher_flops=100)
    assert [p.accuracy for p in points] == [4 / 6] * 3


def test_anytime_rejects_empty_and_bad_flops():
    ens = _ensemble_of([_constant_member(2, [1.0, 0.0])])
    x = np.zeros((2, 2))
    labels = np.zeros(2, dtype=np.int64)
    with pytest.raises(ValueError):
        anytime_curve(_ensemble_of([]), x, labels, 100)
    with pytest.raises(ValueError):
        anytime_curve(ens, x, labels, 0)


def test_flops_two_code_paths_agree_all_connection_kinds():
    base = [LayerSpec(4, 6), LayerSpec(6, 2, "linear")]
    rng = RngStream(11)
    spec0, conn0 = expand_class(base, "none", 0, [])
    members = [init_params(spec0, rng.split(0), conn0)]
    for i, kind in enumerate(("residual_add", "delta", "dense_concat"), start=1):
        spec, conn = expand_class(base, kind, 1, members)
        members.append(init_params(spec, rng.split(i), conn))
    ens = _ensemble_of(members)
    assert sum(member_flops(ens)) == ensemble_flops_direct(ens)
    # widened concat input shows up identically in both accountings
    assert member_flops(ens)[3] > member_flops(ens)[0]


def test_resched_single_spec_matches_direct_training():
    rng = RngStream(21)
    x, rng = rng.gaussian(40 * 3)
    x = x.reshape(40, 3)
    w, rng = rng.gaussian(3 * 2)
    g = x @ w.reshape(3, 2)
    labels = np.argmax(g, axis=1)
    spec = [LayerSpec(3, 5), LayerSpec(5, 2, "linear")]
    sgd = SgdConfig(lr=0.05, momentum=0.9, weight_decay=0.0, epochs=12, batch_size=8)
    points = baseline_resched([spec], x, g, x, labels,
                              teacher_flops=1000, sgd=sgd, seed=3)
    assert len(points) == 1
    params = train_plain_student(spec, x, g, sgd, RngStream(3).split(0))
    logits, _ = forward(params, x)
    assert points[0].accuracy == accuracy(logits, labels)
    assert points[0].cum_flops_fraction == flops(params) / 1000


def test_resched_prefix_count_and_fraction_growth():
    rng = RngStream(22)
    x, rng = rng.gaussian(30 * 2)
    x = x.reshape(30, 2)
    g = np.column_stack([x[:, 0], -x[:, 0]])
    labels = (x[:, 0] < 0).astype(np.int64)
    spec = [LayerSpec(2, 3), LayerSpec(3, 2, "linear")]
    sgd = SgdConfig(lr=0.05, momentum=0.0, weight_decay=0.0, epochs=5, batch_size=10)
    points = baseline_resched([spec, spec], x, g, x, labels,
                              teacher_flops=400, sgd=sgd, seed=9)
    assert [p.prefix_k for p in points] == [1, 2]
    assert points[1].cum_flops_fraction == pytest.approx(
        2 * points[0].cum_flops_fraction)


def test_resched_cuts_each_student_once_into_anytimes_rows(monkeypatch):
    """The baseline scores each student it trained through `split_head`,
    once, over a test split of two row blocks, so its curve is
    `anytime_curve`'s over those students, point for point."""
    rng = RngStream(23)
    x, rng = rng.gaussian(2048 * 3)
    x = x.reshape(2048, 3)
    g = np.column_stack([x[:, 0] + x[:, 1], -x[:, 2]])
    labels = np.argmax(g, axis=1)
    spec = [LayerSpec(3, 6), LayerSpec(6, 2, "linear")]
    sgd = SgdConfig(lr=0.05, momentum=0.0, weight_decay=0.0, epochs=3, batch_size=16)
    students, cut = [], []
    train, split_head = evaluate_mod.train_plain_student, evaluate_mod.split_head
    monkeypatch.setattr(evaluate_mod, "train_plain_student",
                        lambda *args: students.append(train(*args)) or students[-1])
    monkeypatch.setattr(evaluate_mod, "split_head",
                        lambda params, *args: cut.append(params) or split_head(params, *args))
    points = baseline_resched([spec, spec], x[:64], g[:64], x, labels,
                              teacher_flops=500, sgd=sgd, seed=4)
    assert len(students) == 2
    assert [id(params) for params in cut] == [id(student) for student in students]
    assert points == anytime_curve(_ensemble_of(students), x, labels, 500)


def test_standalone_spec_unwidens_concat_and_passes_through_plain():
    base = [LayerSpec(4, 6), LayerSpec(6, 2, "linear")]
    rng = RngStream(5)
    spec0, conn0 = expand_class(base, "none", 0, [])
    m0 = init_params(spec0, rng.split(0), conn0)
    spec1, conn1 = expand_class(base, "dense_concat", 1, [m0])
    m1 = init_params(spec1, rng.split(1), conn1)
    assert m1.spec[1].in_dim > 6
    assert standalone_spec(m1) == base
    assert standalone_spec(m0) == base


def test_verify_bound_runs_each_member_over_the_split_once(monkeypatch):
    """The residual pass's own logits, summed in `prefix_logits`' order, give
    the prediction path's average: no member runs twice, and the report
    keeps its fields."""
    base = [LayerSpec(3, 5), LayerSpec(5, 2, "linear")]
    rng = RngStream(9)
    members = [init_params(base, rng.split(0))]
    for i, kind in enumerate(["residual_add", "dense_concat"], start=1):
        spec, conn = expand_class(base, kind, 1, members)
        members.append(init_params(spec, rng.split(i), conn))
    ens = Ensemble(members=members, class_rs=[1, 2, 2], eta=0.1, T=3, R=3)
    u, _ = rng.split(8).uniform(40 * 3)
    g, _ = rng.split(9).gaussian(40 * 2)
    x, g = u.reshape(40, 3), g.reshape(40, 2)
    calls = []
    split_head = distill_mod.split_head
    monkeypatch.setattr(distill_mod, "split_head",
                        lambda params, *args: calls.append(params) or split_head(params, *args))
    report = verify_bound([], ens, x, g, 10.0)
    assert [id(params) for params in calls] == [id(member) for member in members]
    assert report.prediction_paths_agree
    monkeypatch.undo()
    residuals = [logits - g for logits in distill_mod.member_logits(members, x)]
    assert report.measured_sup_error == float(np.abs(sum(residuals) / 3).max())
    assert report.observed_max_residual == float(max(np.abs(r).max() for r in residuals))


def _scaled_identity_member(scale):
    return LearnerParams(
        spec=[LayerSpec(2, 2, "linear")], connection=NO_CONNECTION,
        weights=[np.eye(2) * scale], biases=[np.zeros(2)])


def test_early_exit_rows_leave_when_confident():
    ens = _ensemble_of([_scaled_identity_member(10.0),
                        _scaled_identity_member(10.0)])
    x = np.array([[5.0, 0.0], [0.01, 0.005], [-3.0, 0.0]])
    preds, chosen, spent = early_exit(ens, x, threshold=0.9)
    assert chosen.tolist() == [1, 2, 1]
    assert preds.tolist() == [0, 0, 1]
    per_member = flops(ens.members[0])
    assert spent.tolist() == [per_member, 2 * per_member, per_member]


def test_early_exit_threshold_zero_stops_at_first_member():
    ens = _ensemble_of([_scaled_identity_member(1.0),
                        _scaled_identity_member(1.0)])
    x = np.array([[0.3, -0.2], [0.0, 0.0]])
    preds, chosen, spent = early_exit(ens, x, threshold=0.0)
    assert chosen.tolist() == [1, 1]
    assert (spent == flops(ens.members[0])).all()


def test_early_exit_unreachable_threshold_runs_everything():
    ens = _ensemble_of([_scaled_identity_member(1.0),
                        _scaled_identity_member(1.0),
                        _scaled_identity_member(1.0)])
    x = np.array([[9.0, 0.0], [0.0, 9.0]])
    preds, chosen, spent = early_exit(ens, x, threshold=2.0)
    assert chosen.tolist() == [3, 3]
    assert (spent == sum(member_flops(ens))).all()
    assert preds.tolist() == [0, 1]


def test_early_exit_rejects_empty_ensemble():
    with pytest.raises(ValueError):
        early_exit(_ensemble_of([]), np.zeros((1, 2)), 0.5)


# --- bound verification -----------------------------------------------------

def test_verify_bound_passes_on_constructed_run():
    ens, hist, x, g = constructed_oracle_run(20, 8)
    report = verify_bound(history_rows(hist), ens, x, g, g_inf_config=1.0)
    assert report.status == "pass"
    assert report.history_consistent
    assert report.prediction_paths_agree
    assert report.normalizer_inequality_held
    assert report.premises == {"rounds_ok": True, "eta_ok": True, "residuals_ok": True}
    assert report.theorem_bound == pytest.approx(math.sqrt(math.log(40.0) / 8))
    assert report.measured_sup_error <= report.theorem_bound
    # with x = I the residuals are the stored weight columns themselves
    mean_resid = sum(m.weights[0] for m in ens.members) / len(ens.members)
    assert report.measured_sup_error == pytest.approx(
        np.max(np.abs(mean_resid)), abs=1e-12)


def test_verify_bound_theorem_value_at_t64():
    ens, hist, x, g = constructed_oracle_run(100, 64)
    report = verify_bound(history_rows(hist), ens, x, g, g_inf_config=1.0)
    assert abs(report.theorem_bound - 0.2877259) <= 2e-6
    assert report.status == "pass"


def test_verify_bound_flags_short_runs_as_premise_violation():
    ens, hist, x, g = constructed_oracle_run(20, 2)   # 2 < ln(40)
    report = verify_bound(history_rows(hist), ens, x, g, g_inf_config=1.0)
    assert report.status == "premise_violated"
    assert report.premises["rounds_ok"] is False


def test_verify_bound_flags_undersized_g_inf():
    ens, hist, x, g = constructed_oracle_run(20, 8)
    report = verify_bound(history_rows(hist), ens, x, g, g_inf_config=0.5)
    assert report.premises["residuals_ok"] is False
    assert report.status == "premise_violated"


def test_verify_bound_rejects_tampered_edge():
    ens, hist, x, g = constructed_oracle_run(20, 8)
    rows = history_rows(hist)
    rows[5]["edge_gamma"] += 0.25
    report = verify_bound(rows, ens, x, g, g_inf_config=1.0)
    assert report.history_consistent is False
    assert report.status == "bound_violation"


def test_verify_bound_rejects_tampered_normalizer():
    ens, hist, x, g = constructed_oracle_run(20, 8)
    rows = history_rows(hist)
    rows[-1]["z"] *= 1.01
    report = verify_bound(rows, ens, x, g, g_inf_config=1.0)
    assert report.history_consistent is False
    assert report.status == "bound_violation"


def test_verify_bound_rejects_missing_rows():
    ens, hist, x, g = constructed_oracle_run(20, 8)
    rows = history_rows(hist)[:-1]
    report = verify_bound(rows, ens, x, g, g_inf_config=1.0)
    assert report.history_consistent is False
    assert report.status == "bound_violation"


def test_verify_bound_rejects_conflicting_eta_column():
    ens, hist, x, g = constructed_oracle_run(20, 8)
    rows = history_rows(hist)
    rows[0]["eta"] = rows[0]["eta"] * 2
    report = verify_bound(rows, ens, x, g, g_inf_config=1.0)
    assert report.history_consistent is False


def test_verify_bound_replays_at_the_ensembles_eta():
    ens, hist, x, g = constructed_oracle_run(20, 8)
    rows = history_rows(hist)
    for row in rows:
        row["eta"] *= 2
    report = verify_bound(rows, ens, x, g, g_inf_config=1.0)
    assert report.history_consistent is False
    assert report.eta == ens.eta
    # the replay itself is the untampered one: only the history is refused
    untampered = verify_bound(history_rows(hist), ens, x, g, g_inf_config=1.0)
    assert report.per_label == untampered.per_label


def test_verify_bound_rejects_tampered_class_r():
    ens, hist, x, g = constructed_oracle_run(20, 8)
    rows = history_rows(hist)
    rows[3]["class_r"] = 7
    report = verify_bound(rows, ens, x, g, g_inf_config=1.0)
    assert report.history_consistent is False
    assert report.status == "bound_violation"


@pytest.mark.parametrize("key, value", [("round", -2 ** 63), ("label", -2 ** 63),
                                        ("class_r", 2 ** 63 - 1)])
def test_verify_bound_rejects_an_int64_cell_at_the_end_of_its_range(key, value, tmp_path):
    # as read from the file, an exact cell is an int64, whose difference from
    # the replayed value could wrap round to a small one
    ens, hist, x, g = constructed_oracle_run(20, 8)
    write_history(tmp_path / "history.csv", hist)
    rows = read_history(tmp_path / "history.csv")
    assert verify_bound(rows, ens, x, g, g_inf_config=1.0).history_consistent is True
    rows[0][key] = value
    report = verify_bound(rows, ens, x, g, g_inf_config=1.0)
    assert report.history_consistent is False


def test_verify_bound_rejects_rows_out_of_the_writers_order():
    ens, hist, x, g = constructed_oracle_run(20, 8)
    rows = history_rows(hist)
    rows[0], rows[1] = rows[1], rows[0]
    report = verify_bound(rows, ens, x, g, g_inf_config=1.0)
    assert report.history_consistent is False


def test_verify_bound_does_not_compare_clamp_counts():
    # recomputing a clamp count needs the run's config, which no artifact holds
    ens, hist, x, g = constructed_oracle_run(20, 8)
    rows = history_rows(hist)
    for row in rows:
        row["clamp_count"] = 999
    report = verify_bound(rows, ens, x, g, g_inf_config=1.0)
    assert report.history_consistent is True
    assert report.status == "pass"


def test_verify_bound_input_validation():
    ens, hist, x, g = constructed_oracle_run(20, 8)
    with pytest.raises(ValueError):
        verify_bound(history_rows(hist), _ensemble_of([]), x, g, 1.0)
    with pytest.raises(ValueError):
        verify_bound(history_rows(hist), ens, x, g, 0.0)


# --- files ------------------------------------------------------------------

def test_curve_csv_round_trip_is_exact(tmp_path):
    points = [CurvePoint(1, 0.1 / 3, 0.875), CurvePoint(2, 0.2 / 3, 2 / 3)]
    path = tmp_path / "curve.csv"
    write_curve_csv(path, points)
    assert [CurvePoint(int(k), float(frac), float(acc))
            for k, frac, acc in read_csv(path, CURVE_RECORD.names)] == points
    header = path.read_text().splitlines()[0]
    assert header == "prefix_k,cum_flops_fraction,accuracy"


def test_bound_report_file_contents(tmp_path):
    ens, hist, x, g = constructed_oracle_run(20, 8)
    report = verify_bound(history_rows(hist), ens, x, g, g_inf_config=1.0)
    path = tmp_path / "report.json"
    save_bound_report(path, report)
    loaded = json.loads(path.read_text())
    # the report's fields are the file's keys, in order
    assert list(loaded) == [f.name for f in fields(BoundReport)]
    assert loaded["status"] == "pass"
    assert loaded["theorem_bound"] == report.theorem_bound
    assert loaded["premises"] == {"rounds_ok": True, "eta_ok": True,
                                  "residuals_ok": True}
    assert len(loaded["per_label"]) == 1
    assert loaded["per_label"][0]["ok"] is True
