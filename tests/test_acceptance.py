"""Acceptance suite: one test per shipped claim, one printed line each.

Each test prints `[criterion NN] PASS/FAIL: ...` with the measured numbers so
a full run reads as a checklist (pytest -rP surfaces the lines).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from oracle_runs import constructed_oracle_run, ensemble_flops_direct, recompute_from_history

from ensdistill.cli import main as cli_main
from ensdistill.core import RngStream
from ensdistill.data import (
    gen_ellipsoid,
    mlp_spec,
    split,
    teacher_logits,
    train_teacher,
)
from ensdistill.distill import DistillConfig, member_logits, run
from ensdistill.evaluate import (
    accuracy,
    anytime_curve,
    baseline_resched,
    member_flops,
    standalone_spec,
)
from ensdistill.findwl import (
    FindWlConfig,
    SgdConfig,
    barrier_loss,
    distill_loss,
    logit_bound,
    total_grad_fn,
)
from ensdistill.game import (
    WeightState,
    edge,
    init_uniform,
    md_update,
    normalizer_inequality_ok,
    weak_learning_check,
)
from ensdistill.nets import (
    LayerSpec,
    backward,
    connection_flops,
    expand_class,
    flops,
    forward,
    init_params,
)

def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _random_state(rng: RngStream, n: int, n_labels: int):
    up, rng = rng.uniform(n * n_labels)
    dn, rng = rng.uniform(n * n_labels)
    kp = up.reshape(n, n_labels)
    km = dn.reshape(n, n_labels)
    tot = (kp + km).sum(axis=0)
    return WeightState(kplus=kp / tot, kminus=km / tot), rng


@pytest.fixture(scope="module")
def canonical():
    ds = gen_ellipsoid(7, 10000, 32)
    train, test = split(ds, 0.8, 7)
    teacher = train_teacher(train, mlp_spec(32, [64, 64], 2), seed=7)
    return {
        "train": train, "test": test, "teacher": teacher,
        "train_g": teacher_logits(teacher, train.x),
        "test_g": teacher_logits(teacher, test.x),
    }


@pytest.fixture(scope="module")
def e2e(canonical):
    """Five seeded boosting runs plus the averaging baseline on each."""
    train, test = canonical["train"], canonical["test"]
    teacher_cost = flops(canonical["teacher"])
    out = []
    for seed in range(1, 6):
        cfg = DistillConfig(T=5, R=2, eta=0.2, seed=seed,
                            base_hidden=[24, 24])
        ens, hist = run(cfg, train.x, canonical["train_g"])
        points = anytime_curve(ens, test.x, test.labels, teacher_cost)
        specs = [standalone_spec(m) for m in ens.members]
        resched = baseline_resched(specs, train.x, canonical["train_g"],
                                   test.x, test.labels, teacher_cost,
                                   SgdConfig(), seed=seed)
        out.append({"ens": ens, "hist": hist, "points": points,
                    "resched": resched})
    return out


@pytest.fixture(scope="module")
def small_run():
    ds = gen_ellipsoid(3, 300, 6)
    train, _ = split(ds, 0.8, 3)
    recipe = SgdConfig(lr=0.1, momentum=0.9, weight_decay=5e-4,
                       epochs=40, batch_size=64)
    teacher = train_teacher(train, mlp_spec(6, [16], 2), recipe, seed=3)
    g = teacher_logits(teacher, train.x)
    findwl = FindWlConfig(
        barrier_gamma=0.5, max_search=3,
        sgd=SgdConfig(lr=0.005, momentum=0.9, weight_decay=5e-4,
                      epochs=30, batch_size=16))
    cfg = DistillConfig(T=4, R=2, eta=0.25, seed=3,
                        base_hidden=[8], findwl=findwl)
    ens, hist = run(cfg, train.x, g)
    return ens, hist, train.x, g


def _replay_and_check_invariants(residuals, etas):
    """Iterate the update, asserting the simplex invariants after each round."""
    first = np.asarray(residuals[0])
    state = init_uniform(first.shape[0], first.shape[1])
    rounds = 0
    for l, eta in zip(residuals, etas):
        state, _ = md_update(state, l, eta)
        sums = (state.kplus + state.kminus).sum(axis=0)
        assert np.max(np.abs(sums - 1.0)) <= 1e-9
        assert state.kplus.min() >= 0.0 and state.kminus.min() >= 0.0
        assert state.kplus.max() <= 1.0 and state.kminus.max() <= 1.0
        rounds += 1
    return rounds


def _random_histories(seed, count):
    rng = RngStream(seed)
    for i in range(count):
        dims, rng = rng.uniform(3)
        n = 2 + int(dims[0] * 15)          # <= 16
        n_labels = 1 + int(dims[1] * 4)    # <= 4
        t_rounds = 1 + int(dims[2] * 64)   # <= 64
        residuals, etas = [], []
        for t in range(t_rounds):
            raw, rng = rng.gaussian(n * n_labels)
            e, rng = rng.uniform(1)
            residuals.append(raw.reshape(n, n_labels))
            etas.append(0.05 + 0.45 * float(e[0]))
        yield n, n_labels, residuals, etas


def test_criterion_01_weight_state_invariants(small_run):
    total = 0
    for n, t_rounds in ((20, 8), (100, 32)):
        ens, _, _, _ = constructed_oracle_run(n, t_rounds)
        residuals = [m.weights[0] for m in ens.members]   # x = I
        total += _replay_and_check_invariants(residuals, [ens.eta] * len(residuals))
    ens, _, x, g = small_run
    residuals = [l - g for l in member_logits(ens.members, x)]
    total += _replay_and_check_invariants(residuals, [ens.eta] * len(residuals))
    for _, _, residuals, etas in _random_histories(31, 20):
        total += _replay_and_check_invariants(residuals, etas)
    _report(1, total > 500,
            f"column sums within 1e-9 and entries in [0,1] after each of "
            f"{total} rounds")


def test_criterion_02_closed_form_matches_iterated_updates():
    worst = 0.0
    checked = 0
    for n, n_labels, residuals, etas in _random_histories(47, 50):
        state = init_uniform(n, n_labels)
        for l, eta in zip(residuals, etas):
            state, _ = md_update(state, l, eta)
        direct = recompute_from_history(init_uniform(n, n_labels), residuals, etas)
        worst = max(worst,
                    float(np.max(np.abs(direct.kplus - state.kplus))),
                    float(np.max(np.abs(direct.kminus - state.kminus))))
        checked += 1
    _report(2, checked == 50 and worst <= 1e-9,
            f"{checked} random histories, max elementwise gap {worst:.3e}")


def test_criterion_03_per_round_normalizer_inequality():
    rounds = 0
    ok = True
    for n, t_rounds in ((20, 8), (100, 32), (100, 128)):
        ens, _, _, _ = constructed_oracle_run(n, t_rounds)
        state = init_uniform(n, 1)
        for l in (m.weights[0] for m in ens.members):
            state, rec = md_update(state, l, ens.eta)
            ok &= normalizer_inequality_ok(rec.edge_gamma, rec.z, ens.eta, 1.0)
            rounds += 1
    for n, n_labels, residuals, _ in _random_histories(53, 15):
        g_inf = max(float(np.max(np.abs(l))) for l in residuals)
        eta = 0.9 / g_inf
        state = init_uniform(n, n_labels)
        for l in residuals:
            state, rec = md_update(state, l, eta)
            ok &= normalizer_inequality_ok(rec.edge_gamma, rec.z, eta, g_inf)
            rounds += 1
    _report(3, ok and rounds > 300,
            f"log z <= -eta*gamma + (eta*G)^2 held for all {rounds} rounds "
            f"with eta*G <= 1")


def _fd_composed_loss(kind: str, seed: int):
    rng = RngStream(seed)
    base = [LayerSpec(10, 16), LayerSpec(16, 4, "linear")]
    n = 12
    raw, rng = rng.gaussian(n * 10)
    x = raw.reshape(n, 10)
    raw, rng = rng.gaussian(n * 4)
    g = 2.0 * raw.reshape(n, 4)
    member0 = init_params(base, rng.split(0))
    _, acts = forward(member0, x)
    tap = acts[len(base) - 2]   # the layer expand_class taps
    if kind == "none":
        spec, conn = expand_class(base, "none", 0, [])
    else:
        spec, conn = expand_class(base, kind, 1, [member0])
    params = init_params(spec, rng.split(1), conn)
    bits, rng = rng.uniform(n * 4)
    mask = bits.reshape(n, 4) > 0.4
    cfg = FindWlConfig(barrier_gamma=0.7)
    b = logit_bound(g)

    def value():
        logits, _ = forward(params, x, tap)
        return (distill_loss(logits, g)
                + barrier_loss(logits - g, mask, b, cfg.barrier_gamma)[0])

    logits, acts = forward(params, x, tap)
    fn, targets = total_grad_fn(g, mask, cfg, b)
    dlogits = fn(logits, *targets)
    dw, db = backward(params, x, acts, dlogits, tap)
    h = 1e-5
    checked, worst = 0, 0.0
    for arrays, grads in ((params.weights, dw), (params.biases, db)):
        for arr, grad in zip(arrays, grads):
            flat, gflat = arr.ravel(), grad.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = value()
                flat[i] = orig - h
                down = value()
                flat[i] = orig
                numeric = (up - down) / (2 * h)
                denom = max(abs(numeric), abs(gflat[i]), 1e-6)
                worst = max(worst, abs(numeric - gflat[i]) / denom)
                checked += 1
    return checked, worst


def test_criterion_04_gradients_match_finite_differences():
    worst_overall = 0.0
    details = []
    for kind in ("none", "residual_add", "delta", "dense_concat"):
        checked, worst = _fd_composed_loss(kind, seed=61)
        assert checked >= 200, (kind, checked)
        worst_overall = max(worst_overall, worst)
        details.append(f"{kind}:{checked}")
    _report(4, worst_overall <= 1e-4,
            f"max relative error {worst_overall:.3e} over "
            f"{', '.join(details)} coordinates")


def test_criterion_05_convergence_bound_with_constructed_oracle():
    errs, bounds = {}, {}
    for t_rounds in (8, 32, 128):
        ens, _, _, _ = constructed_oracle_run(100, t_rounds)
        mean_resid = sum(m.weights[0] for m in ens.members) / t_rounds   # x = I
        errs[t_rounds] = float(np.max(np.abs(mean_resid)))
        bounds[t_rounds] = float(np.sqrt(np.log(200.0) / t_rounds))
    for approx, t_rounds in ((0.8137, 8), (0.4069, 32), (0.2035, 128)):
        assert abs(bounds[t_rounds] - approx) <= 5e-4
    ratio = errs[128] / errs[32]
    ok = all(errs[t] <= bounds[t] for t in errs) and ratio <= 0.60
    _report(5, ok,
            "sup errors " + ", ".join(
                f"T={t}: {errs[t]:.5f} <= {bounds[t]:.4f}" for t in (8, 32, 128))
            + f"; err(128)/err(32) = {ratio:.3f} <= 0.60")


def test_criterion_06_check_agrees_with_edge_sign():
    rng = RngStream(71)
    passes = fails = 0
    for i in range(1000):
        dims, rng = rng.uniform(2)
        n = 2 + int(dims[0] * 8)
        n_labels = 1 + int(dims[1] * 3)
        state, rng = _random_state(rng, n, n_labels)
        raw, rng = rng.gaussian(n * n_labels)
        l = raw.reshape(n, n_labels)
        if i % 2 == 0:
            l = np.abs(l) * np.sign(state.kplus - state.kminus)
        tol_draw, rng = rng.uniform(1)
        tol = 0.0 if i % 3 == 0 else 0.05 * float(tol_draw[0])
        verdict = weak_learning_check(state, l, tol)
        expect = bool(np.min(edge(state, l)) > tol)
        assert (verdict == "pass") == expect, (i, verdict, expect)
        passes += expect
        fails += not expect
    _report(6, passes >= 100 and fails >= 100,
            f"1000 random (state, residual) pairs consistent; "
            f"{passes} pass / {fails} fail branches exercised")


def test_criterion_07_ellipsoid_end_to_end(canonical, e2e):
    train_acc = accuracy(canonical["train_g"], canonical["train"].labels)
    golden_path = Path(__file__).parent / "golden" / "ellipsoid_seed7.json"
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    assert abs(train_acc - golden["teacher_train_accuracy"]) <= 2e-3
    sizes = [len(r["ens"].members) for r in e2e]
    k1 = float(np.mean([r["points"][0].accuracy for r in e2e]))
    kt = float(np.mean([r["points"][-1].accuracy for r in e2e]))
    resched = float(np.mean([r["resched"][-1].accuracy for r in e2e]))
    ok = (train_acc >= 0.95 and all(s == 5 for s in sizes)
          and kt >= k1 - 0.01 and kt >= resched - 0.005)
    _report(7, ok,
            f"teacher train acc {train_acc:.3f}; 5-seed means: k=1 {k1:.4f}, "
            f"k=5 {kt:.4f}, resched {resched:.4f} "
            f"(k5-k1 {kt - k1:+.4f} >= -0.01, k5-resched {kt - resched:+.4f} "
            f">= -0.005)")


def test_criterion_08_connection_overhead_and_flop_accounting(e2e):
    rng = RngStream(83)
    worst_ratio = 0.0
    for base in (mlp_spec(32, DistillConfig().base_hidden, 2), mlp_spec(32, [24, 24], 2)):
        spec0, conn0 = expand_class(base, "none", 0, [])
        members = [init_params(spec0, rng.split(0), conn0)]
        for i, kind in enumerate(("residual_add", "delta", "dense_concat"), 1):
            spec, conn = expand_class(base, kind, 1, members)
            members.append(init_params(spec, rng.split(i), conn))
        for m in members:
            ratio = connection_flops(m) / flops(m)
            worst_ratio = max(worst_ratio, ratio)
    exact = True
    for rec in e2e:
        ens = rec["ens"]
        exact &= sum(member_flops(ens)) == ensemble_flops_direct(ens)
        for m in ens.members:
            worst_ratio = max(worst_ratio, connection_flops(m) / flops(m))
    _report(8, worst_ratio < 0.01 and exact,
            f"worst connection overhead {worst_ratio:.4%} < 1%; member-sum "
            f"and direct whole-ensemble FLOP counts identical on all runs")


def test_criterion_09_pipeline_reruns_byte_identical(tmp_path):
    def run_pipeline(base):
        base.mkdir()
        cfg = base / "config.json"
        cfg.write_text(json.dumps({"eta": 0.02, "base_hidden": [12]}) + "\n")
        codes = [
            cli_main(["gen-data", "--dataset", "ellipsoid", "--n", "400",
                      "--d", "8", "--seed", "11", "--out", str(base / "data")]),
            cli_main(["train-teacher", "--data", str(base / "data"),
                      "--spec", "16,16", "--out", str(base / "teacher.json"),
                      "--seed", "11", "--epochs", "40", "--batch-size", "64"]),
            cli_main(["distill", "--data", str(base / "data"),
                      "--teacher", str(base / "teacher.json"),
                      "--config", str(cfg), "--out", str(base / "ensemble.json"),
                      "--history", str(base / "history.csv")]),
            cli_main(["eval", "--ensemble", str(base / "ensemble.json"),
                      "--data", str(base / "data"),
                      "--teacher", str(base / "teacher.json"),
                      "--mode", "anytime", "--out", str(base / "curve.csv")]),
            cli_main(["verify", "--history", str(base / "history.csv"),
                      "--ensemble", str(base / "ensemble.json"),
                      "--data", str(base / "data"), "--g-inf", "50",
                      "--out", str(base / "report.json")]),
        ]
        return codes

    codes_a = run_pipeline(tmp_path / "a")
    codes_b = run_pipeline(tmp_path / "b")
    artifacts = ["data/meta.json", "data/train.csv", "data/test.csv",
                 "data/train_logits.csv", "teacher.json", "ensemble.json",
                 "history.csv", "curve.csv", "report.json"]
    identical = all((tmp_path / "a" / f).read_bytes()
                    == (tmp_path / "b" / f).read_bytes() for f in artifacts)
    ok = codes_a == codes_b == [0, 0, 0, 0, 0] and identical
    _report(9, ok,
            f"two full pipeline runs: exit codes {codes_a} and {codes_b}, "
            f"{len(artifacts)} artifacts byte-identical")


def test_criterion_10_barrier_hand_values_and_clamping():
    mask = np.array([[True]])
    against, _ = barrier_loss(np.array([[-1.0]]), mask, b=1.0, barrier_gamma=1.0)
    toward, _ = barrier_loss(np.array([[1.0]]), mask, b=1.0, barrier_gamma=1.0)
    hand_ok = (abs(against - (-np.log(0.5))) < 1e-12
               and abs(toward - (-np.log(1.5))) < 1e-12)
    b = 1.0
    l = np.array([[2 * b, -5.0, 2 * b * (1 - 1e-3), 2 * b * (1 - 1e-6)]])
    wide_mask = np.ones((1, 4), dtype=bool)
    loss, clamps = barrier_loss(l, wide_mask, b=b, barrier_gamma=1.0)
    clamp_ok = clamps == 3 and np.isfinite(loss)
    _report(10, hand_ok and clamp_ok,
            f"hand values -log(0.5)={against:.12f}, -log(1.5)={toward:.12f} "
            f"within 1e-12; {clamps} entries at |l| >= 2B(1-1e-6) clamped, "
            f"loss finite")
