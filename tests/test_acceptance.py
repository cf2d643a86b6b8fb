"""The package's ten stated guarantees, one timed check per criterion.

Each test appends a one-line verdict to ``conftest.ACCEPTANCE_LINES`` (printed
after the run) and then asserts it.  Numbers in brackets are the tolerance
bands the package commits to; see README.md for how they were chosen.
"""

import math
import time

import numpy as np
import pytest

import icut
from icut import io
from icut.mlp import init_params, loss_and_grads
from conftest import ACCEPTANCE_LINES, oracle_zscores


def _check(num, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append(f"criterion {num:02d} {verdict}: {detail}")
    assert passed, f"criterion {num:02d}: {detail}"


def _table2_summary(out_dir, group, method, kind, p=0.45, train=True):
    """The shared protocol: 3 seeds, defaults, fixed balanced priors."""
    cfg = icut.ExperimentConfig(
        synthetic=icut.SyntheticSpec(group=group),
        noise=icut.NoiseSpec(p),
        representation_kind=kind,
        method=method,
        cutstats=icut.CutstatsConfig(k=20, tau=0.4, priors=(0.5, 0.5)),
        seeds=(0, 1, 2),
        output_dir=str(out_dir),
        train_downstream=train,
    )
    s = icut.run_experiment(cfg)["summary"]
    return 100.0 * s["subset_accuracy"][0], 100.0 * s["classifier_accuracy"][0]


def test_criterion_01_zscore_oracle_equivalence():
    rng = np.random.default_rng(1001)
    # trigger kernel compilation outside the timed region
    warm = icut.compute_representation(
        icut.LabeledDataset(features=np.eye(8), noisy_labels=np.arange(8) % 2,
                            num_classes=2, ids=np.arange(8)), "identity")
    icut.build_neighbor_table(warm, 2)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(8, 51))
        d = int(rng.integers(1, 6))
        k = int(rng.integers(1, min(6, n)))
        num_classes = int(rng.integers(2, 4))
        feats = rng.uniform(-1.0, 1.0, size=(n, d))
        labels = rng.integers(0, num_classes, size=n)
        labels[:num_classes] = np.arange(num_classes)
        ids = rng.permutation(2 * n)[:n]
        ds = icut.LabeledDataset(features=feats, noisy_labels=labels,
                                 num_classes=num_classes, ids=ids)
        if trial % 2 == 0:
            priors_cfg = "empirical"
            priors_arr = np.bincount(labels, minlength=num_classes) / n
        else:
            raw = rng.uniform(0.1, 1.0, size=num_classes)
            priors_arr = raw / raw.sum()
            priors_cfg = tuple(float(v) for v in priors_arr)
        rep = icut.compute_representation(ds, "identity")
        table = icut.build_neighbor_table(rep, k)
        z = icut.cutstats_scores(rep, table,
                                 icut.CutstatsConfig(k=k, tau=0.4, priors=priors_cfg))
        z_ref = oracle_zscores(feats, ids, labels, k, priors_arr)
        worst = max(worst, float(np.max(np.abs(z - z_ref))))
    elapsed = time.perf_counter() - t0
    _check(1, worst <= 1e-9 and elapsed < 10.0,
           f"1000 instances, max |z - oracle| = {worst:.2e} [<= 1e-9], "
           f"{elapsed:.1f}s [< 10s]")


def test_criterion_02_error_propagation_monte_carlo():
    t0 = time.perf_counter()
    worked = icut.validate_prop1_monte_carlo(0.45, 0.45, 0.74, 0.74,
                                             trials=10**6, seed=0)
    ok = (worked.within(3.0)
          and worked.alpha_s_pred == pytest.approx(0.22328244274809161, rel=1e-12))
    misses = 0
    rng = np.random.default_rng(np.random.SeedSequence([0, 41]))
    for i in range(20):
        alpha, gamma = rng.uniform(0.05, 0.45, size=2)
        lam0 = rng.uniform(0.55, 0.95)
        lam1 = rng.uniform(max(0.55, 1.0 - lam0), 0.95)
        rep = icut.validate_prop1_monte_carlo(alpha, gamma, lam0, lam1,
                                              trials=10**6, seed=i + 1)
        if not rep.within(3.0):
            misses += 1
    elapsed = time.perf_counter() - t0
    _check(2, ok and misses == 0 and elapsed < 30.0,
           f"worked point dev {worked.alpha_dev:.2e} within 3 sigma, "
           f"{misses}/20 random tuples outside 3 sigma [need 0], "
           f"{elapsed:.1f}s [< 30s]")


def test_criterion_03_norm_representation_beats_raw_features(tmp_path):
    t0 = time.perf_counter()
    sub_l2, clf_l2 = _table2_summary(tmp_path / "l2", "orthogonal", "cutstats", "l2norm")
    sub_id, clf_id = _table2_summary(tmp_path / "id", "orthogonal", "cutstats", "identity")
    elapsed = time.perf_counter() - t0
    _check(3, 69.0 <= sub_l2 <= 80.0 and sub_l2 - sub_id >= 8.0
           and clf_l2 >= clf_id and elapsed < 600.0,
           f"subset l2norm {sub_l2:.2f} [69, 80], gap over identity "
           f"{sub_l2 - sub_id:.2f} [>= 8], classifier {clf_l2:.2f} vs "
           f"{clf_id:.2f} [l2norm >= identity], {elapsed:.0f}s [< 600s]")


def test_criterion_04_sort_representation_beats_baselines(tmp_path):
    t0 = time.perf_counter()
    sub_sort, clf_sort = _table2_summary(tmp_path / "sort", "permutation",
                                         "cutstats", "sort")
    sub_id, _ = _table2_summary(tmp_path / "id", "permutation", "cutstats", "identity")
    baselines = {}
    for method in ("random", "entropy", "forget", "herding"):
        _, clf = _table2_summary(tmp_path / method, "permutation", method, "identity")
        baselines[method] = clf
    best_name, best_clf = max(baselines.items(), key=lambda kv: kv[1])
    elapsed = time.perf_counter() - t0
    _check(4, 68.0 <= sub_sort <= 82.0 and sub_sort >= sub_id
           and clf_sort >= best_clf and elapsed < 300.0,
           f"subset sort {sub_sort:.2f} [68, 82] >= identity {sub_id:.2f}, "
           f"classifier {clf_sort:.2f} >= best baseline {best_name} {best_clf:.2f}, "
           f"{elapsed:.0f}s [< 300s]")


def test_criterion_05_noiseless_controls(tmp_path):
    _, clean_orth = _table2_summary(tmp_path / "orth", "orthogonal", "full",
                                    "l2norm", p=0.0)
    _, clean_perm = _table2_summary(tmp_path / "perm", "permutation", "full",
                                    "sort", p=0.0)
    exact = []
    for method in ("cutstats", "random", "entropy", "forget", "herding", "full"):
        cfg = icut.ExperimentConfig(
            synthetic=icut.SyntheticSpec(group="orthogonal", d=6,
                                         n_train=400, n_test=100),
            noise=icut.NoiseSpec(0.0),
            representation_kind="l2norm",
            method=method,
            cutstats=icut.CutstatsConfig(k=5, tau=0.5, priors=(0.5, 0.5)),
            mlp=icut.MlpConfig(epochs=2, batch_size=64),
            seeds=(0,),
            output_dir=str(tmp_path / "exact"),
            train_downstream=False,
        )
        metrics, _ = icut.run_seed(cfg, 0)
        exact.append(metrics.subset_accuracy == 1.0)
    _check(5, abs(clean_orth - 70.40) <= 3.0 and abs(clean_perm - 90.93) <= 3.0
           and all(exact),
           f"clean accuracy orthogonal {clean_orth:.2f} [70.40 +/- 3], "
           f"permutation {clean_perm:.2f} [90.93 +/- 3], "
           f"subset accuracy exactly 100.0 for {sum(exact)}/6 selectors at p=0")


def test_criterion_06_dimension_sweep(tmp_path):
    t0 = time.perf_counter()
    vals = {}
    for kind in ("identity", "l2norm"):
        cfg = icut.ExperimentConfig(
            synthetic=icut.SyntheticSpec(group="orthogonal",
                                         feature_range=(-0.32, 0.32)),
            noise=icut.NoiseSpec(0.45),
            representation_kind=kind,
            method="cutstats",
            cutstats=icut.CutstatsConfig(k=20, tau=0.4, priors=(0.5, 0.5)),
            seeds=(0, 1, 2),
            output_dir=str(tmp_path / kind),
            train_downstream=False,
        )
        result = icut.run_ablation("dimension_sweep", cfg, [200, 1000])
        vals[kind] = {int(p): 100.0 * sub[0] for p, _, sub, _ in result["rows"]}
    elapsed = time.perf_counter() - t0
    id_drop = vals["identity"][200] - vals["identity"][1000]
    l2_shift = abs(vals["l2norm"][1000] - vals["l2norm"][200])
    _check(6, id_drop >= 10.0 and l2_shift <= 5.0 and elapsed < 900.0,
           f"identity {vals['identity'][200]:.2f} -> {vals['identity'][1000]:.2f} "
           f"(drop {id_drop:.2f} [>= 10]), l2norm {vals['l2norm'][200]:.2f} -> "
           f"{vals['l2norm'][1000]:.2f} (shift {l2_shift:.2f} [<= 5]), "
           f"{elapsed:.0f}s [< 900s]")


def test_criterion_07_invariance_error_ablation(tmp_path):
    t0 = time.perf_counter()
    cfg = icut.ExperimentConfig(
        synthetic=icut.SyntheticSpec(group="orthogonal"),
        noise=icut.NoiseSpec(0.45),
        representation_kind="l2norm",
        method="cutstats",
        cutstats=icut.CutstatsConfig(k=20, tau=0.4, priors=(0.5, 0.5)),
        seeds=(0, 1, 2),
        output_dir=str(tmp_path),
        train_downstream=False,
    )
    grid = [0.0, 0.049, 0.111, 0.297, 0.452]
    result = icut.run_ablation("invariance_error", cfg, grid)
    subs = [100.0 * sub[0] for _, _, sub, _ in result["rows"]]
    rises = [b - a for a, b in zip(subs, subs[1:]) if b > a]
    drop = subs[0] - subs[-1]
    elapsed = time.perf_counter() - t0
    _check(7, len(rises) <= 1 and all(r <= 1.0 for r in rises) and drop >= 5.0
           and elapsed < 60.0,
           f"subset accuracy {' -> '.join(f'{v:.2f}' for v in subs)}, "
           f"{len(rises)} inversion(s) of {max(rises) if rises else 0.0:.2f} "
           f"[<= 1 of <= 1pt], endpoint drop {drop:.2f} [>= 5], {elapsed:.0f}s [< 60s]")


def test_criterion_08_feasibility_window():
    t0 = time.perf_counter()
    worked = dict(n=10**6, nu=0.05, rho=1.0, delta=0.1, omega=1.0, p0=1.0, kl1=1.0)
    plain = icut.feasibility_window(icut.WindowParams(**worked), range(1, 22))
    perm = icut.feasibility_window(
        icut.WindowParams(mode="permutation", **worked), range(1, 22))
    orth = icut.feasibility_window(
        icut.WindowParams(mode="orthogonal", **worked), range(1, 22))

    u10 = math.pi**5 / 120.0 * 0.1**10 * 1e6
    l10 = 10.0 * math.log(20.0) ** 2 * 10 ** (6.0 / 11.0)
    row10 = plain.rows[9]
    prow10 = perm.rows[9]
    checks = [
        plain.rows[0][3],                                     # d=1 feasible
        not row10[3],                                         # plain d=10 infeasible
        math.exp(row10[2]) == pytest.approx(u10, rel=1e-9),
        math.exp(row10[1]) == pytest.approx(l10, rel=1e-9),
        prow10[3],                                            # permutation d=10 feasible
        math.exp(prow10[2]) == pytest.approx(u10 * math.factorial(10), rel=1e-9),
        plain.d0 == 4 and plain.unique_transition,
        all(r[1] == orth.rows[0][1] and r[2] == orth.rows[0][2] for r in orth.rows),
    ]
    recurrence_ok = True
    for d in range(3, 31):
        v_d = icut.unit_ball_log_volume(d)[1]
        v_prev = icut.unit_ball_log_volume(d - 2)[1]
        if abs(v_d - v_prev * 2.0 * math.pi / d) > 1e-10 * abs(v_d):
            recurrence_ok = False
    elapsed = time.perf_counter() - t0
    _check(8, all(checks) and recurrence_ok and elapsed < 1.0,
           f"plain d0={plain.d0} [= 4, unique], U(10)={math.exp(row10[2]):.4e} "
           f"[~2.55e-4], permutation U(10)={math.exp(prow10[2]):.1f} [~925, feasible], "
           f"orthogonal constant, volume recurrence to 1e-10, {elapsed:.2f}s [< 1s]")


def test_criterion_09_external_embedding_path(tmp_path):
    rng = np.random.default_rng(7)
    n, num_classes, m = 1500, 5, 8
    true = rng.integers(0, num_classes, size=n)
    centers = rng.standard_normal((num_classes, m)) * 10.0
    emb = centers[true] + 0.1 * rng.standard_normal((n, m))
    ids = np.arange(n)
    base = icut.LabeledDataset(features=emb, noisy_labels=true,
                               num_classes=num_classes, ids=ids, true_labels=true)
    noisy = icut.inject_label_noise(base, icut.NoiseSpec(0.45, num_classes=num_classes),
                                    seed=7)
    emb_path = tmp_path / "embedding.csv"
    io.write_embedding_csv(ids, emb, emb_path)
    rep = icut.load_external_representation(noisy, emb_path)
    table = icut.build_neighbor_table(rep, 20)
    z = icut.cutstats_scores(rep, table, icut.CutstatsConfig(k=20, tau=0.4))
    sel = icut.SelectionResult(scores=z, selected=icut.rank_select(z, noisy.ids, 0.4))
    acc = 100.0 * icut.subset_accuracy(sel, noisy)

    lines = emb_path.read_text().rstrip("\n").split("\n")
    missing = tmp_path / "missing_row.csv"
    missing.write_text("\n".join(lines[:-1]) + "\n")
    bad_id = lines[:]
    bad_id[1] = "999999" + bad_id[1][bad_id[1].index(","):]
    wrong_id = tmp_path / "wrong_id.csv"
    wrong_id.write_text("\n".join(bad_id) + "\n")
    nf = lines[:]
    parts = nf[2].split(",")
    parts[3] = "nan"
    nf[2] = ",".join(parts)
    non_finite = tmp_path / "non_finite.csv"
    non_finite.write_text("\n".join(nf) + "\n")

    messages = []
    for path in (missing, wrong_id, non_finite):
        with pytest.raises(ValueError) as exc:
            icut.load_external_representation(noisy, path)
        messages.append(str(exc.value))
    distinct = (messages[0].startswith("row-count mismatch")
                and messages[1] == "id mismatch between embedding file and dataset"
                and messages[2] == "non-finite embedding value"
                and len(set(messages)) == 3)
    _check(9, acc >= 95.0 and distinct,
           f"external multiclass subset accuracy {acc:.2f} [>= 95], "
           f"3/3 malformed files rejected with distinct errors")


def test_criterion_10_numerical_hygiene(tmp_path):
    worst_rel = 0.0
    for num_classes, seed in ((2, 31), (3, 32)):
        rng = np.random.default_rng(seed)
        d, hidden, n = 5, 4, 8
        out = 1 if num_classes == 2 else num_classes
        params = init_params(d, hidden, out, rng)
        X = rng.normal(size=(n, d))
        y = rng.integers(0, num_classes, size=n)
        _, grads = loss_and_grads(params, X, y, num_classes)
        step = 1e-5
        for p_idx, p in enumerate(params):
            flat = p.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + step
                up, _ = loss_and_grads(params, X, y, num_classes)
                flat[j] = orig - step
                down, _ = loss_and_grads(params, X, y, num_classes)
                flat[j] = orig
                numeric = (up - down) / (2.0 * step)
                analytic = grads[p_idx].reshape(-1)[j]
                rel = abs(analytic - numeric) / max(1.0, abs(analytic) + abs(numeric))
                worst_rel = max(worst_rel, rel)

    density_ok = all(icut.check_sorted_density(d).all_passed for d in (2, 3))

    cfg_kw = dict(
        synthetic=icut.SyntheticSpec(group="orthogonal", d=6,
                                     n_train=300, n_test=100),
        cutstats=icut.CutstatsConfig(k=5, tau=0.5, priors=(0.5, 0.5)),
        mlp=icut.MlpConfig(epochs=3, batch_size=64),
        seeds=(0, 1),
    )
    icut.run_experiment(icut.ExperimentConfig(output_dir=str(tmp_path / "a"), **cfg_kw))
    icut.run_experiment(icut.ExperimentConfig(output_dir=str(tmp_path / "b"), **cfg_kw))
    identical = ((tmp_path / "a" / "report.csv").read_bytes()
                 == (tmp_path / "b" / "report.csv").read_bytes()
                 and (tmp_path / "a" / "report.txt").read_bytes()
                 == (tmp_path / "b" / "report.txt").read_bytes())
    _check(10, worst_rel <= 1e-4 and density_ok and identical,
           f"gradient check max rel err {worst_rel:.2e} [<= 1e-4], sorted density "
           f"d=2,3 passed, identical configs gave byte-identical reports")
