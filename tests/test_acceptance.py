"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The stochastic deep-training
criteria take the best of three seeds as specified.
"""

import time

import numpy as np

from taskquant import deep, harness, scenarios
from taskquant.hardware import (PartialConnect, PhaseOnly, apply_partial_mask,
                                constrained_design, project_phase_only)
from taskquant.harness import ExperimentConfig
from taskquant.linear_task import (LinearTaskModel, design, estimate,
                                   excess_mse)
from taskquant.quadratic_task import lift
from taskquant.quant import UniformQuantizerSpec, dithered_quantize


def _report(num, ok, detail):
    marker = "PASS" if ok else "FAIL"
    print(f"\ncriterion {num}: {marker} — {detail}")
    assert ok, detail


def test_criterion_01_dithered_quantizer_statistics():
    start = time.perf_counter()
    n = 10 ** 6
    rng = np.random.default_rng(101)
    worst = []
    for levels in (2, 4, 16):
        spec = UniformQuantizerSpec(levels=levels, support=1.0, dithered=True)
        margin = spec.support - spec.spacing / 2
        z = rng.uniform(-margin, margin, size=n)
        err = dithered_quantize(z, spec, rng) - z
        target = spec.spacing ** 2 / 6
        mean_ok = abs(err.mean()) < 4 * np.sqrt(target / n)
        var_ok = abs(err.var() - target) < 0.02 * target
        corr_ok = abs(np.corrcoef(err, z)[0, 1]) < 0.01
        worst.append((levels, mean_ok, var_ok, corr_ok))
    elapsed = time.perf_counter() - start
    ok = all(m and v and c for _, m, v, c in worst) and elapsed < 5.0
    _report(1, ok, f"levels 2/4/16 error stats in {elapsed:.2f}s: {worst}")


def test_criterion_02_design_self_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_gap = worst_spread = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 31))
        k = int(rng.integers(1, min(n, 8) + 1))
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        cov = (q * rng.uniform(0.3, 3.0, n)) @ q.T
        model = LinearTaskModel(obs_cov=cov,
                                task_matrix=rng.standard_normal((k, n)))
        levels = int(rng.choice([2, 4, 8, 16]))
        scale = min(4.0, 0.95 * np.sqrt(3) * levels)
        p = int(rng.integers(1, k + 3))
        des = design(model, p, levels, support_scale=scale)
        direct = excess_mse(des.analog, model, des.quantizer.support, levels)
        worst_gap = max(worst_gap,
                        abs(des.predicted_excess_mse - direct) / direct)
        var = np.einsum("ij,jk,ik->i", des.analog, cov, des.analog)
        worst_spread = max(worst_spread, (var.max() - var.min()) / var.max())
    elapsed = time.perf_counter() - start
    ok = worst_gap < 1e-8 and worst_spread < 1e-8 and elapsed < 30.0
    _report(2, ok, f"200 models in {elapsed:.1f}s: worst prediction gap "
                   f"{worst_gap:.2e}, worst variance spread {worst_spread:.2e}")


def test_criterion_03_analytic_vs_simulation():
    start = time.perf_counter()
    sc = scenarios.isi_scenario()
    trials = 10 ** 5
    gaps = {}
    for levels in (4, 8, 16):
        des = design(sc.model, 8, levels, support_scale=4.0)
        rng = np.random.default_rng(303 + levels)
        excess_sum = 0.0
        done = 0
        while done < trials:
            count = min(20000, trials - done)
            s, x = sc.sampler(rng, count)
            ideal = x @ sc.model.task_matrix.T
            shat = estimate(des, x, rng=rng)
            excess_sum += ((ideal - shat) ** 2).sum()
            done += count
        empirical = excess_sum / trials
        gaps[levels] = abs(empirical - des.predicted_excess_mse) / des.predicted_excess_mse
    elapsed = time.perf_counter() - start
    ok = all(g < 0.05 for g in gaps.values()) and elapsed < 60.0
    _report(3, ok, f"relative excess gaps at 4/8/16 levels in {elapsed:.1f}s: "
                   f"{ {k: round(v, 4) for k, v in gaps.items()} }")


def test_criterion_04_rate_sweep_orderings():
    start = time.perf_counter()
    grid = tuple(8.0 * j for j in range(1, 7))   # 1..6 bits per quantizer
    rows = {}
    for method in ("task_based", "mmse_then_quantize"):
        cfg = ExperimentConfig(scenario="isi", method=method, grid=grid,
                               trials=30000, seed=404, channels=8)
        result = harness.sweep(cfg)
        rows[method] = [r for r in result if r.method == method]
        if method == "task_based":
            rows["bound"] = [r for r in result if r.method == "bound"]
    sc = scenarios.isi_scenario()
    dominance = all(
        a.estimate <= b.estimate + 3 * np.hypot(a.std_error, b.std_error)
        for a, b in zip(rows["task_based"], rows["mmse_then_quantize"]))
    fine = [r for r in rows["task_based"] if r.axis >= 40.0]
    floor = sc.model.mmse_floor
    negligible = all(abs(r.estimate - floor) < 0.05 * floor for r in fine)
    bounded = all(r.estimate >= b.estimate - 3 * r.std_error
                  for r, b in zip(rows["task_based"], rows["bound"]))
    elapsed = time.perf_counter() - start
    ok = dominance and negligible and bounded and elapsed < 180.0
    _report(4, ok, f"in {elapsed:.1f}s: dominance={dominance}, "
                   f"fine-rate within 5% of floor={negligible}, "
                   f"bound below={bounded}")


def test_criterion_05_quadratic_linearity_certificate():
    start = time.perf_counter()
    sc = scenarios.covariance_scenario()
    lifted = sc.lifted
    p = lifted.model.k     # rank-preserving combiner
    des = design(lifted.model, p, 4, support_scale=3.0)
    rng = np.random.default_rng(505)
    _, x = sc.sampler(rng, 10 ** 5)
    z = lift(x, lifted.input_cov) @ des.analog.T
    values = sc.task.values(x)
    base = np.column_stack([np.ones(len(z)), z])
    quad = np.column_stack([base] + [
        (z[:, a] * z[:, b])[:, None]
        for a in range(p) for b in range(a, p)])
    worst_gap = worst_improvement = 0.0
    for i, row in enumerate(lifted.model.task_matrix):
        f = values[:, i]
        cf = row @ lifted.model.obs_cov @ des.analog.T
        cz = des.analog @ lifted.model.obs_cov @ des.analog.T
        analytic = cf @ np.linalg.solve(cz, cf) / (
            row @ lifted.model.obs_cov @ row)
        beta, *_ = np.linalg.lstsq(base, f, rcond=None)
        r2 = 1 - (f - base @ beta).var() / f.var()
        beta_q, *_ = np.linalg.lstsq(quad, f, rcond=None)
        r2_quad = 1 - (f - quad @ beta_q).var() / f.var()
        worst_gap = max(worst_gap, abs(r2 - analytic))
        worst_improvement = max(worst_improvement, r2_quad - r2)
    elapsed = time.perf_counter() - start
    ok = worst_gap < 0.02 and worst_improvement < 0.005 and elapsed < 60.0
    _report(5, ok, f"in {elapsed:.1f}s: |R2 - analytic| max {worst_gap:.2e}, "
                   f"quadratic-feature gain max {worst_improvement:.2e}")


def test_criterion_06_quadratic_orderings():
    start = time.perf_counter()
    grid = (8.0, 12.0, 16.0, 20.0, 24.0)
    rows = {}
    for method in ("task_based", "mmse_then_quantize", "digital_only"):
        cfg = ExperimentConfig(scenario="covariance", method=method, grid=grid,
                               trials=20000, seed=606,
                               support_scale_range=(3.0, 6.5))
        rows[method] = harness.sweep(cfg)
    ok_pairs = []
    for baseline in ("mmse_then_quantize", "digital_only"):
        for a, b in zip(rows["task_based"], rows[baseline]):
            combined = np.hypot(a.std_error, b.std_error)
            ok_pairs.append(a.estimate <= b.estimate + 3 * combined)
    elapsed = time.perf_counter() - start
    ok = all(ok_pairs) and elapsed < 180.0
    _report(6, ok, f"in {elapsed:.1f}s: task-based below both baselines at "
                   f"budgets {grid}: {all(ok_pairs)}")


def test_criterion_07_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    worst = 0.0
    for trial in range(20):
        head = "estimation" if trial % 2 == 0 else "classification"
        n, p, k = 6, 3, 2
        x = rng.standard_normal((8, n))
        steep = float(rng.uniform(1.0, 8.0))
        settings = deep.TrainSettings(hidden_analog=(5,), hidden_digital=(4,),
                                      steepness=steep)
        if head == "estimation":
            net = deep.build_network(rng, n, p, k, 4, x, settings)
            targets = rng.standard_normal((8, k))
        else:
            net = deep.build_network(rng, n, p, 4, 4, x, settings,
                                     head="classification")
            targets = rng.integers(0, 4, size=8)
        _, grads = deep.backward(net, x, targets)
        step = 1e-5
        for arr, grad in zip(net.parameters(), grads, strict=True):
            flat, gflat = arr.ravel(), np.asarray(grad).ravel()
            for idx in range(flat.size):
                keep = flat[idx]
                flat[idx] = keep + step
                hi = deep.loss(net, x, targets)
                flat[idx] = keep - step
                lo = deep.loss(net, x, targets)
                flat[idx] = keep
                fd = (hi - lo) / (2 * step)
                worst = max(worst, abs(gflat[idx] - fd)
                            / (abs(gflat[idx]) + abs(fd) + 1e-8))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 10.0
    _report(7, ok, f"20 networks in {elapsed:.1f}s: worst relative "
                   f"gradient error {worst:.2e}")


def test_criterion_08_deep_matches_model_aware():
    start = time.perf_counter()
    sc = scenarios.dft_pilot_scenario()
    settings = harness.TrainSettings(epochs=25, learning_rate=0.01,
                                     batch_size=128, train_size=2 ** 15,
                                     test_size=2 ** 10, support_scale=4.0,
                                     steepness=50.0)
    outcome = {}
    for bits in (120.0, 240.0):
        levels = int(2 ** (bits / 40))
        reference = sc.model.mmse_floor + design(
            sc.model, 40, levels, support_scale=4.0).predicted_excess_mse
        best = np.inf
        for seed in (1, 2, 3):
            result = harness.train_deep_estimator(sc, bits, channels=40,
                                                  settings=settings, seed=seed)
            best = min(best, result["test_mse"])
            if best <= 1.15 * reference:
                break
        outcome[bits] = (best, reference)
    elapsed = time.perf_counter() - start
    ok = all(best <= 1.15 * ref for best, ref in outcome.values())
    ok = ok and elapsed < 600.0
    detail = {b: f"deep {v[0]:.3f} vs 1.15x model {1.15 * v[1]:.3f}"
              for b, v in outcome.items()}
    _report(8, ok, f"in {elapsed:.0f}s: {detail}")


def test_criterion_09_bpsk_classification():
    start = time.perf_counter()
    trials = 20000
    settings = harness.TrainSettings(epochs=120, learning_rate=0.05,
                                     batch_size=64, train_size=5000,
                                     hidden_analog=(24,), hidden_digital=(32,),
                                     support_scale=3.0, steepness=50.0)
    grid = (6.0, 7.0, 8.0, 9.0, 10.0, 11.0)

    def deep_ber(snr_db, csi_fraction, seed):
        sc = scenarios.bpsk_scenario(10 ** (snr_db / 10))
        if csi_fraction > 0:
            sc = scenarios.csi_perturb(sc, csi_fraction, seed=seed + 1000)
        res = harness.train_deep_classifier(sc, 12.0, settings=settings,
                                            seed=seed)
        row = harness.simulate_ber(
            lambda x: deep.classify(res["hardened"], x), sc, trials,
            seed=harness.derive_seed(seed, "eval", int(snr_db * 10)))
        return row

    def crossing(bers, target=1e-2):
        logs = np.log10(np.maximum(bers, 1e-6))
        goal = np.log10(target)
        for i in range(len(grid) - 1):
            if logs[i] >= goal >= logs[i + 1]:
                frac = (logs[i] - goal) / (logs[i] - logs[i + 1])
                return grid[i] + frac * (grid[i + 1] - grid[i])
        return None

    sc10 = scenarios.bpsk_scenario(10.0)
    map_row = harness.simulate_ber(lambda x: scenarios.map_detect(x, sc10),
                                   sc10, trials, seed=909)
    std = np.sqrt(np.diag(sc10.mixing @ sc10.mixing.T) + sc10.noise_var)
    qmap_row = harness.simulate_ber(
        lambda x: scenarios.quantized_map_detect(x, sc10, 2, 4 * std.max()),
        sc10, trials, seed=909)

    passed = None
    for seed in (1, 2, 3):
        deep_row = deep_ber(10.0, 0.0, seed)
        below_baseline = (deep_row.estimate
                          < qmap_row.estimate
                          - 3 * np.hypot(deep_row.std_error, qmap_row.std_error))
        map_below = (map_row.estimate <= deep_row.estimate
                     + 3 * np.hypot(map_row.std_error, deep_row.std_error)
                     and map_row.estimate <= qmap_row.estimate
                     + 3 * np.hypot(map_row.std_error, qmap_row.std_error))
        clean_curve = [deep_ber(s, 0.0, seed).estimate for s in grid]
        pert_curve = [deep_ber(s, 0.2, seed).estimate for s in grid]
        c_clean, c_pert = crossing(clean_curve), crossing(pert_curve)
        gap_ok = (c_clean is not None and c_pert is not None
                  and c_pert - c_clean <= 2.0)
        if below_baseline and map_below and gap_ok:
            passed = (seed, deep_row.estimate, c_pert - c_clean)
            break
    elapsed = time.perf_counter() - start
    ok = passed is not None and elapsed < 900.0
    detail = (f"in {elapsed:.0f}s: map {map_row.estimate:.4f}, 1-bit map "
              f"{qmap_row.estimate:.4f}, "
              + (f"deep {passed[1]:.4f}, csi gap {passed[2]:.2f} dB "
                 f"(seed {passed[0]})" if passed else "no seed passed"))
    _report(9, ok, detail)


def test_criterion_10_hardware_projections():
    start = time.perf_counter()
    rng = np.random.default_rng(1010)
    idempotent = True
    for _ in range(100):
        a = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        once = project_phase_only(a)
        idempotent &= bool(np.allclose(project_phase_only(once), once))
        idempotent &= bool(np.allclose(np.abs(once), 1.0))
        owners = (0, 0, 1, 1, 2, 2, 3, 3)
        masked = apply_partial_mask(a.real, owners)
        again = apply_partial_mask(masked, owners)
        idempotent &= bool(np.array_equal(again, masked))
    dominated = True
    for _ in range(100):
        n = int(rng.integers(4, 12))
        k = int(rng.integers(1, min(n, 4) + 1))
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        cov = (q * rng.uniform(0.3, 3.0, n)) @ q.T
        model = LinearTaskModel(obs_cov=cov,
                                task_matrix=rng.standard_normal((k, n)))
        levels = int(rng.choice([4, 8]))
        base = design(model, k, levels)
        owners = rng.integers(0, k, size=n)
        owners[:k] = np.arange(k)
        for constraint in (PhaseOnly(), PartialConnect(owners)):
            con = constrained_design(model, constraint, k, levels)
            dominated &= bool(con.predicted_excess_mse
                              >= base.predicted_excess_mse - 1e-9)
    elapsed = time.perf_counter() - start
    ok = idempotent and dominated and elapsed < 10.0
    _report(10, ok, f"in {elapsed:.1f}s: idempotence={idempotent}, "
                    f"constrained >= unconstrained on every draw={dominated}")


def test_criterion_11_reproducibility(tmp_path):
    start = time.perf_counter()
    outputs = []
    for name in ("one.csv", "two.csv"):
        cfg = ExperimentConfig(scenario="isi", method="task_based",
                               grid=(8.0, 24.0), trials=2000, seed=1111,
                               channels=8, output=str(tmp_path / name))
        harness.sweep(cfg)
        outputs.append((tmp_path / name).read_bytes())
    elapsed = time.perf_counter() - start
    ok = outputs[0] == outputs[1]
    _report(11, ok, f"in {elapsed:.1f}s: repeated sweep byte-identical={ok}")
