import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

from taskquant import harness, scenarios
from taskquant.harness import feasible_support_scale, simulate_ber
from taskquant.linear_task import design
from taskquant.quant import UniformQuantizerSpec, _to_cells

# exhaustive-MAP bit error rate at 10 dB, seed-pinned; regression anchor
MAP_BER_10DB_ANCHOR = 0.0009875
# quantized-MAP bit error rate at 10 dB, 4 levels, support 4 std; same seed
QUANTIZED_MAP_BER_10DB_ANCHOR = 0.037725


def reference_map_distances(x, sc):
    """Squared distance of each observation to each class mean, by broadcast."""
    means = sc.symbols @ sc.mixing.T
    return ((x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)


def reference_map_detect(x, sc):
    return np.argmin(reference_map_distances(x, sc), axis=1)


def reference_quantized_map_detect(x, sc, levels, support):
    """Cells by binary search on the interior edges; log-likelihoods summed
    antenna by antenna through strided gathers."""
    sigma = np.sqrt(sc.noise_var)
    spacing = UniformQuantizerSpec(levels, support).spacing
    edges = -support + spacing * np.arange(1, levels)
    cells = np.searchsorted(edges, x, side="right")
    means = sc.symbols @ sc.mixing.T
    hi = np.concatenate([edges, [np.inf]])
    lo = np.concatenate([[-np.inf], edges])
    prob = (ndtr((hi[None, None, :] - means[:, :, None]) / sigma)
            - ndtr((lo[None, None, :] - means[:, :, None]) / sigma))
    logp = np.log(np.maximum(prob, 1e-300))
    loglik = np.zeros((x.shape[0], means.shape[0]))
    for ant in range(x.shape[1]):
        loglik += logp[:, ant, cells[:, ant]].T
    return np.argmax(loglik, axis=1)


def _support(sc, levels):
    # the harness's quantized_map support: 4 std of the strongest antenna
    std = np.sqrt(np.diag(sc.mixing @ sc.mixing.T) + sc.noise_var)
    return feasible_support_scale(4.0, levels) * std.max()


def test_isi_dimensions_and_covariance():
    sc = scenarios.isi_scenario()
    assert (sc.k, sc.n) == (8, 120)
    assert sc.prior_cov[0, 2] == pytest.approx(np.exp(-2))
    assert harness.quantizer_count("task_based", sc, None) == 8
    assert sc.model.mmse_floor == pytest.approx(sc.analytic_mmse)


def test_isi_sampler_moments():
    sc = scenarios.isi_scenario()
    rng = np.random.default_rng(0)
    s, x = sc.sampler(rng, 10 ** 5)
    emp = s.T @ s / s.shape[0]
    np.testing.assert_allclose(emp, sc.prior_cov, atol=0.03)
    emp_x = x.T @ x / x.shape[0]
    scale = np.abs(np.diag(sc.model.obs_cov)).mean()
    assert np.abs(emp_x - sc.model.obs_cov).max() < 0.03 * scale * 3


def test_isi_estimator_orthogonality():
    sc = scenarios.isi_scenario()
    rng = np.random.default_rng(1)
    s, x = sc.sampler(rng, 10 ** 5)
    resid = s - x @ sc.model.task_matrix.T
    corr = np.corrcoef(np.column_stack([resid, x[:, :10]]).T)
    assert np.abs(corr[:8, 8:]).max() < 0.01


def test_covariance_scenario_forms():
    sc = scenarios.covariance_scenario()
    assert (sc.k, sc.n) == (6, 12)
    first = sc.task.forms[0]
    expected = np.kron(np.eye(4), np.diag([0.25, 0.0, 0.0]))
    np.testing.assert_allclose(first, expected)
    np.testing.assert_allclose(sc.lifted.offsets[0], 1.0)
    np.testing.assert_allclose(sc.lifted.offsets,
                               [1.0, np.exp(-1), np.exp(-2), 1.0, np.exp(-1), 1.0])


def test_covariance_sampler_tasks_match_forms():
    sc = scenarios.covariance_scenario()
    rng = np.random.default_rng(2)
    s, x = sc.sampler(rng, 1000)
    np.testing.assert_allclose(s, sc.task.values(x), atol=1e-12)
    assert abs(s[:, 0].mean() - 1.0) < 0.1


def test_dft_pilot_structure():
    sc = scenarios.dft_pilot_scenario()
    assert (sc.k, sc.n) == (40, 120)
    assert sc.noise_var == 0.25
    gram = sc.mixing.T @ sc.mixing
    np.testing.assert_allclose(gram, gram[0, 0] * np.eye(40), atol=1e-9)


def test_bpsk_scenario_shapes_and_map():
    snr = 10 ** (10 / 10)
    sc = scenarios.bpsk_scenario(snr)
    assert (sc.k, sc.n) == (4, 12)
    assert sc.symbols.shape == (16, 4)
    assert sc.noise_var == pytest.approx(1 / snr)
    rng = np.random.default_rng(3)
    s, x = sc.sampler(rng, 2000)
    labels = scenarios.symbols_to_labels(s)
    np.testing.assert_array_equal(sc.symbols[labels], s)
    # noiseless separability
    clean = scenarios.bpsk_scenario(1e12)
    s0, x0 = clean.sampler(np.random.default_rng(4), 2000)
    detected = scenarios.map_detect(x0, clean)
    assert scenarios.bit_errors(detected, scenarios.symbols_to_labels(s0),
                                4).sum() == 0


def test_map_ber_regression_anchor():
    from taskquant.harness import simulate_ber
    sc = scenarios.bpsk_scenario(10.0)
    row = simulate_ber(lambda x: scenarios.map_detect(x, sc), sc, 20000, 2024)
    assert row.estimate == pytest.approx(MAP_BER_10DB_ANCHOR, abs=1e-12)


def test_quantized_map_at_one_bit_uses_signs():
    sc = scenarios.bpsk_scenario(10.0)
    rng = np.random.default_rng(5)
    s, x = sc.sampler(rng, 4000)
    labels_a = scenarios.quantized_map_detect(x, sc, 2, 4.0)
    labels_b = scenarios.quantized_map_detect(np.sign(x) * 7.7, sc, 2, 4.0)
    np.testing.assert_array_equal(labels_a, labels_b)
    truth = scenarios.symbols_to_labels(s)
    errors_quant = scenarios.bit_errors(labels_a, truth, 4).sum()
    errors_full = scenarios.bit_errors(scenarios.map_detect(x, sc), truth, 4).sum()
    assert errors_full < errors_quant


def test_quantized_map_ber_regression_anchor():
    sc = scenarios.bpsk_scenario(10.0)
    support = _support(sc, 4)
    row = simulate_ber(lambda x: scenarios.quantized_map_detect(x, sc, 4, support),
                       sc, 20000, 2024)
    assert row.estimate == pytest.approx(QUANTIZED_MAP_BER_10DB_ANCHOR, abs=1e-12)


@pytest.mark.parametrize("snr_db", [4.0, 8.0, 12.0])
def test_detectors_match_reference_formulas(snr_db):
    sc = scenarios.bpsk_scenario(10 ** (snr_db / 10))
    _, x = sc.sampler(np.random.default_rng(int(snr_db)), 50_000)
    chunks = np.array_split(x, 8)      # keeps the reference tensors small
    for levels in (2, 3, 8):
        support = _support(sc, levels)
        want = np.concatenate([reference_quantized_map_detect(c, sc, levels, support)
                               for c in chunks])
        got = scenarios.quantized_map_detect(x, sc, levels, support)
        np.testing.assert_array_equal(got, want)
    d2 = np.concatenate([reference_map_distances(c, sc) for c in chunks])
    best, second = np.sort(d2, axis=1)[:, :2].T
    clear = second - best > 1e-9 * second
    assert clear.mean() > 0.999
    want = np.concatenate([reference_map_detect(c, sc) for c in chunks])
    np.testing.assert_array_equal(scenarios.map_detect(x, sc)[clear], want[clear])


@pytest.mark.parametrize("detect", [
    pytest.param(lambda x, sc: scenarios.map_detect(x, sc), id="map"),
    pytest.param(lambda x, sc: scenarios.quantized_map_detect(x, sc, 4, 4.0),
                 id="quantized_map")])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_detectors_reject_non_finite_observations(detect, bad):
    sc = scenarios.bpsk_scenario(10.0)
    _, x = sc.sampler(np.random.default_rng(11), 8)
    x[3, 5] = bad
    with pytest.raises(ValueError, match="finite"):
        detect(x, sc)


@pytest.mark.parametrize("levels, depth", [(2, 12), (3, 7), (8, 4), (64, 2)])
def test_quantized_map_scores_equal_the_sequential_antenna_sum(levels, depth):
    # the prefix table holds the first `depth` antennas' sums; every score is
    # still 0 + v_0 + v_1 + ... added antenna by antenna, byte for byte
    sc = scenarios.bpsk_scenario(10.0)
    _, x = sc.sampler(np.random.default_rng(13), 5000)
    table = scenarios.QuantizedMapTable(sc, levels, _support(sc, levels))
    assert table.depth == depth
    cells = _to_cells(x.copy(), table.spec).astype(int)
    want = np.zeros((x.shape[0], sc.symbols.shape[0]))
    for antenna in range(sc.n):
        want = want + table.log_probs[antenna][cells[:, antenna]]
    assert table.scores(x).tobytes() == want.tobytes()


@pytest.mark.parametrize("snr_db", [6.0, 10.0])
def test_two_level_quantized_map_labels_are_the_score_argmax(snr_db):
    # with every antenna in the prefix, one gather from the per-code labels
    # replaces the score block and its argmax
    sc = scenarios.bpsk_scenario(10.0 ** (snr_db / 10.0))
    _, x = sc.sampler(np.random.default_rng(17), 8192)
    table = scenarios.QuantizedMapTable(sc, 2, _support(sc, 2))
    want = np.argmax(table.scores(x), axis=1)
    codes = (_to_cells(x.copy(), table.spec) @ table.powers).astype(np.intp)
    assert table.labels[codes].tobytes() == want.tobytes()
    got = scenarios.quantized_map_detect(x, sc, 2, _support(sc, 2), table)
    assert got.tobytes() == want.tobytes()
    assert scenarios.QuantizedMapTable(sc, 3, _support(sc, 3)).labels is None


def test_quantized_map_table_probabilities_match_ndtr():
    # at 2 levels the lower cell is (-inf, 0), so its probability is Phi(t)
    # for t = -mean / std; one antenna with one class per grid value spans
    # both tails. Equal logs to 1e-14 are equal probabilities to 1e-14
    # relative, past the rounding of the logs themselves.
    t = np.linspace(-12.0, 12.0, 2401)
    sc = scenarios.ScenarioSpec(name="grid", kind="classification", sampler=None,
                                mixing=np.ones((1, 1)), symbols=-t[:, None],
                                noise_var=1.0)
    table = scenarios.QuantizedMapTable(sc, 2, 1.0)
    want = np.log(ndtr(t))
    np.testing.assert_allclose(table.log_probs[0, 0], want, rtol=4e-16, atol=1e-14)
    assert ndtr(t[0]) < 1e-32 and ndtr(t[-1]) == 1.0


def test_quantized_map_detect_memory_stays_sparse():
    # a dense (8192 x 12 * 64) one-hot cell indicator alone would take 50 MB
    sc = scenarios.bpsk_scenario(10.0)
    _, x = sc.sampler(np.random.default_rng(12), 8192)
    scenarios.quantized_map_detect(x[:4], sc, 64, 4.0)   # imports outside the trace
    tracemalloc.start()
    try:
        scenarios.quantized_map_detect(x, sc, 64, 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_random_guessing_ber_near_half():
    sc = scenarios.bpsk_scenario(10.0)
    rng = np.random.default_rng(6)
    s, _ = sc.sampler(rng, 20000)
    truth = scenarios.symbols_to_labels(s)
    guess = np.random.default_rng(7).integers(0, 16, truth.size)
    ber = scenarios.bit_errors(guess, truth, 4).sum() / (4 * truth.size)
    se = np.sqrt(0.25 / (4 * truth.size))
    assert abs(ber - 0.5) < 3 * se


def test_csi_perturb_zero_fraction_keeps_matrix():
    sc = scenarios.bpsk_scenario(10.0)
    pert = scenarios.csi_perturb(sc, 0.0, seed=1)
    rng = np.random.default_rng(8)
    s, x = pert.train_sampler(rng, 5000)
    resid = x - s @ sc.mixing.T
    np.testing.assert_allclose(resid.var(axis=0), sc.noise_var, rtol=0.15)


def test_csi_perturb_variance_matches_rule():
    sc = scenarios.bpsk_scenario(10.0)
    fraction = 0.2
    pert = scenarios.csi_perturb(sc, fraction, seed=1)
    rng = np.random.default_rng(9)
    s, x = pert.train_sampler(rng, 200_000)
    resid = x - s @ sc.mixing.T
    # per-antenna residual variance: noise + sum_j fraction * |H_ij| * E[s_j^2]
    expected = sc.noise_var + fraction * np.abs(sc.mixing).sum(axis=1)
    np.testing.assert_allclose(resid.var(axis=0), expected, rtol=0.05)
    # evaluation-side sampler still uses the true matrix
    s2, x2 = pert.sampler(np.random.default_rng(10), 50_000)
    resid2 = x2 - s2 @ sc.mixing.T
    np.testing.assert_allclose(resid2.var(axis=0), sc.noise_var, rtol=0.1)


def test_csi_perturb_validation():
    sc = scenarios.covariance_scenario()
    with pytest.raises(ValueError):
        scenarios.csi_perturb(sc, 0.2, seed=0)
    with pytest.raises(ValueError):
        scenarios.bpsk_scenario(-1.0)


def _joint_cases():
    isi, dft = scenarios.isi_scenario(), scenarios.dft_pilot_scenario()
    return {"isi": (isi, design(isi.model, 8, 16).analog),
            "dft_pilot": (dft, design(dft.model, 40, 8).analog),
            # 1 bit per ADC: water-filling leaves zero-gain modes
            "isi_rank_deficient": (isi, design(isi.model, 8, 2, 3.0).analog)}


@pytest.mark.parametrize("case", ["isi", "dft_pilot", "isi_rank_deficient"])
def test_joint_sampler_matches_analytic_covariance(case):
    sc, a = _joint_cases()[case]
    cov_y = a @ sc.model.obs_cov @ a.T
    if case == "isi_rank_deficient":
        assert np.linalg.matrix_rank(cov_y) < a.shape[0]
    count = 60_000
    law = sc.conditional_law(a)
    g, y = sc.sampler(np.random.default_rng(21), count, law=law)
    mean, residual = g @ law[1], law[2]
    assert mean.shape == (count, sc.k) and y.shape == (count, a.shape[0])
    cross = a @ sc.mixing @ sc.prior_cov                   # Cov(y, s)
    gain = cross.T @ np.linalg.pinv(cov_y, rcond=1e-10, hermitian=True)
    trace_s = np.trace(sc.prior_cov)
    assert abs(residual + np.trace(gain @ cross) - trace_s) <= 1e-10 * trace_s
    expected = np.block([[gain @ cross, cross.T], [cross, cov_y]])
    z = np.hstack([mean, y])
    empirical = z.T @ z / count
    var = np.diag(expected)
    se = np.sqrt((np.outer(var, var) + expected ** 2) / count)
    assert np.all(np.abs(empirical - expected) <= 5 * se + 1e-12)


def test_joint_sampler_overload_rate_matches_full_sampler():
    sc = scenarios.isi_scenario()
    count = 50_000
    for levels, scale in ((2, 1.5), (4, 2.0), (16, 4.0)):
        des = design(sc.model, 8, levels, support_scale=scale)
        support = des.quantizer.support
        _, x = sc.sampler(np.random.default_rng(31), count)
        full = np.mean(np.abs(x @ des.analog.T) > support)
        law = sc.conditional_law(des.analog)
        _, y = sc.sampler(np.random.default_rng(32), count, law=law)
        joint = np.mean(np.abs(y) > support)
        rate = 0.5 * (full + joint)
        se = np.sqrt(2 * rate * (1 - rate) / (count * des.channels))
        assert abs(joint - full) <= 4 * se + 1e-12


def _reference_tasks(sc, rng, count):
    # the task draws as each scenario first wrote them
    if sc.symbols is not None:
        return sc.symbols[rng.integers(0, sc.symbols.shape[0], size=count)]
    return rng.standard_normal((count, sc.k)) @ np.linalg.cholesky(sc.prior_cov).T


@pytest.mark.parametrize("make", [
    scenarios.isi_scenario, scenarios.dft_pilot_scenario,
    pytest.param(lambda: scenarios.bpsk_scenario(10.0), id="bpsk_scenario")])
def test_sampler_without_combiner_is_unchanged(make):
    # the full draw as it was before the joint draw existed, byte for byte
    sc = make()
    s, x = sc.sampler(np.random.default_rng(41), 3000)
    ref = np.random.default_rng(41)
    s_ref = _reference_tasks(sc, ref, 3000)
    x_ref = (s_ref @ sc.mixing.T
             + np.sqrt(sc.noise_var) * ref.standard_normal((3000, sc.n)))
    assert s.tobytes() == s_ref.tobytes()
    assert x.tobytes() == x_ref.tobytes()


@pytest.mark.parametrize("make", [
    scenarios.isi_scenario,
    pytest.param(lambda: scenarios.bpsk_scenario(10.0), id="bpsk_scenario")])
def test_csi_train_sampler_draw_order_is_pinned(make):
    # salted stream first, then the tasks, then one normal per antenna
    sc = make()
    fraction, seed, count = 0.2, 13, 2000
    s, x = scenarios.csi_perturb(sc, fraction, seed).train_sampler(
        np.random.default_rng(42), count)
    ref = np.random.default_rng(42)
    pert = np.random.default_rng([seed, int(ref.integers(2 ** 63))])
    s_ref = _reference_tasks(sc, ref, count)
    std = np.sqrt(sc.noise_var + fraction * (s_ref * s_ref) @ np.abs(sc.mixing).T)
    x_ref = s_ref @ sc.mixing.T + std * pert.standard_normal((count, sc.n))
    assert s.tobytes() == s_ref.tobytes()
    assert x.tobytes() == x_ref.tobytes()


@pytest.mark.parametrize("count", [1, 1025, 2049, 8192, 8193, 20001, 2 ** 15])
@pytest.mark.parametrize("make, fraction", [
    pytest.param(scenarios.isi_scenario, None, id="isi"),
    pytest.param(scenarios.dft_pilot_scenario, None, id="dft_pilot"),
    pytest.param(scenarios.dft_pilot_scenario, 0.2, id="csi_dft_pilot"),
    pytest.param(lambda: scenarios.bpsk_scenario(10.0), 0.2, id="csi_bpsk")])
def test_train_samplers_equal_one_draw_bytes(make, fraction, count):
    # sectioned noise against the whole-array formula, across section edges
    sc = make()
    if fraction is not None:
        sc = scenarios.csi_perturb(sc, fraction, 13)
    s, x = sc.train_sampler(np.random.default_rng(44), count)
    ref = np.random.default_rng(44)
    if fraction is None:
        pert = ref
        s_ref = _reference_tasks(sc, ref, count)
        std = np.sqrt(sc.noise_var)
    else:
        pert = np.random.default_rng([13, int(ref.integers(2 ** 63))])
        s_ref = _reference_tasks(sc, ref, count)
        std = np.sqrt(sc.noise_var
                      + fraction * (s_ref * s_ref) @ np.abs(sc.mixing).T)
    x_ref = s_ref @ sc.mixing.T + std * pert.standard_normal((count, sc.n))
    assert s.tobytes() == s_ref.tobytes()
    assert x.tobytes() == x_ref.tobytes()


@pytest.mark.parametrize("fraction, bound_mb", [(None, 45), (0.2, 46)])
def test_train_draw_peak_memory_stays_below_three_full_arrays(fraction, bound_mb):
    # tasks (10 MiB) and observations (30 MiB) plus one 1024-row section of
    # normals (and of stds with csi); the whole-array draw held three
    # (count, n) arrays at once, about 100 MB
    sc = scenarios.dft_pilot_scenario()
    if fraction is not None:
        sc = scenarios.csi_perturb(sc, fraction, 13)
    sc.train_sampler(np.random.default_rng(45), 2)   # imports outside the trace
    tracemalloc.start()
    try:
        sc.train_sampler(np.random.default_rng(45), 2 ** 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2 ** 20
