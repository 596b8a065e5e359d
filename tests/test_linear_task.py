from dataclasses import replace

import numpy as np
import pytest

from taskquant import linear_task, scenarios
from taskquant.errors import NumericalError
from taskquant.hardware import PhaseOnly, constrained_design
from taskquant.harness import levels_for
from taskquant.linear_task import (LinearTaskModel, _fix_svd_signs, design,
                                   equalizing_rotation, estimate, excess_mse,
                                   predicted_excess, waterfill)
from taskquant.quant import (UniformQuantizerSpec, noise_variance,
                             overload_safe_support)


def random_model(rng, n=None, k=None, eig_range=(0.3, 3.0)):
    n = n or int(rng.integers(3, 31))
    k = k or int(rng.integers(1, min(n, 8) + 1))
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    cov = (q * rng.uniform(*eig_range, n)) @ q.T
    gamma = rng.standard_normal((k, n))
    return LinearTaskModel(obs_cov=cov, task_matrix=gamma)


def test_model_validation():
    with pytest.raises(ValueError):
        LinearTaskModel(obs_cov=np.array([[1.0, 0.5], [0.0, 1.0]]),
                        task_matrix=np.eye(2))
    with pytest.raises(ValueError):
        LinearTaskModel(obs_cov=-np.eye(2), task_matrix=np.eye(2))
    with pytest.raises(ValueError):
        LinearTaskModel(obs_cov=np.eye(2), task_matrix=np.eye(3))


def test_optimal_digital_zero_combiner():
    model = random_model(np.random.default_rng(0), n=6, k=2)
    b = linear_task._wiener_solve(np.zeros((3, 6)), model, support=1.0,
                                  levels=4)[1].T
    np.testing.assert_allclose(b, 0.0)


def test_optimal_digital_noiseless_limit_recovers_task():
    model = random_model(np.random.default_rng(1), n=5, k=2)
    analog = np.linalg.qr(np.random.default_rng(2).standard_normal((5, 5)))[0]
    b = linear_task._wiener_solve(analog, model, support=1.0,
                                  levels=2 ** 20)[1].T
    np.testing.assert_allclose(b @ analog, model.task_matrix, atol=1e-8)


def test_optimal_digital_scalar_wiener():
    model = LinearTaskModel(obs_cov=np.eye(1), task_matrix=np.eye(1))
    support, levels = 1.0, 4
    sigma2 = 2 * support ** 2 / (3 * levels ** 2)
    b = linear_task._wiener_solve(np.eye(1), model, support, levels)[1].T
    assert b[0, 0] == pytest.approx(1 / (1 + sigma2))


def test_excess_mse_extremes():
    rng = np.random.default_rng(3)
    model = random_model(rng, n=6, k=3)
    total = np.trace(model.estimate_covariance())
    assert excess_mse(np.zeros((2, 6)), model, 1.0, 4) == pytest.approx(total)
    # noiseless quantization of a sufficient statistic
    assert excess_mse(model.task_matrix, model, 1.0, 2 ** 20) == pytest.approx(
        0.0, abs=1e-7)


def test_excess_mse_between_zero_and_total():
    rng = np.random.default_rng(4)
    for _ in range(20):
        model = random_model(rng)
        p = int(rng.integers(1, model.k + 2))
        analog = rng.standard_normal((p, model.n))
        val = excess_mse(analog, model, 2.0, 8)
        assert -1e-9 <= val <= np.trace(model.estimate_covariance()) + 1e-9


def test_waterfill_single_mode():
    margin, levels = 4.0, 8
    gains, waterline = waterfill(np.array([1.0]), margin, levels, 1)
    assert waterline == pytest.approx(1 + 3 * levels ** 2 / (2 * margin))
    assert gains[0] == pytest.approx(1.0)


def test_waterfill_zero_modes_get_zero():
    gains, _ = waterfill(np.array([1.0, 0.0]), 3.0, 2, 2)
    np.testing.assert_allclose(gains, [1.0, 0.0], atol=1e-12)


def test_waterfill_matches_bisection_oracle():
    # independent root finder on the normalization equation
    rng = np.random.default_rng(5)
    for _ in range(25):
        count = int(rng.integers(1, 9))
        vals = np.sort(rng.uniform(0, 3, count))[::-1]
        if vals[0] == 0:
            continue
        channels = int(rng.integers(1, count + 2))
        margin = float(rng.uniform(1, 30))
        levels = int(rng.choice([2, 4, 8, 16]))
        gains, waterline = waterfill(vals, margin, levels, channels)
        coef = 2 * margin / (3 * levels ** 2 * channels)
        active = vals[:channels]

        def filled(z):
            return coef * np.maximum(z * active - 1, 0).sum()

        lo, hi = 0.0, 1e12
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if filled(mid) < 1.0:
                lo = mid
            else:
                hi = mid
        assert waterline == pytest.approx(0.5 * (lo + hi), abs=1e-10 * hi + 1e-10)
        assert filled(waterline) == pytest.approx(1.0, rel=1e-10)
        assert np.all(gains >= 0)


def test_waterfill_degenerate_task():
    with pytest.raises(ValueError, match="degenerate"):
        waterfill(np.zeros(3), 4.0, 4, 2)


def reference_waterfill(singvals, margin, levels, channels):
    """The numpy water-fill that `waterfill` replaced with Python floats."""
    s = np.asarray(singvals, dtype=float)
    if s.size and (s[1:] - s[:-1] > 1e-12 * max(s.max(), 1.0)).any():
        raise ValueError("singular values must be sorted descending")
    s = np.maximum(s, 0.0)
    padded = np.zeros(channels)
    padded[:min(channels, s.size)] = s[:channels]
    positive = padded[padded > 0]
    if positive.size == 0:
        raise ValueError("degenerate task: all singular values are zero")
    coef = 2.0 * margin / (3.0 * levels ** 2 * channels)
    target = 1.0 / coef
    csum, positive = np.cumsum(positive).tolist(), positive.tolist()
    for m in range(1, len(positive) + 1):
        waterline = (target + m) / csum[m - 1]
        if m == len(positive) or waterline * positive[m] <= 1.0 + 1e-12:
            break
    gains = np.sqrt(coef * np.maximum(waterline * padded - 1.0, 0.0))
    return gains, float(waterline)


def waterfill_outcome(fill, *args):
    try:
        gains, waterline = fill(*args)
    except ValueError as err:
        return str(err)
    return gains.tobytes(), repr(waterline)


def test_waterfill_matches_reference_bytes():
    rng = np.random.default_rng(26)
    for trial in range(600):
        count = int(rng.integers(1, 41))
        vals = np.sort(rng.uniform(0, 3, count))[::-1]
        if trial % 5 == 1:      # zeros, the task's rank below the channel count
            vals[rng.random(count) < 0.4] = 0.0
            vals = np.sort(vals)[::-1]
        if trial % 5 == 2:      # ties
            vals = np.sort(rng.choice(vals[: max(count // 3, 1)], count))[::-1]
        if trial % 5 == 3 and count > 1:    # a rise just below or above the
            i = int(rng.integers(1, count))  # sort tolerance, or far above
            vals[i] = vals[i - 1] + rng.choice([0.5, 1.5, 1e6]) * 1e-12 * max(
                vals.max(), 1.0)
        if trial % 5 == 4:      # all zero: degenerate
            vals[:] = 0.0
        channels = int(rng.integers(1, count + 4))
        args = (vals, float(rng.uniform(1, 30)),
                int(rng.choice([2, 4, 8, 16, 2 ** 20])), channels)
        assert (waterfill_outcome(waterfill, *args)
                == waterfill_outcome(reference_waterfill, *args))


def test_rotation_identity_when_equal():
    np.testing.assert_allclose(equalizing_rotation(np.full(4, 2.5)), np.eye(4))


def test_rotation_two_by_two():
    u = equalizing_rotation(np.array([2.0, 0.0]))
    rotated = u @ np.diag([2.0, 0.0]) @ u.T
    np.testing.assert_allclose(np.diag(rotated), [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(u @ u.T, np.eye(2), atol=1e-12)


def test_rotation_property_random_draws():
    rng = np.random.default_rng(6)
    for _ in range(100):
        p = int(rng.integers(1, 9))
        d = rng.uniform(0, 5, p)
        u = equalizing_rotation(d)
        rotated = np.diag(u @ np.diag(d) @ u.T)
        assert np.max(np.abs(u @ u.T - np.eye(p))) < 1e-10
        assert rotated.max() - rotated.min() <= 1e-9 * max(d.sum(), 1e-12)


def reference_rotation(d):
    # the loop equalizing_rotation ran before it kept its active set as a
    # mask: a Python list of active indices and vstack/hstack row copies
    p = d.size
    u = np.eye(p)
    if p == 1:
        return u
    s = np.diag(np.clip(d, 0.0, None)).astype(float)
    t = np.trace(s) / p
    scale = max(abs(t), np.abs(d).max(), 1.0)
    active = list(range(p))
    for _ in range(p - 1):
        vals = np.array([s[i, i] for i in active])
        if vals.max() - vals.min() < 1e-9 * scale:
            break
        i = active[int(np.argmax(vals))]
        j = active[int(np.argmin(vals))]
        qa, qb, qc = s[j, j] - t, 2.0 * s[i, j], s[i, i] - t
        if abs(qa) < 1e-300:
            tan = -qc / qb
        else:
            disc = np.sqrt(max(qb * qb - 4.0 * qa * qc, 0.0))
            r1 = (-qb + disc) / (2.0 * qa)
            r2 = (-qb - disc) / (2.0 * qa)
            tan = r1 if abs(r1) <= abs(r2) else r2
        c = 1.0 / np.sqrt(1.0 + tan * tan)
        w = tan * c
        gi = np.array([[c, w], [-w, c]])
        rows = np.vstack([s[i, :], s[j, :]])
        s[[i, j], :] = gi @ rows
        cols = np.hstack([s[:, [i]], s[:, [j]]])
        s[:, [i, j]] = cols @ gi.T
        u[[i, j], :] = gi @ np.vstack([u[i, :], u[j, :]])
        active.remove(i)
    return u


def rotation_byte_cases():
    rng = np.random.default_rng(16)
    for trial in range(400):
        p = int(rng.integers(1, 60))
        d = rng.uniform(0, 5, p)
        if trial % 3 == 1:      # zeros
            d[rng.random(p) < 0.3] = 0.0
        if trial % 3 == 2:      # repeated entries
            d = rng.choice(d[: max(p // 3, 1)], p)
        yield d
    for p in range(1, 65):
        yield rng.uniform(0, 5, p)
        yield np.full(p, 2.5)                   # equal: breaks before any rotation
        single = np.zeros(p)
        single[rng.integers(p)] = 3.0           # one nonzero entry
        yield single


def test_rotation_matches_reference_bytes():
    for d in rotation_byte_cases():
        expected = reference_rotation(d).tobytes()
        assert equalizing_rotation(d).tobytes() == expected


def test_rotation_rejects_off_diagonal():
    # the rotation takes the vector of diagonal values, never a matrix
    for matrix in (np.array([[1.0, 0.5], [0.5, 2.0]]), np.diag([1.0, 2.0])):
        with pytest.raises(ValueError, match="must be a vector"):
            equalizing_rotation(matrix)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_rotation_rejects_non_finite_or_negative(bad):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        equalizing_rotation(np.array([1.0, bad, 2.0]))


def test_design_self_consistency_and_equalization():
    rng = np.random.default_rng(7)
    for _ in range(30):
        model = random_model(rng)
        levels = int(rng.choice([2, 4, 8, 16]))
        scale = min(4.0, 0.95 * np.sqrt(3) * levels)
        p = int(rng.integers(1, model.k + 3))
        des = design(model, p, levels, support_scale=scale)
        direct = excess_mse(des.analog, model, des.quantizer.support, levels)
        assert des.predicted_excess_mse == pytest.approx(direct, rel=1e-8)
        var = np.einsum("ij,jk,ik->i", des.analog, model.obs_cov, des.analog)
        assert var.max() - var.min() <= 1e-8 * var.max()


def test_design_white_estimate_shares_task_row_space():
    # when the task-estimate covariance is a scaled identity, combining the
    # task map itself is optimal: row spaces must agree
    rng = np.random.default_rng(8)
    n, k = 8, 3
    gamma = np.linalg.qr(rng.standard_normal((n, k)))[0].T
    model = LinearTaskModel(obs_cov=np.eye(n), task_matrix=gamma)
    des = design(model, k, 8)
    proj_task = gamma.T @ np.linalg.pinv(gamma.T)
    proj_analog = des.analog.T @ np.linalg.pinv(des.analog.T)
    np.testing.assert_allclose(proj_task, proj_analog, atol=1e-9)


def test_design_rank_one_predicted_closed_form():
    rng = np.random.default_rng(9)
    n = 6
    g = rng.standard_normal((1, n))
    model = LinearTaskModel(obs_cov=np.eye(n), task_matrix=g)
    des = design(model, 1, 8)
    lam = des.singular_values[0]
    assert des.predicted_excess_mse == pytest.approx(lam / des.waterline, rel=1e-10)


def test_design_unserved_tail():
    rng = np.random.default_rng(10)
    model = random_model(rng, n=10, k=5)
    p = 2
    des = design(model, p, 4)
    tail = (des.singular_values[p:model.k] ** 2).sum()
    assert des.predicted_excess_mse > tail
    fine = design(model, p, 2 ** 15)
    assert fine.predicted_excess_mse == pytest.approx(tail, rel=1e-3)


def test_design_monotone_in_levels():
    model = random_model(np.random.default_rng(11), n=12, k=4)
    values = [design(model, 4, lv, support_scale=3.0).predicted_excess_mse
              for lv in (2, 4, 8, 16, 32, 64)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_design_dominates_quantizing_the_estimate():
    # 200 random models: joint design beats combining the task estimate
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(4, 16))
        model = random_model(rng, n=n, k=int(rng.integers(1, min(n, 5) + 1)))
        levels = int(rng.choice([4, 8, 16]))
        des = design(model, model.k, levels)
        _, margin = overload_safe_support(4.0, levels, model.k)
        var = np.einsum("ij,jk,ik->i", model.task_matrix, model.obs_cov,
                        model.task_matrix)
        support = np.sqrt(margin * var.max())
        baseline = excess_mse(model.task_matrix, model, support, levels)
        assert des.predicted_excess_mse <= baseline + 1e-9


def test_overload_is_rare_at_four_sigma():
    rng = np.random.default_rng(13)
    model = random_model(rng, n=10, k=4)
    des = design(model, 4, 16, support_scale=4.0)
    chol = np.linalg.cholesky(model.obs_cov)
    x = rng.standard_normal((200_000, model.n)) @ chol.T
    z = x @ des.analog.T
    rate = (np.abs(z) > des.quantizer.support).mean()
    assert rate < 1e-3


def reference_fix_signs(vt):
    """The per-row loop `_fix_svd_signs` replaced."""
    for i in range(vt.shape[0]):
        row = vt[i]
        nz = np.flatnonzero(np.abs(row) > 1e-12 * max(np.abs(row).max(), 1e-300))
        if nz.size and row[nz[0]] < 0:
            vt[i] = -row
    return vt


def test_fix_svd_signs_matches_reference_loop():
    rng = np.random.default_rng(21)
    for trial in range(200):
        rows, cols = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        vt = rng.standard_normal((rows, cols))
        lead = rng.integers(0, cols + 1, rows)
        vt[np.arange(cols) < lead[:, None]] = 0.0      # leading exact zeros
        row = rng.integers(rows)
        if trial % 5 == 0:
            vt[row] = 0.0                               # an all-zero row
        if trial % 5 == 1:
            vt[row] = -1e-320                           # below the zero floor
        if trial % 5 == 2:
            vt[:, 0] *= 1e-14                           # below the row's tolerance
        if trial % 5 == 3:
            vt[row] *= 1e-14                            # one quiet row
        expected = reference_fix_signs(vt.copy())
        assert _fix_svd_signs(vt.copy()).tobytes() == expected.tobytes()


def test_predicted_excess_prices_a_design_without_building_it():
    # support -> water-fill -> predicted_excess, with no rotation, basis or
    # Wiener step, gives design's bytes at every p a budget of 8-64 bits buys
    rng = np.random.default_rng(28)
    lifted = scenarios.covariance_scenario().lifted.model
    cases = [(scenarios.isi_scenario().model, 16),
             (scenarios.dft_pilot_scenario().model, 64), (lifted, lifted.n)]
    for _ in range(20):     # drawn as in acceptance criterion 2
        model = random_model(rng)
        cases.append((model, model.k + 2))
    for model, widest in cases:
        sing = model.factors[2]
        for bits in (8, 16, 24, 32, 48, 64):
            for p in range(1, min(bits, widest) + 1):
                levels = levels_for(bits, p)
                scale = min(4.0, 0.95 * np.sqrt(3) * levels)
                _, margin = overload_safe_support(scale, levels, p)
                _, waterline = waterfill(sing, margin, levels, p)
                price = predicted_excess(sing, model.k, p, waterline)
                built = design(model, p, levels, scale).predicted_excess_mse
                assert repr(price) == repr(built)


def test_design_reuses_the_model_factors():
    rng = np.random.default_rng(22)
    model = random_model(rng, n=12, k=4)
    first, second = design(model, 6, 8, 3.0), design(model, 6, 8, 3.0)
    fresh = design(LinearTaskModel(obs_cov=model.obs_cov.copy(),
                                   task_matrix=model.task_matrix.copy()), 6, 8, 3.0)
    for other in (second, fresh):
        assert other.analog.tobytes() == first.analog.tobytes()
        assert other.digital.tobytes() == first.digital.tobytes()
        assert other.predicted_excess_mse == first.predicted_excess_mse


def test_model_factors_are_read_only():
    model = random_model(np.random.default_rng(23), n=7, k=3)
    inv_root, whitened, sing, vt = model.factors
    assert vt.shape == (3, 7) and sing.shape == (3,)
    for array in model.factors:
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_constrained_after_design_factors_once(monkeypatch):
    calls = []
    original = LinearTaskModel.sqrt_pair

    def counted(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(LinearTaskModel, "sqrt_pair", counted)
    model = random_model(np.random.default_rng(24), n=10, k=3)
    design(model, 3, 8, 3.0)
    constrained_design(model, PhaseOnly(), 3, 8, 3.0)
    assert len(calls) == 1


def design_outputs(model, channels, levels, scale):
    out = []
    for des in (design(model, channels, levels, scale),
                constrained_design(model, PhaseOnly(), channels, levels, scale)):
        out += [des.analog.tobytes(), des.digital.tobytes(),
                repr(des.quantizer.support), repr(des.predicted_excess_mse)]
    return out


def test_design_bytes_match_reference_rotation(monkeypatch):
    rng = np.random.default_rng(202)
    cases = [(scenarios.isi_scenario().model, 8, 16, 4.0),
             (scenarios.dft_pilot_scenario().model, 40, 8, 4.0)]
    lifted = scenarios.covariance_scenario().lifted.model
    cases.append((lifted, lifted.k, 4, 3.0))
    for _ in range(50):     # drawn as in acceptance criterion 2
        model = random_model(rng)
        levels = int(rng.choice([2, 4, 8, 16]))
        cases.append((model, int(rng.integers(1, model.k + 3)), levels,
                      min(4.0, 0.95 * np.sqrt(3) * levels)))
    ours = [design_outputs(*case) for case in cases]
    monkeypatch.setattr(linear_task, "equalizing_rotation", reference_rotation)
    assert [design_outputs(*case) for case in cases] == ours


def test_estimate_trace_is_computed_once(monkeypatch):
    calls = []
    original = LinearTaskModel.estimate_covariance

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(LinearTaskModel, "estimate_covariance", counted)
    model = random_model(np.random.default_rng(25), n=8, k=3)
    des = design(model, 3, 8, 3.0)
    excess_mse(des.analog, model, des.quantizer.support, 8)
    constrained_design(model, PhaseOnly(), 3, 8, 3.0)
    assert len(calls) == 1
    assert model.estimate_trace == np.trace(original(model))


def test_estimate_deterministic_pipeline():
    model = random_model(np.random.default_rng(15), n=6, k=2)
    des = design(model, 2, 4)
    des = replace(des, quantizer=replace(des.quantizer, dithered=False))
    out = estimate(des, np.zeros(6))
    mid = des.quantizer.alphabet()[des.quantizer.levels // 2]
    np.testing.assert_allclose(out, des.digital @ np.full(2, mid))


def test_estimate_fine_quantization_limit():
    rng = np.random.default_rng(16)
    model = random_model(rng, n=6, k=2)
    des = design(model, 2, 2 ** 14)
    des = replace(des, quantizer=replace(des.quantizer, dithered=False))
    # stay well inside the support so only the fine-cell error remains
    chol = np.linalg.cholesky(model.obs_cov)
    x = 0.3 * rng.standard_normal((64, 6)) @ chol.T
    out = estimate(des, x)
    # worst case: half a cell per channel, propagated through the recovery
    bound = np.abs(des.digital).sum(axis=1).max() * des.quantizer.spacing / 2
    np.testing.assert_allclose(out, x @ (des.digital @ des.analog).T,
                               atol=1.01 * bound)


def test_estimate_dimension_mismatch():
    model = random_model(np.random.default_rng(17), n=6, k=2)
    des = design(model, 2, 4)
    des = replace(des, quantizer=replace(des.quantizer, dithered=False))
    with pytest.raises(ValueError):
        estimate(des, np.zeros(5))


def test_ill_conditioned_gram_reports_condition():
    with pytest.raises(ValueError):
        LinearTaskModel(obs_cov=np.diag([1.0, 0.0]), task_matrix=np.eye(2))
    model = LinearTaskModel(obs_cov=np.diag([1.0, 1e-16]), task_matrix=np.eye(2))
    with pytest.raises(NumericalError) as err:
        linear_task._wiener_solve(np.eye(2), model, support=1e-12,
                                  levels=2 ** 30)
    assert err.value.condition_number is not None


@pytest.mark.parametrize("factor", [1.01, 0.99])
def test_wiener_solve_guard_at_the_condition_limit(factor):
    # A = I on diag(1, 1e-300) gives the Gram diag(1 + s2, s2) with s2 the
    # 2-level ADC noise variance S^2 / 6, so its condition number is 1 + 1/s2
    model = LinearTaskModel(obs_cov=np.diag([1.0, 1e-300]), task_matrix=np.eye(2))
    support = np.sqrt(6.0 / (factor * linear_task._COND_LIMIT - 1.0))
    if factor > 1:
        with pytest.raises(NumericalError) as err:
            linear_task._wiener_solve(np.eye(2), model, support, 2)
        assert err.value.condition_number == pytest.approx(
            factor * linear_task._COND_LIMIT)
        return
    sigma2 = noise_variance(UniformQuantizerSpec(2, support))
    gram = model.obs_cov + sigma2 * np.eye(2)
    cross, solved = linear_task._wiener_solve(np.eye(2), model, support, 2)
    np.testing.assert_allclose(gram @ solved, cross, rtol=1e-12, atol=1e-14)


def test_wiener_solve_rejects_a_non_finite_gram():
    model = LinearTaskModel(obs_cov=np.eye(2), task_matrix=np.eye(2))
    with np.errstate(over="ignore"), pytest.raises(NumericalError):
        # (1e200)^2 overflows: the Gram's first entry is inf
        linear_task._wiener_solve(np.diag([1e200, 1.0]), model, 1.0, 4)


def test_wiener_solve_rejects_a_nan_gram():
    # LAPACK's SVD does not converge on a NaN, so the guard checks first
    model = LinearTaskModel(obs_cov=np.eye(2), task_matrix=np.eye(2))
    with pytest.raises(NumericalError):
        linear_task._wiener_solve(np.array([[np.nan, 0.0], [0.0, 1.0]]), model,
                                  1.0, 4)


def cond_guard(gram):
    """The guard `_wiener_solve` ran before it certified well-conditioned
    Grams: np.linalg.cond on every one. The raised condition number, or None."""
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > linear_task._COND_LIMIT:
        return cond
    return None


def guard_outcome(analog, model, support, levels):
    """(raised condition number or None, the Gram `_wiener_solve` guards)."""
    a_cov = analog @ model.obs_cov
    gram = a_cov @ analog.T + noise_variance(
        UniformQuantizerSpec(levels, support)) * np.eye(analog.shape[0])
    try:
        linear_task._wiener_solve(analog, model, support, levels)
    except NumericalError as err:
        return err.condition_number, gram
    return None, gram


def test_wiener_guard_decides_as_the_condition_number():
    rng = np.random.default_rng(27)
    raised = 0
    for _ in range(300):    # criterion-2 models, random combiners and supports
        model = random_model(rng)
        analog = rng.standard_normal((int(rng.integers(1, model.k + 3)), model.n))
        if rng.random() < 0.3:      # more rows than the model has dimensions
            analog = rng.standard_normal((model.n + 2, model.n))
        levels = int(rng.choice([2, 4, 8, 16]))
        outcome, gram = guard_outcome(analog, model, 10.0 ** rng.uniform(-9, 1),
                                      levels)
        assert outcome == cond_guard(gram)
        raised += outcome is not None
    assert raised > 0
    # A = I on diag(1, 1e-300): the Gram's condition number is 1 + 6 / S^2 at
    # 2 levels, swept across the certificate's reach and the limit
    model = LinearTaskModel(obs_cov=np.diag([1.0, 1e-300]), task_matrix=np.eye(2))
    outcomes = []
    for target in np.logspace(10, 16, 241):
        outcome, gram = guard_outcome(np.eye(2), model,
                                      np.sqrt(6.0 / (target - 1.0)), 2)
        assert outcome == cond_guard(gram)
        outcomes.append(outcome)
    assert outcomes[0] is None and outcomes[-1] is not None


def test_designs_run_no_svd_guard(monkeypatch):
    rng = np.random.default_rng(29)
    lifted = scenarios.covariance_scenario().lifted.model
    cases = [(scenarios.isi_scenario().model, 8, 16, 4.0),
             (scenarios.dft_pilot_scenario().model, 40, 8, 4.0),
             (lifted, lifted.k, 4, 3.0)]
    for _ in range(50):     # drawn as in acceptance criterion 2
        model = random_model(rng)
        levels = int(rng.choice([2, 4, 8, 16]))
        cases.append((model, int(rng.integers(1, model.k + 3)), levels,
                      min(4.0, 0.95 * np.sqrt(3) * levels)))
    calls = []
    original = np.linalg.cond

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", counted)
    for model, channels, levels, scale in cases:
        des = design(model, channels, levels, scale)
        excess_mse(des.analog, model, des.quantizer.support, levels)
        constrained_design(model, PhaseOnly(), channels, levels, scale)
    assert calls == []
