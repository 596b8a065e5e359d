from dataclasses import replace

import numpy as np
import pytest

from taskquant.linear_task import design, estimate
from taskquant.quadratic_task import (QuadraticTask, _form_values, lift,
                                      lifted_covariance, to_linear_model)


def exp_cov(n):
    idx = np.arange(n)
    return np.exp(-np.abs(idx[:, None] - idx[None, :]))


def test_lift_examples():
    # coordinates x0 x0, x0 x1, x1 x1
    np.testing.assert_allclose(lift(np.zeros(2), np.eye(2)), [-1, 0, -1])
    np.testing.assert_allclose(lift(np.array([1.0, 0.0]), np.eye(2)),
                               [0, 0, -1])


def test_lift_dimension_mismatch():
    with pytest.raises(ValueError):
        lift(np.zeros(3), np.eye(2))


def test_lift_zero_mean_monte_carlo():
    rng = np.random.default_rng(0)
    cov = exp_cov(3)
    x = rng.standard_normal((10 ** 6, 3)) @ np.linalg.cholesky(cov).T
    lifted = lift(x, cov)
    per_entry_std = lifted.std(axis=0, ddof=1) / np.sqrt(x.shape[0])
    assert np.all(np.abs(lifted.mean(axis=0)) < 4 * per_entry_std)


def test_lifted_covariance_scalar():
    np.testing.assert_allclose(lifted_covariance(np.array([[2.0]])), [[8.0]])


def test_lifted_covariance_identity_diag():
    mat = lifted_covariance(np.eye(2))
    np.testing.assert_allclose(np.diag(mat), [2, 1, 2])
    np.testing.assert_allclose(mat, mat.T)


def test_lifted_covariance_matches_monte_carlo():
    rng = np.random.default_rng(1)
    cov = exp_cov(3)
    analytic = lifted_covariance(cov)
    chol = np.linalg.cholesky(cov)
    trials, block = 10 ** 6, 10 ** 5
    first, second = np.zeros_like(analytic), np.zeros_like(analytic)
    # moments of the products l_i l_j, accumulated a block at a time
    for _ in range(trials // block):
        lifted = lift(rng.standard_normal((block, 3)) @ chol.T, cov)
        first += lifted.T @ lifted
        second += (lifted ** 2).T @ lifted ** 2
    emp = first / trials
    # 2% per entry, with a statistical floor for entries near zero
    se = np.sqrt((second - trials * emp ** 2) / (trials - 1) / trials)
    tol = np.maximum(0.02 * np.abs(analytic), 5 * se)
    assert np.all(np.abs(emp - analytic) <= tol)


def test_lifted_covariance_rank():
    n = 4
    mat = lifted_covariance(exp_cov(n))
    assert mat.shape == (n * (n + 1) // 2,) * 2
    # one coordinate per distinct product: full rank
    assert np.linalg.eigvalsh(mat).min() > 0


def test_half_lift_consistent_with_full():
    rng = np.random.default_rng(2)
    cov = exp_cov(3)
    x = rng.standard_normal((100, 3)) @ np.linalg.cholesky(cov).T
    iu, ju = np.triu_indices(3)
    full = np.einsum("bi,bj->bij", x, x)[:, iu, ju] - cov[iu, ju]
    np.testing.assert_allclose(lift(x, cov), full)


def test_to_linear_model_identity_form():
    task = QuadraticTask((np.eye(2),), np.eye(2))
    lifted = to_linear_model(task)
    np.testing.assert_allclose(lifted.offsets, [2.0])
    np.testing.assert_allclose(lifted.model.task_matrix, [[1, 0, 1]])


def test_to_linear_model_coordinate_selector():
    c = np.zeros((2, 2))
    c[0, 0] = 1.0
    task = QuadraticTask((c,), np.eye(2))
    lifted = to_linear_model(task)
    np.testing.assert_allclose(lifted.model.task_matrix, [[1, 0, 0]])
    rng = np.random.default_rng(3)
    x = rng.standard_normal((500, 2))
    np.testing.assert_allclose(
        lifted.model.task_matrix @ lift(x, lifted.input_cov).T + lifted.offsets[:, None],
        (x[:, 0] ** 2)[None, :], atol=1e-12)


def test_task_values_match_lifted_rows():
    # every quadratic form is exactly linear in the centered lift
    rng = np.random.default_rng(4)
    cov = exp_cov(4)
    forms = tuple(0.5 * (m + m.T)
                  for m in rng.standard_normal((3, 4, 4)))
    task = QuadraticTask(forms, cov)
    lifted = to_linear_model(task)
    x = rng.standard_normal((200, 4)) @ np.linalg.cholesky(cov).T
    direct = task.values(x)
    via_lift = lift(x, lifted.input_cov) @ lifted.model.task_matrix.T + lifted.offsets
    np.testing.assert_allclose(via_lift, direct, atol=1e-10)


def test_regression_recovers_recovery_coefficients():
    # OLS of the task on the combined lift reproduces the closed-form
    # linear-recovery coefficients
    rng = np.random.default_rng(5)
    cov = exp_cov(3)
    forms = (np.diag([1.0, 0.5, 0.0]), np.full((3, 3), 0.25))
    task = QuadraticTask(forms, cov)
    lifted = to_linear_model(task)
    a = rng.standard_normal((6, lifted.model.n))
    x = rng.standard_normal((10 ** 5, 3)) @ np.linalg.cholesky(cov).T
    z = lift(x, lifted.input_cov) @ a.T
    values = task.values(x)
    design_mtx = np.column_stack([np.ones(len(z)), z])
    for i, row in enumerate(lifted.model.task_matrix):
        closed = np.linalg.solve(a @ lifted.model.obs_cov @ a.T,
                                 a @ lifted.model.obs_cov @ row)
        beta, *_ = np.linalg.lstsq(design_mtx, values[:, i], rcond=None)
        np.testing.assert_allclose(beta[1:], closed,
                                   atol=0.02 * np.linalg.norm(closed))


def test_estimate_quadratic_fine_limit_and_offsets():
    rng = np.random.default_rng(6)
    cov = exp_cov(3)
    forms = (np.eye(3), np.diag([1.0, -1.0, 0.0]))
    task = QuadraticTask(forms, cov)
    lifted = to_linear_model(task)
    # lifted coordinates have heavy tails, so leave generous headroom
    des = design(lifted.model, lifted.model.k, 2 ** 12, support_scale=12.0)
    des = replace(des, quantizer=replace(des.quantizer, dithered=False))
    x = rng.standard_normal((256, 3)) @ np.linalg.cholesky(cov).T
    out = lifted.estimate(des, x)
    np.testing.assert_allclose(out, task.values(x), atol=0.05)
    # deterministic at x = 0 without dither
    first = lifted.estimate(des, np.zeros((1, 3)))
    second = lifted.estimate(des, np.zeros((1, 3)))
    np.testing.assert_allclose(first, second)


@pytest.mark.parametrize("batch", [(), (7,), (3, 5)])
def test_values_match_per_form_reference(batch):
    # one stacked matrix product against the per-form three-operand einsum
    rng = np.random.default_rng(7)
    forms = tuple(0.5 * (m + m.T) for m in rng.standard_normal((4, 5, 5)))
    task = QuadraticTask(forms, exp_cov(5))
    x = rng.standard_normal(batch + (5,))
    reference = np.stack([np.einsum("...i,ij,...j->...", x, c, x)
                          for c in forms], axis=-1)
    values = task.values(x)
    assert values.shape == batch + (4,)
    np.testing.assert_allclose(values, reference, rtol=1e-12,
                               atol=1e-12 * np.abs(reference).max())


@pytest.mark.parametrize("shape", [(2, 0), (1, 1), (3, 341), (2, 512),
                                   (5, 205), (3, 1000)])
def test_chunked_form_values_match_one_product(shape):
    # 0, 1, 1023, 1024, 1025 and 3000 rows, around the 1024-row chunks
    rng = np.random.default_rng(9)
    forms = tuple(0.5 * (m + m.T) for m in rng.standard_normal((4, 6, 6)))
    for x in (rng.standard_normal(shape + (6,)), rng.standard_normal(6)):
        rows = x.reshape(-1, 6)
        reference = np.array([[row @ c @ row for c in forms]
                              for row in rows]).reshape(-1, 4)
        unchunked = np.einsum("...kj,...j->...k", (x @ np.concatenate(
            forms, axis=1)).reshape(x.shape[:-1] + (4, 6)), x)
        values = _form_values(x, np.concatenate(forms, axis=1))
        assert values.shape == x.shape[:-1] + (4,)
        np.testing.assert_array_equal(values, unchunked)
        np.testing.assert_allclose(values.reshape(-1, 4), reference,
                                   rtol=1e-12,
                                   atol=1e-12 * np.abs(reference).max(initial=1.0))


def test_lifted_estimate_matches_estimate_on_the_lift():
    # the combiner acts through quadratic forms; the quantized outputs match
    # the pipeline run on the lift itself
    rng = np.random.default_rng(8)
    cov = exp_cov(4)
    forms = tuple(0.5 * (m + m.T) for m in rng.standard_normal((3, 4, 4)))
    lifted = to_linear_model(QuadraticTask(forms, cov))
    des = design(lifted.model, lifted.model.k, 2 ** 12, support_scale=12.0)
    des = replace(des, quantizer=replace(des.quantizer, dithered=False))
    x = rng.standard_normal((2000, 4)) @ np.linalg.cholesky(cov).T
    np.testing.assert_array_equal(
        lifted.estimate(des, x),
        estimate(des, lift(x, cov)) + lifted.offsets)


def test_form_validation():
    with pytest.raises(ValueError):
        QuadraticTask((np.array([[0.0, 1.0], [0.0, 0.0]]),), np.eye(2))
    with pytest.raises(ValueError):
        QuadraticTask((np.eye(3),), np.eye(2))
