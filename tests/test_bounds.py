import numpy as np
import pytest

from taskquant.bounds import SpectrumBound, gaussian_mmse, indirect_drf
from taskquant.errors import NumericalError
from taskquant.scenarios import dft_pilot_scenario


def test_gaussian_mmse_identity():
    gamma, mmse, _ = gaussian_mmse(np.eye(3), np.eye(3), 1.0)
    np.testing.assert_allclose(gamma, 0.5 * np.eye(3))
    assert mmse == pytest.approx(1.5)


def test_gaussian_mmse_vanishing_noise():
    rng = np.random.default_rng(0)
    h = rng.standard_normal((6, 3))
    _, mmse, _ = gaussian_mmse(h, np.eye(3), 1e-10)
    assert mmse < 1e-8


def test_gaussian_mmse_rejects_bad_noise():
    with pytest.raises(ValueError):
        gaussian_mmse(np.eye(2), np.eye(2), 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gaussian_mmse_rejects_a_non_finite_gram(bad):
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
        gaussian_mmse(np.array([[bad, 0.0], [0.0, 1.0]]), np.eye(2), 1.0)


def test_gaussian_mmse_guard_decides_as_the_condition_number():
    # the certificate that skips the SVD must not change a decision of
    # np.linalg.cond, nor the condition number a rejection reports
    rng = np.random.default_rng(3)
    outcomes = []
    for _ in range(300):
        n, k = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        h = rng.standard_normal((n, k))
        q = np.linalg.qr(rng.standard_normal((k, k)))[0]
        cov = (q * rng.uniform(0.3, 3.0, k)) @ q.T
        noise = 10.0 ** rng.uniform(-17, 0)
        cond = np.linalg.cond(h @ cov @ h.T + noise * np.eye(n))
        try:
            gaussian_mmse(h, cov, noise)
            outcome = None
        except NumericalError as err:
            outcome = err.condition_number
        assert outcome == (cond if cond > 1e14 else None)
        outcomes.append(outcome)
    assert any(o is None for o in outcomes) and any(o is not None for o in outcomes)


def test_gaussian_mmse_matches_conditional_mean_oracle():
    # pilot scenario: simulate the analytic estimator and compare its loss
    sc = dft_pilot_scenario()
    rng = np.random.default_rng(1)
    s, x = sc.sampler(rng, 10 ** 5)
    err = ((s - x @ sc.model.task_matrix.T) ** 2).sum(axis=1)
    assert err.mean() == pytest.approx(sc.model.mmse_floor, rel=0.02)


def test_drf_scalar():
    assert indirect_drf(SpectrumBound(np.array([1.0]), 0.0, 1.0)) == pytest.approx(
        0.25, rel=1e-12)
    assert indirect_drf(SpectrumBound(np.array([1.0]), 0.3, 2.0)) == pytest.approx(
        0.3 + 2.0 ** -4, rel=1e-12)


def test_drf_zero_rate():
    bound = SpectrumBound(np.array([2.0, 1.0]), 0.5, 0.0)
    assert indirect_drf(bound) == pytest.approx(3.5)


def test_drf_equal_eigenvalues():
    k, c, rate = 4, 2.0, 4.0
    bound = SpectrumBound(np.full(k, c), 0.0, rate)
    assert indirect_drf(bound) == pytest.approx(k * c * 2 ** (-2 * rate / k),
                                                rel=1e-12)


def test_drf_handles_zero_modes():
    bound = SpectrumBound(np.array([1.0, 0.0, 0.0]), 0.0, 1.0)
    assert indirect_drf(bound) == pytest.approx(0.25, rel=1e-12)


@pytest.mark.parametrize("eig, rate, expected", [
    # level 2 leaves the second mode dry: D = 2 + 1
    ([4.0, 1.0], 0.5, 3.0),
    # both modes wet at level 1/2: D = 2 * 1/2
    ([4.0, 1.0], 2.0, 1.0),
    # level 1 wets the top two modes and leaves the rest dry
    ([8.0, 2.0, 0.25, 0.125], 2.0, 1.0 + 1.0 + 0.25 + 0.125),
    # 240 bits wet every mode: D = 3 * 2^((3 + 1 - 1 - 480) / 3)
    ([8.0, 2.0, 0.5], 240.0, 3.0 * 2.0 ** -159),
])
def test_drf_closed_form(eig, rate, expected):
    bound = SpectrumBound(np.array(eig), 0.0, rate)
    assert indirect_drf(bound) == pytest.approx(expected, rel=1e-12)


def test_drf_monotone_and_convex_in_rate():
    rng = np.random.default_rng(2)
    eig = np.sort(rng.uniform(0.1, 4.0, 6))[::-1]
    rates = np.linspace(0.0, 12.0, 49)
    vals = np.array([indirect_drf(SpectrumBound(eig, 0.2, r)) for r in rates])
    diffs = np.diff(vals)
    assert np.all(diffs <= 1e-12)
    assert np.all(np.diff(diffs) >= -1e-9)


def test_spectrum_bound_validation():
    with pytest.raises(ValueError, match="^eigenvalues must be sorted descending$"):
        SpectrumBound(np.array([1.0, 2.0]), 0.0, 1.0)   # ascending
    with pytest.raises(ValueError, match="^eigenvalues must be sorted descending$"):
        SpectrumBound(np.array([3.0, 1.0, 1.0 + 1e-9, 0.5]), 0.0, 1.0)
    with pytest.raises(ValueError, match="^eigenvalues must be nonnegative$"):
        SpectrumBound(np.array([1.0, -0.1]), 0.0, 1.0)
    with pytest.raises(ValueError, match="^mmse_floor must be nonnegative$"):
        SpectrumBound(np.array([1.0]), -0.1, 1.0)
    with pytest.raises(ValueError, match="^rate_bits must be nonnegative$"):
        SpectrumBound(np.array([1.0]), 0.0, -1.0)
    finite = "^eigenvalues, mmse_floor and rate_bits must be finite$"
    for eig in ([np.nan, 1.0], [np.inf, 1.0], [1.0, np.nan], [1.0, -np.inf],
                [-1.0, np.nan]):
        with pytest.raises(ValueError, match=finite):
            SpectrumBound(np.array(eig), 0.0, 4.0)
    for floor, rate in ((np.nan, 1.0), (np.inf, 1.0), (0.0, np.nan),
                        (0.0, np.inf)):
        with pytest.raises(ValueError, match=finite):
            SpectrumBound(np.array([1.0]), floor, rate)
    # ties and rises within the sort tolerance pass, as does an empty spectrum
    SpectrumBound(np.array([2.0, 2.0, 1.0 + 1e-13, 1.0, 0.0]), 0.0, 1.0)
    assert SpectrumBound(np.array([]), 0.5, 1.0).eigenvalues.size == 0
