import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskquant.quant import (LearnedQuantizerSpec, UniformQuantizerSpec,
                             dithered_quantize, learned_quantize,
                             noise_variance, overload_safe_support,
                             uniform_quantize)


def test_one_bit_case():
    spec = UniformQuantizerSpec(levels=2, support=1.0)
    assert uniform_quantize(0.3, spec) == 0.5
    assert uniform_quantize(-2.0, spec) == -0.5
    np.testing.assert_allclose(spec.alphabet(), [-0.5, 0.5])


def test_four_level_cell_midpoint():
    spec = UniformQuantizerSpec(levels=4, support=1.0)
    assert spec.spacing == 0.5
    assert uniform_quantize(0.1, spec) == 0.25


def test_rejects_non_finite():
    spec = UniformQuantizerSpec(levels=4, support=1.0)
    with pytest.raises(ValueError):
        uniform_quantize(np.nan, spec)
    with pytest.raises(ValueError):
        uniform_quantize(np.array([0.1, np.inf]), spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        UniformQuantizerSpec(levels=1, support=1.0)
    with pytest.raises(ValueError):
        UniformQuantizerSpec(levels=4, support=-1.0)


def test_alphabet_inside_support():
    for levels in (2, 3, 4, 17):
        spec = UniformQuantizerSpec(levels=levels, support=2.5)
        alpha = spec.alphabet()
        assert alpha.size == levels
        assert np.all(np.abs(alpha) < spec.support)
        assert spec.spacing * levels == pytest.approx(2 * spec.support)


@settings(max_examples=200, deadline=None)
@given(st.floats(-50, 50), st.integers(2, 33), st.floats(0.1, 10))
def test_idempotent_and_in_alphabet(z, levels, support):
    spec = UniformQuantizerSpec(levels=levels, support=support)
    out = uniform_quantize(z, spec)
    assert uniform_quantize(out, spec) == out
    assert np.min(np.abs(spec.alphabet() - out)) < 1e-9 * support


@settings(max_examples=200, deadline=None)
@given(st.floats(-20, 20), st.floats(-20, 20), st.integers(2, 16))
def test_monotone(z1, z2, levels):
    spec = UniformQuantizerSpec(levels=levels, support=3.0)
    lo, hi = min(z1, z2), max(z1, z2)
    assert uniform_quantize(lo, spec) <= uniform_quantize(hi, spec)


def test_overload_saturation():
    spec = UniformQuantizerSpec(levels=8, support=1.0)
    top = spec.support - spec.spacing / 2
    for z in (1.0001, 2.0, 1e6):
        assert uniform_quantize(z, spec) == pytest.approx(top)
        assert uniform_quantize(-z, spec) == pytest.approx(-top)


def test_dither_pinned_to_zero_matches_plain():
    spec = UniformQuantizerSpec(levels=4, support=1.0, dithered=True)

    class ZeroDither:
        def uniform(self, lo, hi, size=None):
            return np.zeros(size) if size else 0.0

    assert dithered_quantize(0.0, spec, ZeroDither()) == 0.25


def _two_step_quantize(z, spec, rng=None):
    # the cell formula applied to z, or to z plus a fresh dither draw
    z = np.asarray(z, dtype=float)
    if rng is not None:
        z = z + rng.uniform(-0.5 * spec.spacing, 0.5 * spec.spacing, size=z.shape)
    cell = np.clip(np.floor((z + spec.support) / spec.spacing), 0, spec.levels - 1)
    return -spec.support + spec.spacing * (cell + 0.5)


_QUANTIZER_INPUTS = {
    "scalar": -0.61,
    "1d": np.random.default_rng(1).normal(0.0, 1.0, 1000),
    "strided_2d": np.random.default_rng(2).normal(0.0, 1.0, (64, 80))[::2, 1::3],
    "saturating": np.array([-1e6, -1.3, -1.3 + 1e-12, 1.3 - 1e-12, 1.3, 2.0, 1e6]),
}


@pytest.mark.parametrize("case", list(_QUANTIZER_INPUTS))
def test_quantizers_match_two_step_formula_bit_for_bit(case):
    z = _QUANTIZER_INPUTS[case]
    before = np.array(z, copy=True)
    spec = UniformQuantizerSpec(levels=13, support=1.3, dithered=True)
    plain = uniform_quantize(z, spec)
    dithered = dithered_quantize(z, spec, np.random.default_rng(9))
    assert np.asarray(plain).tobytes() == _two_step_quantize(z, spec).tobytes()
    assert np.asarray(dithered).tobytes() == _two_step_quantize(
        z, spec, np.random.default_rng(9)).tobytes()
    assert np.asarray(z).tobytes() == before.tobytes()
    if case == "scalar":
        assert type(plain) is float and type(dithered) is float


def test_dithered_quantize_rejects_non_finite():
    spec = UniformQuantizerSpec(levels=4, support=1.0, dithered=True)
    for z in (np.nan, np.array([0.1, -np.inf])):
        with pytest.raises(ValueError):
            dithered_quantize(z, spec, np.random.default_rng(0))


def test_dither_requires_flag():
    spec = UniformQuantizerSpec(levels=4, support=1.0, dithered=False)
    with pytest.raises(ValueError):
        dithered_quantize(0.0, spec, np.random.default_rng(0))


def test_dithered_error_statistics():
    # error mean ~ 0, variance spacing^2/6, decorrelated from the input
    rng = np.random.default_rng(11)
    n = 10 ** 6
    spec = UniformQuantizerSpec(levels=4, support=1.0, dithered=True)
    margin = spec.support - spec.spacing / 2
    z = rng.uniform(-margin, margin, size=n)
    err = dithered_quantize(z, spec, rng) - z
    target_var = spec.spacing ** 2 / 6
    assert abs(err.mean()) < 4 * np.sqrt(target_var / n)
    assert abs(err.var() - target_var) < 0.02 * target_var
    assert abs(np.corrcoef(err, z)[0, 1]) < 0.01


def test_noise_variance_formula():
    assert noise_variance(UniformQuantizerSpec(2, 1.0, True)) == pytest.approx(1 / 6)
    assert noise_variance(UniformQuantizerSpec(4, 2.0, True)) == pytest.approx(1 / 6)
    spec = UniformQuantizerSpec(16, 3.0, True)
    assert noise_variance(spec) == pytest.approx(
        2 * spec.support ** 2 / (3 * spec.levels ** 2))


def test_noise_variance_matches_monte_carlo():
    rng = np.random.default_rng(3)
    spec = UniformQuantizerSpec(levels=8, support=2.0, dithered=True)
    margin = spec.support - spec.spacing / 2
    z = rng.uniform(-margin, margin, size=10 ** 6)
    err = dithered_quantize(z, spec, rng) - z
    assert abs(err.var() - noise_variance(spec)) < 0.02 * noise_variance(spec)


def test_support_sizing_values():
    support, margin = overload_safe_support(2.0, 4, 1)
    assert margin == pytest.approx(48 / 11)
    assert support == pytest.approx(np.sqrt(48 / 11))
    # near the bound but still feasible
    support, margin = overload_safe_support(3.0, 2, 1)
    assert margin == pytest.approx(36.0)
    assert support == pytest.approx(6.0)


def test_support_sizing_limit():
    support, margin = overload_safe_support(1.0, 10 ** 6, 4)
    assert margin == pytest.approx(1.0, rel=1e-9)
    assert support == pytest.approx(0.5, rel=1e-9)


def test_support_sizing_rejects_violated_bound():
    with pytest.raises(ValueError, match="3 \\* levels"):
        overload_safe_support(4.0, 2, 1)


def test_learned_quantizer_examples():
    sign = LearnedQuantizerSpec(thresholds=[0.0], levels=[-1.0, 1.0])
    assert learned_quantize(0.7, sign) == 1.0
    assert learned_quantize(0.0, sign) == 1.0    # tie goes to the upper cell
    three = LearnedQuantizerSpec(thresholds=[-0.5, 0.5], levels=[-1.0, 0.0, 1.0])
    assert learned_quantize(-0.7, three) == -1.0
    np.testing.assert_allclose(learned_quantize(np.array([-0.7, 0.0, 0.7]), three),
                               [-1.0, 0.0, 1.0])


def test_learned_quantizer_validation():
    with pytest.raises(ValueError):
        LearnedQuantizerSpec(thresholds=[0.5, 0.5], levels=[0, 1, 2])
    with pytest.raises(ValueError):
        LearnedQuantizerSpec(thresholds=[0.0], levels=[1.0])
    with pytest.warns(UserWarning):
        spec = LearnedQuantizerSpec(thresholds=[0.0], levels=[1.0, -1.0])
    assert not spec.is_monotone


def test_learned_quantizer_rejects_non_finite():
    spec = LearnedQuantizerSpec(thresholds=[0.0], levels=[-1.0, 1.0])
    with pytest.raises(ValueError):
        learned_quantize(np.inf, spec)
