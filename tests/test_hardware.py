import numpy as np
import pytest

from taskquant import scenarios
from taskquant.hardware import (LorentzianCombiner, ParameterGrid,
                                PartialConnect, PhaseOnly, PropagationModel,
                                apply_partial_mask, constrained_design,
                                nearest_complex_blocks, project_lorentzian,
                                project_phase_only, real_composite)
from taskquant.errors import NumericalError
from taskquant.linear_task import (LinearTaskModel, design, excess_mse,
                                   fixed_combiner_design)
from taskquant.quant import (UniformQuantizerSpec, noise_variance,
                             overload_safe_support)


def random_model(rng, n, k):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    cov = (q * rng.uniform(0.3, 3.0, n)) @ q.T
    return LinearTaskModel(obs_cov=cov, task_matrix=rng.standard_normal((k, n)))


def lorentzian(strength, damping, resonance, omega):
    """F w^2 / (w_R^2 - w^2 - j w chi), written out independently of the package."""
    return (strength * omega * omega
            / complex(resonance * resonance - omega * omega, -omega * damping))


def one_point_grid(strength, damping, resonance):
    return ParameterGrid(np.array([strength]), np.array([damping]),
                         np.array([resonance]))


def test_phase_only_entries():
    a = np.array([[3 + 4j, -2.0, 0.0]])
    out = project_phase_only(a)
    np.testing.assert_allclose(out, [[0.6 + 0.8j, -1.0, 1.0]])
    # real input stays real
    real = project_phase_only(np.array([[2.0, -0.3, 0.0]]))
    assert np.isrealobj(real)
    np.testing.assert_allclose(real, [[1.0, -1.0, 1.0]])


def test_phase_only_idempotent():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    once = project_phase_only(a)
    np.testing.assert_allclose(project_phase_only(once), once)


def test_partial_mask():
    a = np.arange(8.0).reshape(2, 4) + 1.0
    owners = (0, 0, 1, 1)
    masked = apply_partial_mask(a, owners)
    np.testing.assert_allclose(masked, [[1, 2, 0, 0], [0, 0, 7, 8]])
    np.testing.assert_array_equal(a, np.arange(8.0).reshape(2, 4) + 1.0)
    # idempotent: a masked combiner is feasible and projects to itself
    np.testing.assert_array_equal(apply_partial_mask(masked, owners), masked)
    # owners need not be grouped: antennas 0 and 2 feed quantizer 1
    np.testing.assert_allclose(apply_partial_mask(a, (1, 0, 1, 0)),
                               [[0, 2, 0, 4], [5, 0, 7, 0]])


def test_partial_mask_diagonal_case():
    a = np.full((3, 3), 2.0)
    masked = apply_partial_mask(a, (0, 1, 2))
    np.testing.assert_allclose(masked, 2.0 * np.eye(3))


def test_partial_mask_residual_pythagorean():
    # each entry is kept exactly or zeroed, so the kept and removed parts
    # are orthogonal
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 8))
    masked = apply_partial_mask(a, (0, 0, 1, 1, 2, 2, 3, 3))
    assert np.all((masked == a) | (masked == 0))
    assert (np.linalg.norm(a - masked) ** 2 + np.linalg.norm(masked) ** 2
            == pytest.approx(np.linalg.norm(a) ** 2))


def test_partial_mask_rejects_non_partition():
    for owners in [(0, 0, 2, 2),      # quantizer 1, in the middle, owns nothing
                   (0, 1, 1, 0),      # quantizer 2, at the end, owns nothing
                   (0, 1, 2, 3),      # owner 3 is not one of the 3 quantizers
                   (0, -1, 1, 2),     # negative owner
                   (0, 1, 2),         # one owner short
                   (0, 1, 2, 2, 1)]:  # one owner too many
        with pytest.raises(ValueError):
            apply_partial_mask(np.ones((3, 4)), owners)


def test_lorentzian_response_values():
    def response(omega):
        return one_point_grid(2.0, 3.0, 10.0).responses(omega)[0]
    at_res = response(10.0)
    np.testing.assert_allclose(at_res, 1j * 2.0 * 10.0 / 3.0, rtol=1e-12)
    assert abs(at_res) == pytest.approx(2.0 * 10.0 / 3.0)
    low = response(0.01)
    assert low == pytest.approx(2.0 * 0.01 ** 2 / 10.0 ** 2, rel=1e-3)


def test_dma_single_element_is_lorentzian():
    # a one-element strip over a one-point grid has one achievable response
    feasible, params, _ = project_lorentzian(np.ones((1, 1)), [1], 5.0,
                                             one_point_grid(1.5, 2.0, 8.0))
    assert feasible.shape == (1, 1)
    assert feasible[0, 0] == pytest.approx(lorentzian(1.5, 2.0, 8.0, 5.0),
                                           rel=1e-14)
    assert params == {(0, 0): (1.5, 2.0, 8.0)}


def test_dma_lossless_propagation_magnitude():
    omega, positions = 5.0, range(4)
    lossless = PropagationModel(attenuation=0.0, delay=0.3)
    mags = np.abs([lossless.response(pos, omega) for pos in positions])
    np.testing.assert_allclose(mags, 1.0)
    lossy = PropagationModel(attenuation=0.2, delay=0.3)
    mags = np.abs([lossy.response(pos, omega) for pos in positions])
    np.testing.assert_allclose(mags, np.exp(-0.2 * np.arange(4)))
    assert np.all(np.diff(mags) < 0)


def test_dma_block_sparsity():
    rng = np.random.default_rng(2)
    desired = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    grid = ParameterGrid.regular((0.5, 3.0), (0.5, 3.0), (0.5, 3.0), count=4)
    feasible, _, _ = project_lorentzian(desired, [3, 2], 2.0, grid)
    assert feasible.shape == (2, 5)
    assert np.all(feasible[0, 3:] == 0)
    assert np.all(feasible[1, :3] == 0)
    assert np.all(feasible[0, :3] != 0)
    assert np.all(feasible[1, 3:] != 0)


def test_project_lorentzian_exact_point():
    grid = ParameterGrid.regular((0.5, 2.0), (1.0, 3.0), (5.0, 9.0), count=4)
    omega = 4.0
    desired = np.array([[lorentzian(grid.strengths[1], grid.dampings[2],
                                    grid.resonances[3], omega)]])
    feasible, params, residual = project_lorentzian(desired, [1], omega, grid)
    assert residual == pytest.approx(0.0, abs=1e-18)
    np.testing.assert_allclose(feasible, desired)
    assert params[(0, 0)] == (grid.strengths[1], grid.dampings[2],
                              grid.resonances[3])


def test_project_lorentzian_off_strip_zero_is_free():
    grid = ParameterGrid.regular((0.5, 2.0), (1.0, 3.0), (5.0, 9.0), count=3)
    desired = np.zeros((2, 2), dtype=complex)
    desired[0, 0] = 0.1
    desired[1, 1] = 0.1
    _, _, residual = project_lorentzian(desired, [1, 1], 4.0, grid)
    base = residual
    desired[0, 1] = 0.5   # off-strip mass now counts
    _, _, residual = project_lorentzian(desired, [1, 1], 4.0, grid)
    assert residual == pytest.approx(base + 0.25)

    rng = np.random.default_rng(5)
    desired = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
    omega, prop = 4.0, PropagationModel(attenuation=0.1, delay=0.2)
    feasible, params, residual = project_lorentzian(desired, [2, 3, 2], omega,
                                                    grid, prop)
    assert residual == pytest.approx(
        np.linalg.norm(desired - feasible, "fro") ** 2, rel=1e-12)
    on_strip = {(0, 0): 0, (0, 1): 1, (1, 2): 0, (1, 3): 1, (1, 4): 2,
                (2, 5): 0, (2, 6): 1}
    assert set(params) == set(on_strip)
    mask = np.zeros(desired.shape, dtype=bool)
    for (i, col), pos in on_strip.items():
        mask[i, col] = True
        strength, damping, resonance = params[(i, col)]
        assert strength in grid.strengths
        assert damping in grid.dampings
        assert resonance in grid.resonances
        assert (lorentzian(strength, damping, resonance, omega)
                * np.exp(-pos * complex(0.1, omega * 0.2))
                == pytest.approx(feasible[i, col], rel=1e-12))
    assert np.all(feasible[~mask] == 0)


def reference_project_lorentzian(desired, strip_sizes, omega, grid, propagation):
    """The search project_lorentzian ran before it took one argmin per strip:
    one argmin over the whole grid per entry."""
    axes = (grid.strengths, grid.dampings, grid.resonances)
    shape = tuple(values.size for values in axes)
    candid = grid.responses(omega)
    feasible = np.zeros_like(desired)
    params = {}
    col = 0
    for i, size in enumerate(strip_sizes):
        for pos in range(size):
            h = propagation.response(pos, omega)
            best = int(np.argmin(np.abs(candid - desired[i, col] / h)))
            feasible[i, col] = candid[best] * h
            params[(i, col)] = tuple(float(values[j]) for values, j
                                     in zip(axes, np.unravel_index(best, shape)))
            col += 1
    return feasible, params, float(np.sum(np.abs(desired - feasible) ** 2))


@pytest.mark.parametrize("propagation", [
    PropagationModel(), PropagationModel(attenuation=0.2, delay=0.3)])
def test_project_lorentzian_matches_per_entry_search(propagation):
    # the benchmark's metasurface case: the dft_pilot design on 20 strips of 3
    model = scenarios.dft_pilot_scenario().model
    grid = ParameterGrid.regular((0.5, 3.0), (0.5, 3.0), (4.0, 10.0), count=16)
    cases = [(nearest_complex_blocks(design(model, 40, 8, 4.0).analog),
              (3,) * 20, 5.0, grid)]
    rng = np.random.default_rng(9)
    for _ in range(40):     # uneven strips, empty ones included
        sizes = tuple(int(v) for v in rng.integers(0, 6, int(rng.integers(1, 6))))
        shape = (len(sizes), sum(sizes))
        desired = rng.uniform(0.01, 100) * (rng.standard_normal(shape)
                                            + 1j * rng.standard_normal(shape))
        cases.append((desired, sizes, float(rng.uniform(0.5, 12.0)),
                      ParameterGrid.regular((0.5, 3.0), (0.5, 3.0), (4.0, 10.0),
                                            count=int(rng.integers(1, 9)))))
    for desired, sizes, omega, grid in cases:
        ours = project_lorentzian(desired, sizes, omega, grid, propagation)
        expected = reference_project_lorentzian(desired, sizes, omega, grid,
                                                propagation)
        assert ours[0].tobytes() == expected[0].tobytes()
        assert list(ours[1].items()) == list(expected[1].items())
        assert repr(ours[2]) == repr(expected[2])


def test_project_lorentzian_grid_refinement_monotone():
    rng = np.random.default_rng(3)
    desired = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    omega = 4.0
    prop = PropagationModel(attenuation=0.05, delay=0.1)
    residuals = []
    for count in (5, 9, 17):     # each grid contains the previous one
        grid = ParameterGrid.regular((0.5, 2.0), (1.0, 3.0), (5.0, 9.0),
                                     count=count)
        _, _, res = project_lorentzian(desired, [2, 2], omega, grid, prop)
        residuals.append(res)
    assert residuals[0] >= residuals[1] >= residuals[2]


def test_real_composite_roundtrip():
    rng = np.random.default_rng(4)
    c = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    np.testing.assert_allclose(nearest_complex_blocks(real_composite(c)), c)
    with pytest.raises(ValueError):
        nearest_complex_blocks(np.zeros((3, 4)))


def test_constrained_design_costs_more():
    rng = np.random.default_rng(6)
    for trial in range(25):
        n = int(rng.integers(4, 12))
        k = int(rng.integers(1, min(n, 4) + 1))
        model = random_model(rng, n, k)
        levels = int(rng.choice([4, 8]))
        base = design(model, k, levels)
        owners = rng.integers(0, k, size=n)
        owners[:k] = np.arange(k)     # every quantizer owns something
        for constraint in (PhaseOnly(), PartialConnect(owners)):
            con = constrained_design(model, constraint, k, levels)
            assert con.predicted_excess_mse >= base.predicted_excess_mse - 1e-9


def test_constrained_design_reoptimized_digital_helps():
    rng = np.random.default_rng(7)
    model = random_model(rng, 8, 3)
    base = design(model, 3, 8)
    con = constrained_design(model, PhaseOnly(), 3, 8)
    support = con.quantizer.support
    # excess MSE with the unconstrained digital matrix B kept:
    # trace(Gamma Sx Gamma^T) - 2 <B, C^T> + <B G, B>
    a_cov = con.analog @ model.obs_cov
    gram = a_cov @ con.analog.T + noise_variance(
        UniformQuantizerSpec(8, support)) * np.eye(3)
    cross = a_cov @ model.task_matrix.T
    b = base.digital
    frozen = (model.estimate_trace - 2.0 * np.einsum("ij,ji->", b, cross)
              + np.einsum("ij,jk,ik->", b, gram, b))
    reopt = excess_mse(con.analog, model, support, 8)
    assert reopt <= frozen + 1e-12


def test_constrained_design_lorentzian_kind():
    rng = np.random.default_rng(8)
    model = random_model(rng, 8, 2)    # embeds a 4x1-ish complex system
    grid = ParameterGrid.regular((0.5, 3.0), (0.5, 3.0), (4.0, 10.0), count=8)
    constraint = LorentzianCombiner(strip_sizes=(2, 2), omega=5.0, grid=grid)
    base = design(model, 4, 8)
    con = constrained_design(model, constraint, 4, 8)
    assert con.predicted_excess_mse >= base.predicted_excess_mse - 1e-9
    # feasible matrix is a real composite with the strip sparsity
    blocks = nearest_complex_blocks(con.analog)
    assert np.all(blocks[0, 2:] == 0)
    assert np.all(blocks[1, :2] == 0)


def test_fixed_combiner_design_is_one_wiener_solve():
    model = scenarios.isi_scenario().model
    levels, scale = 8, 4.0
    _, margin = overload_safe_support(scale, levels, 1)
    phase = project_phase_only(design(model, 8, levels, scale).analog)
    for analog in (model.task_matrix, np.eye(model.n), phase):
        des = fixed_combiner_design(analog, model, levels, scale)
        var = np.einsum("ij,jk,ik->i", analog, model.obs_cov, analog)
        support = des.quantizer.support
        assert support == np.sqrt(margin * var.max())
        # B = solve(A Sx A^T + s2 I, A Sx Gamma^T)^T, s2 = 2 S^2 / (3 L^2)
        a_cov = analog @ model.obs_cov
        gram = (a_cov @ analog.T
                + 2 * support ** 2 / (3 * levels ** 2) * np.eye(len(analog)))
        np.testing.assert_allclose(
            des.digital, np.linalg.solve(gram, a_cov @ model.task_matrix.T).T,
            rtol=1e-10)
        assert des.predicted_excess_mse == max(
            excess_mse(analog, model, support, levels), 0.0)
    with pytest.raises(NumericalError):
        fixed_combiner_design(np.zeros((8, model.n)), model, levels, scale)


def test_element_validation():
    with pytest.raises(ValueError):
        one_point_grid(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        one_point_grid(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        PropagationModel(attenuation=-0.1)
    for omega in (-2.0, 0.0, float("nan")):
        with pytest.raises(ValueError, match="frequency"):
            LorentzianCombiner(strip_sizes=(1,), omega=omega,
                               grid=one_point_grid(1.0, 1.0, 1.0))
