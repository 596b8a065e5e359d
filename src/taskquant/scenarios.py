"""Statistical models behind the desk-scale experiments.

Each scenario bundles the analytic model a designer needs with a seeded
sampler producing (task, observation) pairs, plus the closed-form estimator
and error floor when one exists. Classification scenarios also carry the
exhaustive detectors used as references.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional

import numpy as np

from .bounds import gaussian_mmse
from .linear_task import LinearTaskModel
from .quadratic_task import LiftedTaskModel, QuadraticTask, to_linear_model
from .quant import UniformQuantizerSpec, _check_finite, _row_sections, _to_cells

# Rows of one trial block: the harness's Monte Carlo block, and the largest
# draw a sampler makes in one section.
_BLOCK = 8192

__all__ = [
    "ScenarioSpec",
    "isi_scenario",
    "covariance_scenario",
    "dft_pilot_scenario",
    "bpsk_scenario",
    "csi_perturb",
    "symbols_to_labels",
    "bit_errors",
]


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    """A named experiment model with its sampler and analytic references."""

    name: str
    kind: str                       # "linear" | "quadratic" | "classification"
    sampler: Callable               # (rng, count) -> (tasks, observations);
                                    # also law= and noise=, see _mixing_sampler
    model: Optional[LinearTaskModel] = None
    train_sampler: Optional[Callable] = None
    analytic_mmse: Optional[float] = None
    task: Optional[QuadraticTask] = None
    lifted: Optional[LiftedTaskModel] = None
    mixing: Optional[np.ndarray] = None
    noise_var: Optional[float] = None
    prior_cov: Optional[np.ndarray] = None  # covariance of the task source
    symbols: Optional[np.ndarray] = None    # class index -> symbol vector
    draw_tasks: Optional[Callable] = None   # (rng, count) -> tasks s of x = H s + w

    def __post_init__(self):
        if self.train_sampler is None:
            object.__setattr__(self, "train_sampler", self.sampler)

    @property
    def n(self) -> int:
        return self.task.n if self.task is not None else self.mixing.shape[0]

    @property
    def k(self) -> int:
        return self.task.k if self.task is not None else self.mixing.shape[1]

    def conditional_law(self, combiner):
        """(R, M, r) of y = A x for a real combiner A on a Gaussian task prior.

        With g ~ N(0, I_p), y = g R and E[s | y] = g M, and
        r = E||s - E[s | y]||^2, so a trial's expected squared error is
        E||g M - s_hat(y)||^2 + r for any estimate s_hat(y) of the task.
        Σ_yy = Q diag(w) Q^T gives R = Q sqrt(w) Q^T and
        M = (Σ_sy Q_r w_r^(-1/2) Q_r^T)^T. A combiner with zero-gain rows
        makes Σ_yy singular, so eigenvalues are clipped at zero for R and
        only those above 1e-12 of the largest enter M.
        """
        if self.prior_cov is None or np.iscomplexobj(combiner):
            raise ValueError("the conditional law needs a Gaussian task prior "
                             "and a real combiner")
        a = np.asarray(combiner, dtype=float)
        cov_s = self.prior_cov
        cross = a @ self.mixing @ cov_s                          # Σ_ys
        cov_y = cross @ self.mixing.T @ a.T + self.noise_var * a @ a.T
        w, q = np.linalg.eigh(0.5 * (cov_y + cov_y.T))
        w = np.clip(w, 0.0, None)
        kept = w > 1e-12 * w.max()
        gain = cross.T @ (q[:, kept] / np.sqrt(w[kept]))         # Σ_sy Q_r w_r^(-1/2)
        return ((q * np.sqrt(w)) @ q.T, q[:, kept] @ gain.T,
                float(np.trace(cov_s) - np.sum(gain * gain)))


def _draw_sections(*arrays):
    """Matching row sections of `arrays`, in which a sampler draws: the
    arrays whole for a draw of at most one block, as every trial block's is,
    and `_row_sections` equal sections above, so a large training set holds
    one small section of normals at a time. Draws split across calls equal
    one call, and BLAS rounds a row alike in any section of two or more rows,
    so a sectioned draw is the one-call draw byte for byte."""
    count = arrays[0].shape[0]
    if count <= _BLOCK:
        return [arrays]
    sections = _row_sections(count)
    return zip(*(np.array_split(a, sections) for a in arrays))


def _observe(mixing, s, noise_std, rng) -> np.ndarray:
    """x = s H^T + std * w, with w standard normal from rng and std the
    noise_std(rows) of each `_draw_sections` section of task rows: a number,
    or one per entry. The normals are scaled in place where the draw is
    writeable (a trial block's replayed draws are not)."""
    x = s @ mixing.T
    for rows, part in _draw_sections(s, x):
        noise = rng.standard_normal(part.shape)
        part += np.multiply(noise, noise_std(rows),
                            out=noise if noise.flags.writeable else None)
    return x


def _mixing_sampler(draw_tasks, mixing, noise_var):
    """Sampler of (tasks, x = H s + w) with w of variance noise_var.

    Given a law (R, M, r) from `ScenarioSpec.conditional_law`, it draws only
    y = A x instead: it returns (g, y = g R) for p standard normals g per
    trial, from which E[s | y] = g M. With noise=False it returns the
    noiseless (tasks, s H^T) and draws no noise.
    """
    noise_std = np.sqrt(noise_var)

    def sample(rng: np.random.Generator, count: int, law=None, noise=True):
        if law is not None:
            g = rng.standard_normal((count, law[0].shape[0]))
            return g, g @ law[0]
        s = draw_tasks(rng, count)
        if not noise:
            return s, s @ mixing.T
        return s, _observe(mixing, s, lambda rows: noise_std, rng)

    return sample


def _linear_gaussian(name: str, mixing, cov_s, noise_var: float) -> ScenarioSpec:
    """Estimate s ~ N(0, cov_s) from x = H s + w, w ~ N(0, noise_var I)."""
    gamma, mmse, obs_cov = gaussian_mmse(mixing, cov_s, noise_var)
    model = LinearTaskModel(obs_cov=obs_cov, task_matrix=gamma, mmse_floor=mmse)
    chol = np.linalg.cholesky(cov_s)

    def draw_tasks(rng, count):
        s = np.empty((count, chol.shape[0]))
        for (part,) in _draw_sections(s):
            np.matmul(rng.standard_normal(part.shape), chol.T, out=part)
        return s

    return ScenarioSpec(name=name, kind="linear", model=model,
                        sampler=_mixing_sampler(draw_tasks, mixing, noise_var),
                        analytic_mmse=mmse, mixing=mixing, noise_var=noise_var,
                        prior_cov=cov_s, draw_tasks=draw_tasks)


def isi_scenario() -> ScenarioSpec:
    """Multipath channel-tap estimation from 120 noisy training observations.

    Eight taps with covariance exp(-|i-j|) are observed through a cosine
    training sequence in unit-variance white noise; the task estimate is
    linear in the observation.
    """
    k, n = 8, 120
    idx = np.arange(1, k + 1)
    cov_s = np.exp(-np.abs(idx[:, None] - idx[None, :]))
    taps = np.arange(1, n + 1)[:, None] - np.arange(1, k + 1)[None, :] + 1
    mixing = np.where(taps > 0, np.cos(2 * np.pi * taps / n), 0.0)
    return _linear_gaussian("isi", mixing, cov_s, 1.0)


def covariance_scenario() -> ScenarioSpec:
    """Empirical covariance of four i.i.d. 3-dim Gaussian vectors.

    The observation stacks the four vectors (n = 12); the six tasks are the
    upper-triangular entries of the 3x3 sample covariance, quadratic forms in
    the observation.
    """
    blocks, nb = 4, 3
    n = blocks * nb
    idx = np.arange(nb)
    cov_v = np.exp(-np.abs(idx[:, None] - idx[None, :]))
    cov_x = np.kron(np.eye(blocks), cov_v)
    iu, ju = np.triu_indices(nb)
    forms = []
    for a, b in zip(iu, ju):
        c = np.zeros((n, n))
        for m in range(blocks):
            c[m * nb + a, m * nb + b] += 1.0 / 8.0
            c[m * nb + b, m * nb + a] += 1.0 / 8.0
        forms.append(c)
    task = QuadraticTask(tuple(forms), cov_x)
    lifted = to_linear_model(task)
    chol = np.linalg.cholesky(cov_x)

    def sample(rng: np.random.Generator, count: int):
        x = rng.standard_normal((count, n)) @ chol.T
        return task.values(x), x

    return ScenarioSpec(name="covariance", kind="quadratic", sampler=sample,
                        model=lifted.model, task=task, lifted=lifted)


def dft_pilot_scenario() -> ScenarioSpec:
    """Channel estimation with orthogonal pilots from a truncated DFT matrix.

    The 120 x 40 real mixing matrix is the real composite of (first four DFT
    columns of order twelve) Kronecker an identity; its columns are orthogonal
    so the pilot structure is ideal, with noise variance 0.25.
    """
    order, picked, reps = 12, 4, 5
    grid = np.arange(order)
    dft = np.exp(-2j * np.pi * np.outer(grid, grid) / order)
    phi = dft[:, :picked]
    complex_mix = np.kron(phi, np.eye(reps))
    mixing = np.block([[complex_mix.real, complex_mix.imag],
                       [-complex_mix.imag, complex_mix.real]])
    return _linear_gaussian("dft_pilot", mixing, np.eye(mixing.shape[1]), 0.25)


def _symbol_table(k: int) -> np.ndarray:
    return np.array(list(product((-1.0, 1.0), repeat=k)))


def symbols_to_labels(symbols) -> np.ndarray:
    """Class index of each +-1 symbol vector (bit b_j = (s_j + 1) / 2, MSB first)."""
    s = np.atleast_2d(np.asarray(symbols))
    return ((s + 1) / 2).astype(int) @ 2 ** np.arange(s.shape[1] - 1, -1, -1)


def bit_errors(predicted_labels, true_labels, k: int) -> np.ndarray:
    """Per-trial count of the k label bits that differ."""
    diff = np.bitwise_xor(np.asarray(predicted_labels, dtype=int),
                          np.asarray(true_labels, dtype=int))
    return sum(((diff >> b) & 1) for b in range(k))


def bpsk_scenario(snr: float) -> ScenarioSpec:
    """Symbol detection of four binary symbols through a 12 x 4 channel.

    snr is linear (noise variance 1/snr); channel entries decay as
    exp(-|i-j|). The scenario's detectors enumerate all sixteen hypotheses.
    """
    if not np.isfinite(snr) or snr <= 0:
        raise ValueError(f"snr must be positive and finite, got {snr}")
    n, k = 12, 4
    mixing = np.exp(-np.abs(np.arange(1, n + 1)[:, None]
                            - np.arange(1, k + 1)[None, :])).astype(float)
    noise_var = 1.0 / snr
    table = _symbol_table(k)

    def draw_tasks(rng, count):
        return table[rng.integers(0, table.shape[0], size=count)]

    return ScenarioSpec(name="bpsk", kind="classification",
                        sampler=_mixing_sampler(draw_tasks, mixing, noise_var),
                        mixing=mixing, noise_var=noise_var, symbols=table,
                        draw_tasks=draw_tasks)


def map_weights(scenario: ScenarioSpec):
    """(2 M^T, energies ||m_u||^2) of the class means m_u = H s_u, the rows of
    M: the scenario's half of `map_detect`, built once for many batches."""
    means = scenario.symbols @ scenario.mixing.T          # classes x n
    return 2.0 * means.T, np.einsum("un,un->u", means, means)


def map_detect(observations, scenario: ScenarioSpec, weights=None) -> np.ndarray:
    """Exhaustive max-likelihood labels from unquantized observations.

    Hypothesis u with class mean m_u = H s_u scores x . 2 m_u - ||m_u||^2
    (-||x - m_u||^2 up to the shared ||x||^2): one (count x n) @ (n x classes)
    product. `weights` is `map_weights(scenario)`, built here when not given.
    Non-finite observations raise ValueError."""
    x = np.atleast_2d(_check_finite(observations))
    doubled, energies = map_weights(scenario) if weights is None else weights
    scores = x @ doubled
    scores -= energies
    return np.argmax(scores, axis=1)


class QuantizedMapTable:
    """The (scenario, levels, support) constants of `quantized_map_detect`,
    built once for many batches: the ADC spec, each antenna's (L x classes)
    log cell probabilities, and the prefix table: for each cell code c_0
    L^(d-1) + ... + c_(d-1) of the first d = `depth` antennas (most with
    L^d <= 4096), the sum of their rows, added in antenna order. When the
    prefix covers every antenna (2 levels on bpsk), `labels` holds each
    code's most likely class; otherwise it is None."""

    def __init__(self, scenario: ScenarioSpec, levels: int, support: float):
        self.spec = UniformQuantizerSpec(levels, support)
        edges = -support + self.spec.spacing * np.arange(1, levels)  # interior
        bounds = np.concatenate([[-np.inf], edges, [np.inf]])[None, :, None]
        means = (scenario.symbols @ scenario.mixing.T).T[:, None, :]  # n x 1 x classes
        t = (bounds - means) / np.sqrt(scenario.noise_var)
        # Phi(t) = erfc(-t / sqrt 2) / 2, from the argument ndtr forms in cephes
        cdf = 0.5 * np.frompyfunc(math.erfc, 1, 1)(t * -math.sqrt(0.5)).astype(float)
        self.log_probs = np.log(np.maximum(cdf[:, 1:] - cdf[:, :-1], 1e-300))
        self.depth = max(d for d in range(scenario.n + 1) if levels ** d <= 4096)
        self.prefix = np.zeros((1, self.log_probs.shape[2]))
        for rows in self.log_probs[:self.depth]:
            self.prefix = (self.prefix[:, None] + rows).reshape(-1, rows.shape[1])
        self.powers = float(levels) ** np.arange(self.depth - 1, -1, -1)
        self.labels = (np.argmax(self.prefix, axis=1)
                       if self.depth == scenario.n else None)

    def _cells(self, x):
        """Each trial's prefix code, and the (antennas past the prefix x
        count) cells of the rest."""
        cells = _to_cells(np.array(x, dtype=float), self.spec)
        codes = (cells[:, :self.depth] @ self.powers).astype(np.intp)
        return codes, cells[:, self.depth:].T.astype(np.intp, order="C")

    def scores(self, x) -> np.ndarray:
        """(count x classes) log-likelihoods of the hypotheses: each trial's
        prefix row, then one gather-add per later antenna, so a score is
        0 + v_0 + v_1 + ... summed antenna by antenna."""
        codes, later = self._cells(x)
        scores = np.take(self.prefix, codes, axis=0)
        for rows, cell in zip(self.log_probs[self.depth:], later):
            scores += np.take(rows, cell, axis=0)
        return scores


def quantized_map_detect(observations, scenario: ScenarioSpec, levels: int,
                         support: float, table=None) -> np.ndarray:
    """Exhaustive max-likelihood labels from per-antenna uniform quantizer cells:
    the true task-ignorant detector for a digital-only receiver.

    Cells follow the ADC's own rule. Hypothesis u scores the sum over antennas
    of log P(cell | m_u), from exact Gaussian cell probabilities (outer cells
    absorb the saturated tails): one gather from the prefix table of the first
    antennas, then one gather-add per remaining antenna
    (`QuantizedMapTable.scores`). When the prefix covers every antenna, the
    label is one gather from the table's `labels`. `table` is
    `QuantizedMapTable(scenario, levels, support)`, built here when not
    given. Non-finite observations raise ValueError."""
    if table is None:
        table = QuantizedMapTable(scenario, levels, support)
    x = np.atleast_2d(_check_finite(observations))
    if table.labels is not None:
        return table.labels[table._cells(x)[0]]
    return np.argmax(table.scores(x), axis=1)


def csi_perturb(scenario: ScenarioSpec, fraction: float, seed: int) -> ScenarioSpec:
    """Scenario whose training data comes through a perturbed mixing matrix.

    Training samples are drawn from the joint distribution in which every
    entry of the mixing matrix carries independent Gaussian noise of variance
    fraction * |entry|, redrawn per sample; evaluation keeps the true matrix.
    Given the task s, row i of the perturbed product is Gaussian with variance
    fraction * sum_j |H_ij| s_j^2, independent across rows, so each sample
    needs one normal per antenna, not a perturbed matrix. seed salts the
    perturbation stream so different uncertainty realizations stay
    reproducible.
    """
    if scenario.draw_tasks is None:
        raise ValueError("csi_perturb applies to sampled-mixing scenarios")
    if fraction < 0:
        raise ValueError("fraction must be nonnegative")
    mixing, draw_tasks = scenario.mixing, scenario.draw_tasks
    magnitude = np.abs(mixing)
    noise_var = scenario.noise_var

    def train(rng: np.random.Generator, count: int):
        pert = np.random.default_rng([seed, int(rng.integers(2 ** 63))])
        s = draw_tasks(rng, count)
        return s, _observe(mixing, s, lambda rows: np.sqrt(
            noise_var + fraction * (rows * rows) @ magnitude.T), pert)

    return dataclasses.replace(scenario, name=f"{scenario.name}+csi",
                               train_sampler=train)
