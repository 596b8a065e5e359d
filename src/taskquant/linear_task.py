"""Model-aware design of combine / quantize / recover pipelines for linear tasks.

Given the observation covariance and the linear MMSE task map, the designer
water-fills combiner gain over the task spectrum, rotates the combined
channels to equal variance so a shared scalar ADC suits every channel, sizes
the support for rare overload, and recovers the task with the Wiener-optimal
digital matrix. The predicted excess MSE has a closed form that the generic
trace formula must reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError
from .quant import (UniformQuantizerSpec, dithered_quantize, noise_variance,
                    overload_safe_support, uniform_quantize)

__all__ = [
    "LinearTaskModel",
    "QuantizerDesign",
    "excess_mse",
    "fixed_combiner_design",
    "waterfill",
    "predicted_excess",
    "equalizing_rotation",
    "design",
    "estimate",
]

_SYM_TOL = 1e-10
_COND_LIMIT = 1e14


def _frozen(a) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class LinearTaskModel:
    """Statistical model for a linear estimation task.

    obs_cov is the covariance of the observed vector and task_matrix the
    linear map producing the MMSE estimate of the task from the observation.
    mmse_floor is the estimation error that remains with unquantized
    observations; total error = mmse_floor + excess of the pipeline.
    """

    obs_cov: np.ndarray
    task_matrix: np.ndarray
    mmse_floor: float = 0.0

    def __post_init__(self):
        cov = np.asarray(self.obs_cov, dtype=float)
        gamma = np.atleast_2d(np.asarray(self.task_matrix, dtype=float))
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError(f"obs_cov must be square, got shape {cov.shape}")
        scale = np.abs(cov).max()
        if scale == 0 or np.abs(cov - cov.T).max() > _SYM_TOL * scale:
            raise ValueError("obs_cov must be symmetric")
        if np.linalg.eigvalsh(cov).min() <= 0:
            raise ValueError("obs_cov must be positive definite")
        if gamma.shape[1] != cov.shape[0]:
            raise ValueError(
                f"task_matrix has {gamma.shape[1]} columns, expected {cov.shape[0]}")
        if gamma.shape[0] > gamma.shape[1]:
            raise ValueError("task dimension must not exceed observation dimension")
        if self.mmse_floor < 0:
            raise ValueError("mmse_floor must be nonnegative")
        object.__setattr__(self, "obs_cov", _frozen(0.5 * (cov + cov.T)))
        object.__setattr__(self, "task_matrix", _frozen(gamma))

    @property
    def n(self) -> int:
        return self.obs_cov.shape[0]

    @property
    def k(self) -> int:
        return self.task_matrix.shape[0]

    def estimate_covariance(self) -> np.ndarray:
        """Covariance of the task estimate produced from unquantized input."""
        g = self.task_matrix
        return g @ self.obs_cov @ g.T

    @cached_property
    def estimate_trace(self) -> float:
        """trace(estimate_covariance()), computed once per model."""
        return float(np.trace(self.estimate_covariance()))

    def sqrt_pair(self):
        """Symmetric square root and inverse square root of obs_cov.

        Eigenvalues below 1e-12 times the largest are floored so the inverse
        root stays bounded.
        """
        w, q = np.linalg.eigh(self.obs_cov)
        w = np.maximum(w, 1e-12 * w.max())
        root = (q * np.sqrt(w)) @ q.T
        inv_root = (q / np.sqrt(w)) @ q.T
        return root, inv_root

    @cached_property
    def factors(self):
        """(inv_root, whitened task map Gamma root, its singular values, their
        sign-fixed right-singular rows): the (p, L)-free part of `design`,
        computed once per model and read-only."""
        root, inv_root = self.sqrt_pair()
        whitened = self.task_matrix @ root
        # the reduced SVD rounds vt differently, so designs would lose their bits
        _, sing, vt = np.linalg.svd(whitened, full_matrices=True)
        vt = _fix_svd_signs(vt[:sing.size])
        return tuple(map(_frozen, (inv_root, whitened, sing, vt)))


@dataclass(frozen=True, eq=False)
class QuantizerDesign:
    """A complete pipeline: analog combiner, shared scalar ADC, digital recovery."""

    analog: np.ndarray
    quantizer: UniformQuantizerSpec
    digital: np.ndarray
    predicted_excess_mse: float
    singular_values: np.ndarray
    waterline: float

    def __post_init__(self):
        object.__setattr__(self, "analog", _frozen(self.analog))
        object.__setattr__(self, "digital", _frozen(self.digital))
        object.__setattr__(self, "singular_values", _frozen(self.singular_values))
        if self.predicted_excess_mse < 0:
            raise ValueError("predicted_excess_mse must be nonnegative")

    @property
    def channels(self) -> int:
        return self.analog.shape[0]


def _regularized_gram(left, cov, noise: float, message: str):
    """(L C, G = L C L^T + noise I) for a covariance C; NumericalError(message)
    unless G is finite with condition number at most _COND_LIMIT.

    In exact arithmetic G's singular values are >= noise. Rounding in two
    products over n terms and the diagonal sum lowers them by at most
    delta = gamma_{2n+1} (|L|_F^2 |C|_F + noise), gamma_m = m u / (1 - m u)
    (Weyl's inequality; Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 3.5). So |G|_F / (noise - delta) 100 times below the
    limit, a margin for the rounding of the norms and of an SVD, settles the
    check without np.linalg.cond.
    """
    left_cov = left @ cov
    gram = left_cov @ left.T + noise * np.eye(left.shape[0])
    fro = math.sqrt(np.vdot(gram, gram))
    if not math.isfinite(fro) and not np.isfinite(gram).all():
        # LAPACK's SVD does not converge on a NaN; fro is NaN or inf here
        raise NumericalError(message, condition_number=fro)
    mu = (2 * cov.shape[0] + 1) * 2.0 ** -53
    delta = mu / (1.0 - mu) * (np.vdot(left, left) * math.sqrt(np.vdot(cov, cov))
                               + noise)
    if not (delta < 0.5 * noise and fro <= (noise - delta) * (_COND_LIMIT / 100)):
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise NumericalError(message, condition_number=cond)
    return left_cov, gram


def _wiener_solve(analog, model: LinearTaskModel, support: float, levels: int):
    """Cross-covariance C = A Sx Gamma^T and the Wiener solve G^-1 C, G the
    Gram matrix of the combined observation plus the ADC's white noise.

    The digital matrix is (G^-1 C)^T and the excess MSE is
    trace(Gamma Sx Gamma^T) - <C, G^-1 C>, so one solve serves both.
    """
    a = np.atleast_2d(np.asarray(analog, dtype=float))
    sigma2 = noise_variance(UniformQuantizerSpec(levels, support))
    a_cov, gram = _regularized_gram(a, model.obs_cov, sigma2,
                                    "regularized Gram matrix is ill-conditioned")
    cross = a_cov @ model.task_matrix.T
    try:
        return cross, np.linalg.solve(gram, cross)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Wiener solve failed: {exc}",
                             condition_number=np.linalg.cond(gram)) from exc


def _excess(model: LinearTaskModel, cross, solved) -> float:
    return float(model.estimate_trace - np.einsum("ij,ij->", cross, solved))


def excess_mse(analog, model: LinearTaskModel, support: float,
               levels: int) -> float:
    """Excess MSE of the pipeline with the optimal digital matrix."""
    return _excess(model, *_wiener_solve(analog, model, support, levels))


def fixed_combiner_design(analog, model: LinearTaskModel, levels: int,
                          support_scale: float) -> QuantizerDesign:
    """Shared ADC and Wiener digital matrix for a given combiner.

    The support covers support_scale standard deviations of the loudest
    combined channel, with the same dither margin as the joint design; the
    digital matrix and the predicted excess MSE come from one Wiener solve.
    """
    _, margin = overload_safe_support(support_scale, levels, 1)
    peak = np.einsum("ij,jk,ik->i", analog, model.obs_cov, analog).max()
    if peak <= 0:
        raise NumericalError("combiner passes no signal power")
    support = float(np.sqrt(margin * peak))
    cross, solved = _wiener_solve(analog, model, support, levels)
    spec = UniformQuantizerSpec(levels=levels, support=support, dithered=True)
    predicted = max(_excess(model, cross, solved), 0.0)
    return QuantizerDesign(analog=analog, quantizer=spec, digital=solved.T,
                           predicted_excess_mse=predicted,
                           singular_values=(), waterline=float("nan"))


def waterfill(singvals, margin: float, levels: int, channels: int):
    """Combiner gains over the task spectrum under a unit total-power budget.

    Solves for the waterline `z` such that

        coef * sum_{i<=channels} max(z * s_i - 1, 0) = 1,
        coef = 2 margin / (3 levels^2 channels),

    exactly on the sorted piecewise-linear structure, and returns the
    nonnegative per-mode gains sqrt(coef * max(z * s_i - 1, 0)) together with
    the waterline. Modes below the line get zero gain.
    """
    s = np.asarray(singvals, dtype=float)
    if s.ndim != 1:
        raise ValueError("singular values must be a vector")
    # Python floats on these few values round as numpy did: a running sum is
    # np.cumsum's order, and + - * / max and sqrt are correctly rounded
    vals, tol = s.tolist(), 1e-12 * s.max(initial=1.0)     # NaN propagates
    if any(b - a > tol for a, b in zip(vals, vals[1:])):
        raise ValueError("singular values must be sorted descending")
    padded = [max(v, 0.0) for v in vals[:channels]]
    padded += [0.0] * (channels - len(padded))
    positive = [v for v in padded if v > 0]
    if not positive:
        raise ValueError("degenerate task: all singular values are zero")

    coef = 2.0 * margin / (3.0 * levels ** 2 * channels)
    target = 1.0 / coef
    # stop at the first m whose waterline leaves mode m + 1 dry; mode m is
    # wet there: z_1 s_1 = target + 1, and z_{m-1} s_m > 1 gives z_m s_m > 1
    csum = 0.0
    for m, v in enumerate(positive, 1):
        csum += v
        waterline = (target + m) / csum
        if m == len(positive) or waterline * positive[m] <= 1.0 + 1e-12:
            break

    gains = np.sqrt([coef * max(waterline * v - 1.0, 0.0) for v in padded])
    return gains, waterline


def equalizing_rotation(diag_values) -> np.ndarray:
    """Orthogonal U such that U diag(d) U^T has a constant diagonal.

    Built from at most p-1 Givens rotations: each pairs the largest and
    smallest diagonal entries of the still-active channels and sets the
    largest exactly to the mean, which freezes it. Two active channels never
    couple (a pair's survivor gains off-diagonal entries only with frozen
    channels), so a step costs one product of the rotation with the pair's
    diagonal block and rows of U, and one for the survivor's new entry.
    """
    d = np.asarray(diag_values, dtype=float)
    if d.ndim != 1:
        raise ValueError("diagonal values must be a vector")
    top = float(np.abs(d).max())
    if not (math.isfinite(top) and d.min() >= -1e-12 * max(top, 1.0)):
        raise ValueError("diagonal entries must be finite and nonnegative")
    p = d.size
    u = np.eye(p)
    clipped = np.maximum(d, 0.0)
    t = float(clipped.sum()) / p
    scale = max(abs(t), top, 1.0)
    active, vals = list(range(p)), clipped.tolist()
    # [[hi, 0, row a of U], [0, lo, row b of U]]: one product rotates both
    work = np.zeros((2, p + 2))
    for _ in range(p - 1):
        hi, lo = max(vals), min(vals)
        if hi - lo < 1e-9 * scale:
            break
        a, b = vals.index(hi), vals.index(lo)     # first occurrences
        # rotations keep the trace, so with the spread above rounding the
        # active minimum is below the mean: qa < 0 and tan is finite
        qa, qc = lo - t, hi - t
        tan = math.sqrt(max(0.0, -4.0 * qa * qc)) / (2.0 * qa)
        c = 1.0 / math.sqrt(1.0 + tan * tan)
        w = tan * c
        gi = np.array([[c, w], [-w, c]])
        ia, ib = active[a], active[b]
        work[0, 0], work[1, 1] = hi, lo
        work[0, 2:], work[1, 2:] = u[ia], u[ib]
        rotated = gi @ work
        # BLAS rounds with FMA, every column alike; Python floats would not
        vals[b] = float((rotated[:, :2] @ gi.T)[1, 1])
        u[ia], u[ib] = rotated[0, 2:], rotated[1, 2:]
        del active[a], vals[a]
    return u


def predicted_excess(sing, k: int, channels: int, waterline: float) -> float:
    """`design`'s excess MSE at waterline z: each of the k task modes keeps
    s_i^2 / (max(z s_i - 1, 0) + 1), and those past the channels all of s_i^2."""
    served = np.maximum(waterline * sing - 1.0, 0.0)
    terms = sing ** 2 / (served + 1.0)
    if channels >= k:
        return float(terms[:k].sum())
    return float(terms[:channels].sum() + (sing[channels:k] ** 2).sum())


def _fix_svd_signs(vt):
    """Make the first nonzero entry of each right-singular vector nonnegative."""
    mag = np.abs(vt)
    nz = mag > 1e-12 * np.maximum(mag.max(axis=1, keepdims=True), 1e-300)
    lead = vt[np.arange(vt.shape[0]), nz.argmax(axis=1)]
    vt[nz.any(axis=1) & (lead < 0)] *= -1.0
    return vt


def design(model: LinearTaskModel, channels: int, levels: int,
           support_scale: float = 4.0) -> QuantizerDesign:
    """Jointly optimal combiner, shared ADC, and digital matrix.

    The combiner water-fills gain over the singular values of the whitened
    task map, then an equalizing rotation gives every ADC channel the same
    input variance so one support fits all. support_scale is the number of
    per-channel standard deviations the support must cover.
    """
    support, margin = overload_safe_support(support_scale, levels, channels)
    spec = UniformQuantizerSpec(levels=levels, support=support, dithered=True)
    inv_root, whitened, sing, vt = model.factors

    gains, waterline = waterfill(sing, margin, levels, channels)
    # modes past the rank get zero gain and a zero basis row, so the products
    # keep the shapes, and so the rounding, they have over a full basis
    basis = np.zeros((channels, model.n))
    basis[:min(channels, sing.size)] = vt[:channels]
    power = gains ** 2
    rotation = equalizing_rotation(power)
    analog = rotation @ (gains[:, None] * basis) @ inv_root

    # Wiener gain in the rotated water-filled coordinates: diagonal, cheap
    wiener = gains / (power + noise_variance(spec))
    wide = min(channels, model.n)
    projected = np.zeros((model.k, channels))
    projected[:, :wide] = whitened @ basis[:wide].T
    digital = (projected * wiener) @ rotation.T

    channel_var = ((analog @ model.obs_cov) * analog).sum(1)
    spread = channel_var.max() - channel_var.min()
    if spread > 1e-8 * max(channel_var.max(), 1e-300):
        raise NumericalError(
            f"combiner channels are not equalized (relative spread {spread:.2e})")

    return QuantizerDesign(analog=analog, quantizer=spec, digital=digital,
                           predicted_excess_mse=predicted_excess(
                               sing, model.k, channels, waterline),
                           singular_values=sing, waterline=waterline)


def _quantize(z, spec: UniformQuantizerSpec, rng: np.random.Generator | None):
    """z through the ADC `spec`: dithered exactly when spec.dithered, which
    requires an rng."""
    if not spec.dithered:
        return uniform_quantize(z, spec)
    if rng is None:
        raise ValueError("dithered estimation requires an rng")
    return dithered_quantize(z, spec, rng)


def estimate(design_: QuantizerDesign, x, rng: np.random.Generator | None = None,
             combined: bool = False) -> np.ndarray:
    """Run the pipeline on observations: combine, quantize, recover.

    x may be a single observation (n,) or a batch (..., n). With combined=True,
    x already holds the combiner outputs (..., channels) and only quantization
    and recovery run. The quantizer dithers when its spec says so; that
    requires an rng.
    """
    x = np.asarray(x, dtype=float)
    width = design_.analog.shape[0 if combined else 1]
    if x.shape[-1] != width:
        raise ValueError(
            f"input dimension {x.shape[-1]} does not match the combiner's "
            f"{'channel count' if combined else 'width'} {width}")
    if not combined:
        x = x @ design_.analog.T
    # rebinding x frees a combined input the caller no longer holds before
    # the recovery product is allocated
    x = _quantize(x, design_.quantizer, rng)
    return np.asarray(x) @ design_.digital.T
