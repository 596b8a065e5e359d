"""Reference curves: the no-quantization MMSE floor and the rate-distortion
lower bound obtained by reverse water-filling over the task-estimate spectrum.

Only the lower bound is provided; it treats the total bit budget as if spent
by an optimal vector source code on the task estimate, so every realizable
scalar-ADC pipeline must sit on or above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linear_task import _regularized_gram

__all__ = ["SpectrumBound", "gaussian_mmse", "indirect_drf"]


@dataclass(frozen=True, eq=False)
class SpectrumBound:
    """Eigenvalues of the task-estimate covariance plus floor and bit budget."""

    eigenvalues: np.ndarray
    mmse_floor: float
    rate_bits: float

    def __post_init__(self):
        eig = np.atleast_1d(np.asarray(self.eigenvalues, dtype=float))
        # numpy's min and max propagate NaN, so they are finite iff all are
        low, top = eig.min(initial=0.0), eig.max(initial=1.0)
        if not all(map(math.isfinite, (low, top, self.mmse_floor, self.rate_bits))):
            raise ValueError("eigenvalues, mmse_floor and rate_bits must be finite")
        if low < 0:
            raise ValueError("eigenvalues must be nonnegative")
        vals = eig.tolist()
        if any(b - a > 1e-12 * top for a, b in zip(vals, vals[1:])):
            raise ValueError("eigenvalues must be sorted descending")
        if self.mmse_floor < 0:
            raise ValueError("mmse_floor must be nonnegative")
        if self.rate_bits < 0:
            raise ValueError("rate_bits must be nonnegative")
        eig.flags.writeable = False
        object.__setattr__(self, "eigenvalues", eig)


def gaussian_mmse(mixing, prior_cov, noise_var: float):
    """Linear MMSE estimator and its error for x = H s + w, w white Gaussian.

    mixing is the n x k matrix H, prior_cov the covariance of s. Returns
    (gamma, mmse, obs_cov) with gamma the k x n estimator matrix, mmse the
    trace of the error covariance and obs_cov = H cov_s H^T + noise_var I the
    observation covariance.
    """
    h = np.atleast_2d(np.asarray(mixing, dtype=float))
    cov_s = np.atleast_2d(np.asarray(prior_cov, dtype=float))
    if noise_var <= 0:
        raise ValueError(f"noise variance must be positive, got {noise_var}")
    h_cov, gram = _regularized_gram(h, cov_s, noise_var,
                                    "observation Gram matrix is ill-conditioned")
    gamma = np.linalg.solve(gram, h_cov).T
    mmse = float(np.trace(cov_s - gamma @ h @ cov_s))
    return gamma, max(mmse, 0.0), gram


def indirect_drf(bound: SpectrumBound) -> float:
    """Distortion of the best rate_bits-bit code for the task estimate, plus floor.

    Reverse water-filling: distortion sum(min(level, eig_i)) with level the
    level at which sum(log2(eig_i / level)^+) / 2 equals the bit budget. With
    the m largest modes wet, log2 level = (sum_{i<=m} log2 eig_i - 2 R) / m,
    solved exactly on the sorted spectrum (Cover & Thomas, Thm 10.3.3).
    """
    eig = bound.eigenvalues[bound.eigenvalues > 0]
    if eig.size == 0:
        return bound.mmse_floor
    if bound.rate_bits == 0:
        return bound.mmse_floor + float(eig.sum())
    log_eig = np.log2(eig)
    log_csum = np.cumsum(log_eig)
    # stop at the first m whose level leaves mode m + 1 dry
    for m in range(1, eig.size + 1):
        log_level = (log_csum[m - 1] - 2.0 * bound.rate_bits) / m
        if m == eig.size or log_eig[m] <= log_level:
            break
    return bound.mmse_floor + float(np.minimum(eig, 2.0 ** log_level).sum())
