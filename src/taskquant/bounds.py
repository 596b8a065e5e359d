"""Reference curves: the no-quantization MMSE floor and the rate-distortion
lower bound obtained by reverse water-filling over the task-estimate spectrum.

Only the lower bound is provided; it treats the total bit budget as if spent
by an optimal vector source code on the task estimate, so every realizable
scalar-ADC pipeline must sit on or above it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = ["SpectrumBound", "gaussian_mmse", "indirect_drf"]


@dataclass(frozen=True, eq=False)
class SpectrumBound:
    """Eigenvalues of the task-estimate covariance plus floor and bit budget."""

    eigenvalues: np.ndarray
    mmse_floor: float
    rate_bits: float

    def __post_init__(self):
        eig = np.atleast_1d(np.asarray(self.eigenvalues, dtype=float))
        if not np.all(np.isfinite(np.append(eig, [self.mmse_floor, self.rate_bits]))):
            raise ValueError("eigenvalues, mmse_floor and rate_bits must be finite")
        if np.any(eig < 0):
            raise ValueError("eigenvalues must be nonnegative")
        if eig.size > 1 and np.any(np.diff(eig) > 1e-12 * max(eig.max(), 1.0)):
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
    (gamma, mmse) with gamma the k x n estimator matrix and mmse the trace of
    the error covariance.
    """
    h = np.atleast_2d(np.asarray(mixing, dtype=float))
    cov_s = np.atleast_2d(np.asarray(prior_cov, dtype=float))
    if noise_var <= 0:
        raise ValueError(f"noise variance must be positive, got {noise_var}")
    gram = h @ cov_s @ h.T + noise_var * np.eye(h.shape[0])
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e14:
        raise NumericalError("observation Gram matrix is ill-conditioned",
                             condition_number=cond)
    gamma = np.linalg.solve(gram, h @ cov_s).T
    mmse = float(np.trace(cov_s - gamma @ h @ cov_s))
    return gamma, max(mmse, 0.0)


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
