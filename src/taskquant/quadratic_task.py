"""Quadratic estimation tasks reduced to the linear framework.

A quadratic task on a zero-mean Gaussian input becomes linear after lifting
the observation to the centered outer-product vector: the conditional mean of
each quadratic form given any linear function of the lifted vector is itself
linear. The lifted covariance follows from the Gaussian fourth-moment
identity. The full lift carries duplicate off-diagonal coordinates and is
rank-deficient; the half-vectorized lift keeps one copy of each distinct
coordinate and is the numerically preferred path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linear_task import LinearTaskModel, QuantizerDesign, estimate

__all__ = [
    "QuadraticTask",
    "LiftedTaskModel",
    "lift",
    "lift_half",
    "lifted_covariance",
    "lifted_covariance_half",
    "to_linear_model",
]

_SYM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class QuadraticTask:
    """Task: recover the quadratic forms x^T C_i x of a zero-mean Gaussian x."""

    forms: tuple
    input_cov: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.input_cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError("input_cov must be square")
        if np.linalg.eigvalsh(cov).min() <= 0:
            raise ValueError("input_cov must be positive definite")
        forms = []
        for idx, c in enumerate(self.forms):
            c = np.asarray(c, dtype=float)
            if c.shape != cov.shape:
                raise ValueError(f"form {idx} has shape {c.shape}, expected {cov.shape}")
            scale = max(np.abs(c).max(), 1e-300)
            if np.abs(c - c.T).max() > _SYM_TOL * scale:
                raise ValueError(f"form {idx} is not symmetric")
            c = 0.5 * (c + c.T)
            c.flags.writeable = False
            forms.append(c)
        cov = cov.copy()
        cov.flags.writeable = False
        object.__setattr__(self, "forms", tuple(forms))
        object.__setattr__(self, "input_cov", cov)

    @property
    def n(self) -> int:
        return self.input_cov.shape[0]

    @property
    def k(self) -> int:
        return len(self.forms)

    def values(self, x) -> np.ndarray:
        """Evaluate all quadratic forms on one observation or a batch."""
        x = np.asarray(x, dtype=float)
        return np.stack([np.einsum("...i,ij,...j->...", x, c, x)
                         for c in self.forms], axis=-1)


def lift(x, input_cov) -> np.ndarray:
    """Centered outer-product lift: vec(x x^T) - vec(cov), row-major."""
    x = np.asarray(x, dtype=float)
    cov = np.asarray(input_cov, dtype=float)
    n = cov.shape[0]
    if x.shape[-1] != n:
        raise ValueError(f"x has dimension {x.shape[-1]}, expected {n}")
    outer = np.einsum("...i,...j->...ij", x, x)
    return outer.reshape(*x.shape[:-1], n * n) - cov.reshape(n * n)


def lift_half(x, input_cov) -> np.ndarray:
    """Centered lift restricted to the n(n+1)/2 distinct product coordinates."""
    x = np.asarray(x, dtype=float)
    cov = np.asarray(input_cov, dtype=float)
    n = cov.shape[0]
    if x.shape[-1] != n:
        raise ValueError(f"x has dimension {x.shape[-1]}, expected {n}")
    iu, ju = np.triu_indices(n)
    return x[..., iu] * x[..., ju] - cov[iu, ju]


def lifted_covariance(input_cov) -> np.ndarray:
    """Covariance of the full lift: (I + K) (cov x cov), K the swap permutation."""
    cov = np.asarray(input_cov, dtype=float)
    n = cov.shape[0]
    kron = np.kron(cov, cov)
    idx = np.arange(n * n)
    swap = (idx % n) * n + idx // n
    return kron + kron[swap, :]


def lifted_covariance_half(input_cov) -> np.ndarray:
    """Covariance of the half lift; positive definite for positive definite input."""
    cov = np.asarray(input_cov, dtype=float)
    iu, ju = np.triu_indices(cov.shape[0])
    return (cov[np.ix_(iu, iu)] * cov[np.ix_(ju, ju)]
            + cov[np.ix_(iu, ju)] * cov[np.ix_(ju, iu)])


def _task_rows(task: QuadraticTask, mode: str) -> np.ndarray:
    n = task.n
    if mode == "full":
        return np.stack([c.reshape(n * n) for c in task.forms])
    iu, ju = np.triu_indices(n)
    weight = np.where(iu == ju, 1.0, 2.0)
    return np.stack([c[iu, ju] * weight for c in task.forms])


@dataclass(frozen=True, eq=False)
class LiftedTaskModel:
    """Linear-task view of a quadratic task, plus the affine offsets.

    The model's observation is the (centered) lifted vector; the quadratic
    values are recovered as task_matrix @ lifted + offsets, with offsets the
    means trace(C_i cov) that centering removed.
    """

    model: LinearTaskModel
    offsets: np.ndarray
    input_cov: np.ndarray
    mode: str

    def lift(self, x) -> np.ndarray:
        if self.mode == "full":
            return lift(x, self.input_cov)
        return lift_half(x, self.input_cov)

    def estimate(self, design_: QuantizerDesign, x,
                 rng: np.random.Generator | None = None,
                 dither: bool | None = None) -> np.ndarray:
        return estimate(design_, self.lift(x), rng=rng, dither=dither) + self.offsets


def to_linear_model(task: QuadraticTask, mode: str = "full",
                    floor_ratio: float = 1e-10) -> LiftedTaskModel:
    """Reduce a quadratic task to a linear one on the lifted observation.

    mode "full" uses all n^2 lift coordinates; the duplicate off-diagonal
    coordinates make the lifted covariance rank-deficient, so its eigenvalues
    are floored at floor_ratio times the largest before use. mode "half"
    keeps the n(n+1)/2 distinct coordinates and needs no regularization.
    """
    if mode not in ("full", "half"):
        raise ValueError(f"mode must be 'full' or 'half', got {mode!r}")
    if mode == "full":
        cov = lifted_covariance(task.input_cov)
        w, q = np.linalg.eigh(cov)
        w = np.maximum(w, floor_ratio * w.max())
        cov = (q * w) @ q.T
    else:
        cov = lifted_covariance_half(task.input_cov)
    rows = _task_rows(task, mode)
    offsets = np.array([np.trace(c @ task.input_cov) for c in task.forms])
    model = LinearTaskModel(obs_cov=0.5 * (cov + cov.T), task_matrix=rows,
                            mmse_floor=0.0)
    offsets.flags.writeable = False
    return LiftedTaskModel(model=model, offsets=offsets,
                           input_cov=task.input_cov, mode=mode)
