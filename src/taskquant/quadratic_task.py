"""Quadratic estimation tasks reduced to the linear framework.

A quadratic task on a zero-mean Gaussian input becomes linear after lifting
the observation to its centered products: the conditional mean of each
quadratic form given any linear function of the lifted vector is itself
linear. The lift keeps the n(n+1)/2 distinct products x_i x_j (i <= j), so
its covariance, which follows from the Gaussian fourth-moment identity, is
positive definite for a positive definite input covariance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linear_task import LinearTaskModel, QuantizerDesign, estimate
from .quant import _row_sections

__all__ = [
    "QuadraticTask",
    "LiftedTaskModel",
    "lift",
    "lifted_covariance",
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

    @cached_property
    def stacked_forms(self) -> np.ndarray:
        """The forms side by side, [C_1 ... C_k] of shape (n, k n), built
        once per task."""
        return np.concatenate(self.forms, axis=1)

    def values(self, x) -> np.ndarray:
        """Evaluate all quadratic forms on one observation or a batch."""
        return _form_values(x, self.stacked_forms)


def _form_values(x, stacked) -> np.ndarray:
    """x^T C_i x for every form in stacked = [C_1 ... C_k], of shape (n, k n),
    on x (n,) or (..., n).

    Rows go through in `_row_sections` equal chunks, one matrix product each
    into one reused buffer, so the (rows, k n) product stays small whatever
    the batch."""
    x = np.asarray(x, dtype=float)
    n = stacked.shape[0]
    k = stacked.shape[1] // n
    rows = x.reshape(-1, x.shape[-1])
    out = np.empty((rows.shape[0], k))
    sections = _row_sections(rows.shape[0])
    chunks = np.array_split(rows, sections)     # the largest chunk first
    products = np.empty((chunks[0].shape[0], stacked.shape[1]))
    for chunk, part in zip(chunks, np.array_split(out, sections)):
        y = np.matmul(chunk, stacked, out=products[:chunk.shape[0]])
        np.einsum("rkj,rj->rk", y.reshape(-1, k, n), chunk, out=part)
    return out.reshape(x.shape[:-1] + (k,))


def lift(x, input_cov) -> np.ndarray:
    """Centered lift: x_i x_j - cov_ij for i <= j, in triu_indices order."""
    x = np.asarray(x, dtype=float)
    cov = np.asarray(input_cov, dtype=float)
    n = cov.shape[0]
    if x.shape[-1] != n:
        raise ValueError(f"x has dimension {x.shape[-1]}, expected {n}")
    iu, ju = np.triu_indices(n)
    return x[..., iu] * x[..., ju] - cov[iu, ju]


def lifted_covariance(input_cov) -> np.ndarray:
    """Covariance of the lift; positive definite for positive definite input."""
    cov = np.asarray(input_cov, dtype=float)
    iu, ju = np.triu_indices(cov.shape[0])
    return (cov[np.ix_(iu, iu)] * cov[np.ix_(ju, ju)]
            + cov[np.ix_(iu, ju)] * cov[np.ix_(ju, iu)])


def _task_rows(task: QuadraticTask) -> np.ndarray:
    iu, ju = np.triu_indices(task.n)
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

    def combiner(self, design_: QuantizerDesign):
        """(stacked forms, centering shift) of design_'s combiner rows: row a
        acts as the triangle F with a . lift(x) = x^T F x - a . cov_{i<=j}.
        Built once per design and passed to `estimate` for many batches."""
        iu, ju = np.triu_indices(len(self.input_cov))
        forms = np.zeros((design_.channels,) + self.input_cov.shape)
        forms[:, iu, ju] = design_.analog
        return (np.concatenate(forms, axis=1),
                design_.analog @ self.input_cov[iu, ju])

    def estimate(self, design_: QuantizerDesign, x,
                 rng: np.random.Generator | None = None,
                 combiner=None) -> np.ndarray:
        """The pipeline on the lift of x, through the quadratic forms of
        `combiner` (`self.combiner(design_)`, built here when not given)."""
        stacked, shift = self.combiner(design_) if combiner is None else combiner
        combined = _form_values(x, stacked)
        combined -= shift
        out = estimate(design_, combined, rng=rng, combined=True)
        out += self.offsets
        return out


def to_linear_model(task: QuadraticTask) -> LiftedTaskModel:
    """Reduce a quadratic task to a linear one on the lifted observation.

    Form C maps to the lift row C_ii on the diagonal coordinates and 2 C_ij
    on the off-diagonal ones, so x^T C x = row . lift(x) + trace(C cov).
    """
    cov = lifted_covariance(task.input_cov)
    rows = _task_rows(task)
    offsets = np.array([np.trace(c @ task.input_cov) for c in task.forms])
    model = LinearTaskModel(obs_cov=0.5 * (cov + cov.T), task_matrix=rows,
                            mmse_floor=0.0)
    offsets.flags.writeable = False
    return LiftedTaskModel(model=model, offsets=offsets,
                           input_cov=task.input_cov)
