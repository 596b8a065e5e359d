"""Combiner feasibility models: phase-only and partially-connected networks,
and the metasurface (Lorentzian-element) combiner with its structured matrix.

Constrained designs are one-shot: design the unconstrained combiner, project
it onto the feasible set, re-size the quantizer support for the projected
combiner's channel variances, and re-optimize the digital matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linear_task import (LinearTaskModel, QuantizerDesign, design,
                          fixed_combiner_design)

__all__ = [
    "Unconstrained",
    "PhaseOnly",
    "PartialConnect",
    "LorentzianCombiner",
    "LorentzianElement",
    "PropagationModel",
    "ParameterGrid",
    "project_phase_only",
    "apply_partial_mask",
    "lorentzian_response",
    "dma_combiner",
    "project_lorentzian",
    "real_composite",
    "nearest_complex_blocks",
    "constrained_design",
]


@dataclass(frozen=True)
class LorentzianElement:
    """Resonant metamaterial element: frequency response of Lorentzian form."""

    strength: float       # oscillator strength, dimensionless
    damping: float        # rad/s
    resonance: float      # angular resonance frequency, rad/s

    def __post_init__(self):
        if self.strength <= 0 or self.damping <= 0 or self.resonance <= 0:
            raise ValueError("element parameters must be positive")


def _lorentzian(strength, damping, resonance, omega):
    """The Lorentzian law F w^2 / (w_R^2 - w^2 - j w chi); broadcasts."""
    return strength * omega ** 2 / (resonance ** 2 - omega ** 2 - 1j * omega * damping)


def lorentzian_response(element: LorentzianElement, omega: float) -> complex:
    """Element response F w^2 / (w_R^2 - w^2 - j w chi) at angular frequency w."""
    if omega <= 0:
        raise ValueError("frequency must be positive")
    return _lorentzian(element.strength, element.damping, element.resonance, omega)


@dataclass(frozen=True)
class PropagationModel:
    """Per-element delay along a microstrip: exp(-pos * (attenuation + j w delay)).

    Positions count from 0 at the output port; a lossless, delay-free model is
    the default.
    """

    attenuation: float = 0.0   # nepers per element pitch
    delay: float = 0.0         # seconds per element pitch

    def __post_init__(self):
        if self.attenuation < 0:
            raise ValueError("attenuation must be nonnegative")

    def response(self, position: int, omega: float) -> complex:
        return np.exp(-position * (self.attenuation + 1j * omega * self.delay))


def _strip_walk(strip_sizes):
    """(row, column, position from the port) of each on-strip entry, strip by strip."""
    col = 0
    for row, size in enumerate(strip_sizes):
        for pos in range(size):
            yield row, col, pos
            col += 1


def dma_combiner(microstrips, omega: float,
                 propagation: PropagationModel | None = None) -> np.ndarray:
    """Combining matrix of a metasurface antenna at a single frequency.

    microstrips is a list of element lists; row i holds the products
    element-response * propagation-response for the elements of strip i and
    zeros for every element on other strips, giving the block sparsity of the
    physical layout. Columns are ordered strip by strip.
    """
    if propagation is None:
        propagation = PropagationModel()
    sizes = [len(strip) for strip in microstrips]
    out = np.zeros((len(sizes), sum(sizes)), dtype=complex)
    for i, col, pos in _strip_walk(sizes):
        out[i, col] = (lorentzian_response(microstrips[i][pos], omega)
                       * propagation.response(pos, omega))
    return out


def project_phase_only(matrix) -> np.ndarray:
    """Project each entry to unit modulus, keeping its phase; zeros map to +1."""
    a = np.asarray(matrix)
    mag = np.abs(a)
    out = np.where(mag == 0, 1.0 + 0.0j, a / np.where(mag == 0, 1.0, mag))
    if np.isrealobj(a):
        return out.real
    return out


def _validate_partition(subsets, rows: int, cols: int):
    seen = np.zeros(cols, dtype=bool)
    if len(subsets) != rows:
        raise ValueError(f"partition has {len(subsets)} subsets for {rows} rows")
    for subset in subsets:
        for j in subset:
            if not 0 <= j < cols:
                raise ValueError(f"antenna index {j} out of range")
            if seen[j]:
                raise ValueError(f"antenna {j} assigned to more than one quantizer")
            seen[j] = True
    if not seen.all():
        missing = np.flatnonzero(~seen)
        raise ValueError(f"antennas {missing.tolist()} are unassigned")


def apply_partial_mask(matrix, subsets):
    """Zero the entries outside each row's antenna subset.

    subsets[i] lists the antennas wired to quantizer i and must partition the
    columns. Returns (masked matrix, Frobenius norm of what was removed).
    """
    a = np.array(matrix)
    _validate_partition(subsets, a.shape[0], a.shape[1])
    mask = np.zeros(a.shape, dtype=bool)
    for i, subset in enumerate(subsets):
        mask[i, list(subset)] = True
    removed = np.linalg.norm(a[~mask])
    a[~mask] = 0
    return a, float(removed)


@dataclass(frozen=True)
class ParameterGrid:
    """Sampled admissible element parameters for projection by grid search."""

    strengths: np.ndarray
    dampings: np.ndarray
    resonances: np.ndarray

    def __post_init__(self):
        for name in ("strengths", "dampings", "resonances"):
            vals = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if vals.size == 0 or np.any(vals <= 0):
                raise ValueError(f"{name} must be a nonempty positive grid")
            vals.flags.writeable = False
            object.__setattr__(self, name, vals)

    @classmethod
    def regular(cls, strength_range, damping_range, resonance_range, count=32):
        return cls(np.linspace(*strength_range, count),
                   np.linspace(*damping_range, count),
                   np.linspace(*resonance_range, count))

    def responses(self, omega: float) -> np.ndarray:
        """Achievable element responses at omega over the whole grid, flattened."""
        return _lorentzian(self.strengths[:, None, None],
                           self.dampings[None, :, None],
                           self.resonances[None, None, :], omega).ravel()


def project_lorentzian(desired, strip_sizes, omega: float, grid: ParameterGrid,
                       propagation: PropagationModel | None = None):
    """Nearest achievable metasurface combiner to a desired complex matrix.

    strip_sizes gives the element count per microstrip (rows). For each
    on-strip entry the delay response is divided out and the closest grid
    response chosen; off-strip entries are structurally zero, so any desired
    mass there is counted in the residual. Returns (feasible matrix, chosen
    (strength, damping, resonance) per on-strip entry keyed by (row, col),
    total squared residual).
    """
    if propagation is None:
        propagation = PropagationModel()
    desired = np.asarray(desired, dtype=complex)
    rows = len(strip_sizes)
    cols = int(np.sum(strip_sizes))
    if desired.shape != (rows, cols):
        raise ValueError(f"desired matrix shape {desired.shape} does not match "
                         f"{rows} strips with {cols} elements")
    axes = (grid.strengths, grid.dampings, grid.resonances)
    shape = tuple(values.size for values in axes)
    candid = grid.responses(omega)
    feasible = np.zeros_like(desired)
    params = {}
    for i, col, pos in _strip_walk(strip_sizes):
        h = propagation.response(pos, omega)
        best = int(np.argmin(np.abs(candid - desired[i, col] / h)))
        feasible[i, col] = candid[best] * h
        params[(i, col)] = tuple(float(values[j]) for values, j
                                 in zip(axes, np.unravel_index(best, shape)))
    residual = float(np.sum(np.abs(desired - feasible) ** 2))
    return feasible, params, residual


def real_composite(matrix) -> np.ndarray:
    """Real block embedding [[Re, Im], [-Im, Re]] of a complex matrix."""
    c = np.asarray(matrix, dtype=complex)
    return np.block([[c.real, c.imag], [-c.imag, c.real]])


def nearest_complex_blocks(matrix) -> np.ndarray:
    """Least-squares complex matrix whose real composite is closest to the input."""
    a = np.asarray(matrix, dtype=float)
    rows, cols = a.shape
    if rows % 2 or cols % 2:
        raise ValueError("real-composite matrices have even dimensions")
    p, q = rows // 2, cols // 2
    return (0.5 * (a[:p, :q] + a[p:, q:])
            + 0.5j * (a[:p, q:] - a[p:, :q]))


@dataclass(frozen=True)
class Unconstrained:
    pass


@dataclass(frozen=True)
class PhaseOnly:
    pass


@dataclass(frozen=True)
class PartialConnect:
    subsets: tuple

    def __post_init__(self):
        object.__setattr__(self, "subsets",
                           tuple(tuple(int(j) for j in s) for s in self.subsets))


@dataclass(frozen=True)
class LorentzianCombiner:
    strip_sizes: tuple
    omega: float
    grid: ParameterGrid
    propagation: PropagationModel = field(default_factory=PropagationModel)

    def __post_init__(self):
        object.__setattr__(self, "strip_sizes",
                           tuple(int(s) for s in self.strip_sizes))


def _project(analog, constraint):
    if isinstance(constraint, PhaseOnly):
        return project_phase_only(analog)
    if isinstance(constraint, PartialConnect):
        masked, _ = apply_partial_mask(analog, constraint.subsets)
        return masked
    if isinstance(constraint, LorentzianCombiner):
        desired = nearest_complex_blocks(analog)
        feasible, _, _ = project_lorentzian(desired, constraint.strip_sizes,
                                            constraint.omega, constraint.grid,
                                            constraint.propagation)
        return real_composite(feasible)
    raise ValueError(f"unsupported constraint {constraint!r}")


def constrained_design(model: LinearTaskModel, constraint, channels: int,
                       levels: int, support_scale: float = 4.0) -> QuantizerDesign:
    """Design under a combiner feasibility constraint.

    Projects the unconstrained combiner onto the feasible set, re-sizes the
    support so the projected channels still overload rarely, and re-optimizes
    the digital matrix. The excess MSE of the result can only be worse than
    the unconstrained design's.
    """
    base = design(model, channels, levels, support_scale)
    if isinstance(constraint, Unconstrained):
        return base
    return fixed_combiner_design(_project(base.analog, constraint), model,
                                 levels, support_scale,
                                 singular_values=base.singular_values,
                                 waterline=base.waterline)
