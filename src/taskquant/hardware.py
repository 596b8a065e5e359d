"""Combiner feasibility models: phase-only and partially-connected networks,
and the metasurface combiner of Lorentzian elements on microstrips.

Each model projects a combiner onto its feasible set with `project`; the
unconstrained design is `linear_task.design` itself. Constrained designs are
one-shot: design the unconstrained combiner, project it, re-size the
quantizer support for the projected combiner's channel variances, and
re-optimize the digital matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linear_task import (LinearTaskModel, QuantizerDesign, design,
                          fixed_combiner_design)

__all__ = [
    "PhaseOnly",
    "PartialConnect",
    "LorentzianCombiner",
    "PropagationModel",
    "ParameterGrid",
    "project_phase_only",
    "apply_partial_mask",
    "project_lorentzian",
    "real_composite",
    "nearest_complex_blocks",
    "constrained_design",
]


def _lorentzian(strength, damping, resonance, omega):
    """The Lorentzian law F w^2 / (w_R^2 - w^2 - j w chi); broadcasts."""
    return strength * omega ** 2 / (resonance ** 2 - omega ** 2 - 1j * omega * damping)


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


def project_phase_only(matrix) -> np.ndarray:
    """Project each entry to unit modulus, keeping its phase; zeros map to +1."""
    a = np.asarray(matrix)
    mag = np.abs(a)
    out = np.where(mag == 0, 1.0 + 0.0j, a / np.where(mag == 0, 1.0, mag))
    if np.isrealobj(a):
        return out.real
    return out


def apply_partial_mask(matrix, owners) -> np.ndarray:
    """Zero every entry (i, j) of a combiner with owners[j] != i.

    owners[j] is the quantizer (row) that antenna (column) j feeds; there must
    be one owner per column, and every row must own at least one antenna.
    """
    a = np.array(matrix)
    owners = np.asarray(owners)
    rows, cols = a.shape
    if owners.shape != (cols,):
        raise ValueError(f"partition has {owners.size} owners for {cols} antennas")
    if not np.array_equal(np.unique(owners), np.arange(rows)):
        raise ValueError(f"partition owners must be the quantizers "
                         f"0..{rows - 1}, each owning at least one antenna")
    a[owners != np.arange(rows)[:, None]] = 0
    return a


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
    col = 0    # columns run strip by strip, each from its output port
    for i, size in enumerate(strip_sizes):
        h = [propagation.response(pos, omega) for pos in range(size)]
        # one (size x grid) distance block per strip keeps the search in cache
        targets = desired[i, col:col + size] / np.array(h, dtype=complex)
        best = np.abs(candid - targets[:, None]).argmin(axis=1)
        for pos, index in enumerate(best.tolist()):
            # numpy's scalar product: its array loop rounds differently
            feasible[i, col] = candid[index] * h[pos]
            params[(i, col)] = tuple(float(values[j]) for values, j
                                     in zip(axes, np.unravel_index(index, shape)))
            col += 1
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
class PhaseOnly:
    def project(self, analog):
        return project_phase_only(analog)


@dataclass(frozen=True)
class PartialConnect:
    owners: tuple    # owners[j]: the quantizer that antenna j feeds

    def __post_init__(self):
        object.__setattr__(self, "owners", tuple(int(o) for o in self.owners))

    def project(self, analog):
        return apply_partial_mask(analog, self.owners)


@dataclass(frozen=True)
class LorentzianCombiner:
    strip_sizes: tuple
    omega: float
    grid: ParameterGrid
    propagation: PropagationModel = field(default_factory=PropagationModel)

    def __post_init__(self):
        if not self.omega > 0:
            raise ValueError("frequency must be positive")
        object.__setattr__(self, "strip_sizes",
                           tuple(int(s) for s in self.strip_sizes))

    def project(self, analog):
        """Real composite of the metasurface combiner nearest to the complex
        matrix that the real combiner `analog` embeds."""
        feasible, _, _ = project_lorentzian(nearest_complex_blocks(analog),
                                            self.strip_sizes, self.omega,
                                            self.grid, self.propagation)
        return real_composite(feasible)


def constrained_design(model: LinearTaskModel, constraint, channels: int,
                       levels: int, support_scale: float = 4.0) -> QuantizerDesign:
    """Design under a combiner feasibility constraint.

    The fixed-combiner design of the unconstrained combiner's projection onto
    the feasible set: the support is re-sized so the projected channels still
    overload rarely, the digital matrix is re-optimized, and no water-fill is
    kept. Its excess MSE can only be worse than the unconstrained design's.
    """
    base = design(model, channels, levels, support_scale)
    return fixed_combiner_design(constraint.project(base.analog), model, levels,
                                 support_scale)
