"""Task-based quantization toolkit.

Designs, evaluates, and simulates hybrid pipelines that combine observations
in analog, quantize with scalar ADCs, and recover a task in digital — with
model-aware closed-form designs for linear and quadratic tasks, a trainable
deep variant, hardware feasibility projections, reference bounds, and a
Monte Carlo experiment harness.
"""

from .bounds import SpectrumBound, gaussian_mmse, indirect_drf
from .errors import ConfigError, NumericalError, TrainingDiverged
from .linear_task import (LinearTaskModel, QuantizerDesign, design,
                          equalizing_rotation, estimate, excess_mse, waterfill)
from .quant import (LearnedQuantizerSpec, UniformQuantizerSpec,
                    dithered_quantize, learned_quantize, noise_variance,
                    overload_safe_support, uniform_quantize)
from .quadratic_task import (LiftedTaskModel, QuadraticTask, lift,
                             lifted_covariance, to_linear_model)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "NumericalError",
    "TrainingDiverged",
    "LearnedQuantizerSpec",
    "UniformQuantizerSpec",
    "uniform_quantize",
    "dithered_quantize",
    "learned_quantize",
    "noise_variance",
    "overload_safe_support",
    "LinearTaskModel",
    "QuantizerDesign",
    "design",
    "estimate",
    "excess_mse",
    "equalizing_rotation",
    "waterfill",
    "QuadraticTask",
    "LiftedTaskModel",
    "lift",
    "lifted_covariance",
    "to_linear_model",
    "SpectrumBound",
    "gaussian_mmse",
    "indirect_drf",
    "__version__",
]
