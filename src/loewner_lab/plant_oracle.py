"""Closed-form evaluation of the irrational benchmark plant.

The model is a one-dimensional transport equation driven through a
second-order actuator.  Its transfer function from the actuator input to the
transported quantity at position ``x`` is

    H(x, s) = (sqrt(pi) / sqrt(s)) * exp(-x**2 * s) * G(s),
    G(s)    = omega0**2 / (s**2 + m * omega0 * s + omega0**2),

which is irrational (branch point at s = 0, essential singularity at
infinity) and therefore has no finite-order state-space realization.  It
serves as the ground-truth data source for every identification, control
and stability pipeline in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleHitError, SingularityError

__all__ = ["PlantParameters", "eval_actuator", "eval_plant", "sample_grid"]


# Extent of the spatial domain (dimensionless).
DOMAIN_LENGTH = 3.0


@dataclass(frozen=True)
class PlantParameters:
    """Physical parameters of the transport plant and its actuator.

    The spatial domain is [0, ``DOMAIN_LENGTH``].

    Parameters
    ----------
    omega0 : float
        Natural frequency of the actuator (rad/s).
    damping : float
        Dimensionless actuator damping coefficient.
    x_m : float
        Measurement abscissa.  The default is the printed grid value used
        throughout the benchmark rather than a recomputed ``linspace``
        entry, so results stay bit-comparable across grid changes.
    """

    omega0: float = 3.0
    damping: float = 0.5
    x_m: float = 1.9592

    def __post_init__(self) -> None:
        if not self.omega0 > 0:
            raise ValueError(f"omega0 must be positive, got {self.omega0}")
        if not self.damping > 0:
            raise ValueError(f"damping must be positive, got {self.damping}")
        if not 0.0 <= self.x_m <= DOMAIN_LENGTH:
            raise ValueError(
                f"x_m must lie in [0, {DOMAIN_LENGTH}], got {self.x_m}"
            )


def eval_actuator(p: PlantParameters, s):
    """Actuator transfer omega0^2 / (s^2 + m*omega0*s + omega0^2).

    Accepts a scalar or an ndarray of complex points.  Raises
    :class:`PoleHitError` when the denominator underflows relative to the
    natural scale of its terms.
    """
    s = np.asarray(s, dtype=complex)
    den = s * s + p.damping * p.omega0 * s + p.omega0**2
    scale = np.maximum(np.abs(s) ** 2, p.omega0**2)
    if np.any(np.abs(den) <= 100.0 * np.finfo(float).eps * scale):
        raise PoleHitError("actuator evaluated at (or numerically at) a pole")
    out = p.omega0**2 / den
    return out if out.ndim else complex(out)


def eval_plant(p: PlantParameters, x: float, s):
    """Transport-plant transfer (sqrt(pi)/sqrt(s)) * exp(-x^2 s) * actuator.

    The square root uses the principal branch, which preserves conjugate
    symmetry off the negative real axis.  The point s = 0 is a branch-point
    singularity where |H| diverges, so it is rejected outright.

    Parameters
    ----------
    p : PlantParameters
    x : float
        Space coordinate in [0, DOMAIN_LENGTH].
    s : complex scalar or ndarray
        Evaluation point(s); must be nonzero.
    """
    if not 0.0 <= x <= DOMAIN_LENGTH:
        raise ValueError(f"x must lie in [0, {DOMAIN_LENGTH}], got {x}")
    s = np.asarray(s, dtype=complex)
    if np.any(s == 0):
        raise SingularityError("plant transfer is singular at s = 0")
    out = (np.sqrt(np.pi) / np.sqrt(s)) * np.exp(-(x**2) * s) * eval_actuator(p, s)
    return out if out.ndim else complex(out)


def sample_grid(n: int, w_min: float, w_max: float) -> np.ndarray:
    """Logarithmically spaced imaginary-axis points i*omega.

    Returns ``n`` points with omega log-spaced in [w_min, w_max], strictly
    increasing, endpoints included.  The bounds must satisfy
    0 < w_min < w_max < inf.
    """
    if n < 2:
        raise ValueError(f"need at least 2 grid points, got {n}")
    if not (0 < w_min < w_max < math.inf):
        raise ValueError(
            f"bounds must satisfy 0 < w_min < w_max < inf, got ({w_min}, {w_max})"
        )
    return 1j * np.geomspace(w_min, w_max, n)
