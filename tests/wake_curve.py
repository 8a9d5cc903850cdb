"""The crossing curve L of the two pole surfaces of the wake integral,
parametrized by the frequency w = varpi: seeds and tangents for the tests."""

import numpy as np

from oscint3.kelvin import _wave_families


def ray_frequencies(lam: float) -> np.ndarray:
    """The two stationary frequencies on L at ray slope lam, (diverging,
    transverse): the families at (0, lam) at tau = 1; NaN outside the wedge."""
    return _wave_families(0.0, lam, 1.0).w[:, 0]


def curve_L(w: float, branch: int = +1) -> np.ndarray:
    """Point of the crossing curve of the two pole surfaces at frequency w."""
    if abs(w) < 1:
        raise ValueError(f"|w| >= 1 required, got {w}")
    return np.array([w, branch * np.sqrt(w ** 4 - w ** 2), w])


def curve_L_tangent(w: float, branch: int = +1) -> np.ndarray:
    if abs(w) <= 1:
        raise ValueError(f"|w| > 1 required, got {w}")
    return np.array([1.0, branch * (2 * w ** 2 - 1) / np.sqrt(w ** 2 - 1), 1.0])
