"""Cross-check of a field's hand-coded derivatives, for the tests."""

from typing import Sequence

import numpy as np

from oscint3.core import ScalarField3, as_point


def check_field_derivatives(f: ScalarField3, points: Sequence[np.ndarray],
                            step: float = 1e-5, rtol: float = 1e-6) -> None:
    """Cross-check gradient/hessian against central differences of `value`,
    and the broadcasting contract: on the stacked points, value, gradient and
    hessian have shapes (m,), (m, 3), (m, 3, 3) and equal the per-point
    results stacked.

    Raises AssertionError on mismatch; the tests run it on every shipped
    field so that hand-coded derivatives cannot silently disagree.
    """
    pts = np.array([as_point(p) for p in points]).astype(complex)
    for name, ev in (("value", f), ("gradient", f.grad), ("hessian", f.hess)):
        single = np.array([np.asarray(ev(p)) for p in pts])
        try:
            stacked = np.asarray(ev(pts))
        except (ValueError, IndexError) as e:
            raise AssertionError(f"{name} does not broadcast: {e}") from e
        assert stacked.shape == single.shape, f"{name}: shape {stacked.shape}"
        assert np.array_equal(stacked, single), f"{name}: stacked != per-point"
    # central differences at every point at once, step scaled per point
    h = step * np.maximum(1.0, np.max(np.abs(pts), axis=-1))[:, None, None]
    E = np.eye(3)
    g, H = f.grad(pts), f.hess(pts)
    p = pts[:, None, :]
    fd_g = (f(p + h * E) - f(p - h * E)) / (2 * h[..., 0])
    ref = np.maximum(1.0, np.max(np.abs(g), axis=-1))
    assert np.all(np.max(np.abs(fd_g - g), axis=-1) <= rtol * ref), "gradient mismatch"
    refH = np.maximum(1.0, np.max(np.abs(H), axis=(-2, -1)))
    assert np.all(np.max(np.abs(H - np.swapaxes(H, -2, -1)), axis=(-2, -1))
                  <= 1e-12 * refH), "hessian not symmetric"
    q, ej, ek = pts[:, None, None, :], h[..., None] * E[:, None, :], h[..., None] * E
    fd_H = (f(q + ej + ek) - f(q + ej - ek) - f(q - ej + ek) + f(q - ej - ek)) / (4 * h * h)
    assert np.all(np.max(np.abs(fd_H - H), axis=(-2, -1)) <= 200 * rtol * refH), \
        "hessian mismatch"
