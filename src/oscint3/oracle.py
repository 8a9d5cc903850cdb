"""Independent numerical evaluation of the integrals, for validation only.

Three oracles, none of which shares code with the asymptotic machinery:

* quad_deformed_3d: tensor-product Gauss-Legendre over the shifted copy of
  R^3, with optional cosine taper; its error estimate is the difference
  between the n-node and the (n-32)-node rules.
* quad_contour_1d: adaptive quadrature of f(w) e^{i*Lambda*w} along a
  piecewise contour in one complex variable; used to verify the universal
  factor I(mu) and to build exact factorized references for the canonical
  test problems.
* kelvin_oracle: residue reduction in the frequency variable followed by a
  graded-panel 2D quadrature; independent reference for the ship-wake field.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from .core import ProblemSpec

__all__ = [
    "SingularityTooClose",
    "NonConvergent",
    "PoleCollision",
    "QuadratureSpec",
    "Contour1D",
    "gamma_tilde",
    "quad_contour_1d",
    "quad_deformed_3d",
    "kelvin_oracle",
]

QUAD_LIMIT = 400               # subintervals per segment for scipy's quad
MARGIN_PROBES = 40             # probe points per axis of the singularity check
SINGULARITY_MARGIN = 1e-3      # least |g| allowed on the shifted grid
RAD_PER_PANEL = 24.0           # phase advance per Gauss-Legendre panel
PANEL_NODES = 16               # Gauss-Legendre nodes per panel
WAKE_PREFACTOR = 1j / (8 * np.pi ** 3)   # restated here: the oracle imports no kelvin code


class SingularityTooClose(Exception):
    pass


class NonConvergent(Exception):
    pass


class PoleCollision(Exception):
    pass


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor quadrature parameters: truncation radius, nodes per axis,
    cosine-window taper fraction (0 for none).  The contour's shift is the
    problem's own eta."""

    R: float = 8.0
    n: int = 128
    taper: float = 0.15

    def __post_init__(self):
        if self.R <= 0 or self.n < 16 or self.n % 2:
            raise ValueError("need R > 0 and even n >= 16")
        if not 0 <= self.taper <= 0.5:
            raise ValueError("taper fraction in [0, 0.5]")


KELVIN_QUAD = QuadratureSpec(R=12.0, n=128)   # kelvin_oracle's default nodes


# ---------------------------------------------------------------------------
# 1D contours

@dataclass(frozen=True)
class Contour1D:
    """Piecewise path in one complex variable.

    segments: list of ("line", a, b) or ("arc", center, radius, th0, th1).
    """

    segments: tuple


def gamma_tilde(r: float = 0.5, T: float = 30.0, H: float = 0.0) -> Contour1D:
    """Real line indented around 0 by a semicircle below; optional vertical
    end legs up to height H (for integrands that need the ends pushed into
    the decaying half-plane)."""
    segs = []
    if H > 0:
        segs.append(("line", -T + 1j * H, -T + 0j))
    segs.append(("line", -T + 0j, -r + 0j))
    segs.append(("arc", 0j, r, np.pi, 2 * np.pi))
    segs.append(("line", r + 0j, T + 0j))
    if H > 0:
        segs.append(("line", T + 0j, T + 1j * H))
    return Contour1D(tuple(segs))


def quad_contour_1d(f: Callable[[complex], complex], contour: Contour1D,
                    lam: float = 0.0) -> complex:
    """Adaptive quadrature of f(w) * exp(i*lam*w) along the contour.

    Multivalued integrands supplied through `f` should use `branch_arg`/`branch_power` so the cut sits just below the
    positive real axis (arg in (-3*pi/2, pi/2]), matching the indented-below
    contour convention.
    """
    total = 0j
    for seg in contour.segments:
        if seg[0] == "line":
            _, a, b = seg

            def h(t, a=a, b=b):
                w = a + (b - a) * t
                return f(w) * np.exp(1j * lam * w) * (b - a)
        else:
            _, c, r, t0, t1 = seg

            def h(t, c=c, r=r, t0=t0, t1=t1):
                th = t0 + (t1 - t0) * t
                w = c + r * np.exp(1j * th)
                return f(w) * np.exp(1j * lam * w) * 1j * r * np.exp(1j * th) * (t1 - t0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            re, ere = quad(lambda t: np.real(h(t)), 0, 1, limit=QUAD_LIMIT)
            im, eim = quad(lambda t: np.imag(h(t)), 0, 1, limit=QUAD_LIMIT)
        if max(ere, eim) > 1e-4 * max(1.0, abs(complex(re, im))):
            raise NonConvergent("1D contour quadrature did not converge")
        total += complex(re, im)
    return total


def branch_arg(w) -> np.ndarray:
    """Argument with the cut just below the positive real axis: (-3pi/2, pi/2]."""
    a = np.angle(w)
    return np.where(a > np.pi / 2, a - 2 * np.pi, a)


def branch_power(w, mu: float):
    """w^mu on the branch matching the indented-below contour."""
    return np.abs(w) ** mu * np.exp(1j * mu * branch_arg(w))


# ---------------------------------------------------------------------------
# deformed 3D quadrature

def _taper(x: np.ndarray, R: float, t: float) -> np.ndarray:
    a = (1 - t) * R
    y = np.ones_like(x)
    m = np.abs(x) > a
    if t > 0:
        y[m] = 0.5 * (1 + np.cos(np.pi * (np.abs(x[m]) - a) / (R - a)))
    return y


def quad_deformed_3d(problem: ProblemSpec, lam: float,
                     spec: QuadratureSpec) -> tuple[complex, float]:
    """Brute-force integral over the shifted domain R^3 + i*eta.

    Returns (value, error) where the error is the difference between the
    n-node rule and the max(16, n-32)-node rule; Gauss-Legendre converges
    spectrally once the oscillation is resolved, so a small node offset is a
    sensitive detector of an under-resolved integrand.  Shipped field
    evaluators broadcast over (..., 3) input, which this routine relies on
    for speed.
    """
    _check_singularity_margin(problem, spec.R)
    coarse = _quad_grid(problem, lam, spec, max(16, spec.n - 32))
    fine = _quad_grid(problem, lam, spec, spec.n)
    err = abs(fine - coarse)
    if err > 1e-3 * max(abs(fine), 1e-300):
        raise NonConvergent(f"n vs n-32 node difference {err:.3e} "
                            f"vs value {abs(fine):.3e}")
    return fine, err


def _check_singularity_margin(problem: ProblemSpec, R: float) -> None:
    if not problem.amplitude.components:
        return
    ax = np.linspace(-R, R, MARGIN_PROBES)
    X = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).astype(complex)
    X += 1j * problem.eta
    for c in problem.amplitude.components:
        if np.min(np.abs(c.g(X))) < SINGULARITY_MARGIN:
            raise SingularityTooClose(
                f"|{c.label}| < {SINGULARITY_MARGIN} on the shifted grid")


def _quad_grid(problem: ProblemSpec, lam: float, spec: QuadratureSpec,
               n: int) -> complex:
    xg, wg = leggauss(n)
    x = spec.R * xg
    w = spec.R * wg * _taper(x, spec.R, spec.taper)
    F, G = problem.amplitude, problem.G
    total = 0j
    # slab over the first axis; the volume form of a constant shift is 1
    x23 = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1)
    w23 = np.outer(w, w)
    for i in range(n):
        pts = np.empty(x23.shape[:-1] + (3,), dtype=complex)
        pts[..., 0] = x[i]
        pts[..., 1] = x23[..., 0]
        pts[..., 2] = x23[..., 1]
        pts += 1j * problem.eta
        vals = F.value_vec(pts) * np.exp(1j * lam * G.value(pts))
        total += w[i] * np.sum(w23 * vals)
    return complex(problem.prefactor) * total


# ---------------------------------------------------------------------------
# Kelvin residue oracle

def _graded_panels(R: float, h_base: float, lam: float, tau: float) -> np.ndarray:
    """Panel edges on [-R, R], width limited by the local oscillation rate
    lam*tau/(2*sqrt(x)) of the square-root phase near the origin."""
    edges = [0.0]
    x = 0.0
    while x < R:
        if x < 1e-6:
            h = max(2e-3, RAD_PER_PANEL / (lam * tau) * 2 * np.sqrt(2e-3))
        else:
            freq = lam * tau / (2 * np.sqrt(x))
            h = min(h_base, RAD_PER_PANEL / freq)
        h = max(h, 5e-4)
        x = min(x + h, R)
        edges.append(x)
    e = np.array(edges)
    return np.concatenate([-e[::-1], e[1:]])


def _axis_nodes(R: float, lam: float, tau: float, fmax: float,
                oversample: float = 1.0):
    h_base = RAD_PER_PANEL / (lam * fmax * oversample)
    e = _graded_panels(R, h_base, lam, tau)
    xg, wg = leggauss(PANEL_NODES)
    mid = 0.5 * (e[1:] + e[:-1])
    hw = 0.5 * (e[1:] - e[:-1])
    X = (mid[:, None] + hw[:, None] * xg[None, :]).ravel()
    W = (hw[:, None] * wg[None, :]).ravel()
    return X, W


def kelvin_oracle(z1: float, z2: float, tau: float, lam: float,
                  spec: Optional[QuadratureSpec] = None) -> complex:
    """Reference value of the ship-wake integral by residue reduction.

    For tau > 0 the frequency contour (shifted up by i*eps) closes downward
    and picks up the real poles at varpi = xi1 and varpi = +-(xi1^2+xi2^2)^{1/4};
    the residue sum is then integrated over (xi1, xi2) with graded windowed
    Gauss-Legendre panels.  For tau < 0 the contour closes upward around no
    poles and the integral is exactly zero (causality).
    """
    spec = spec or KELVIN_QUAD
    if tau < 0:
        return 0j
    fmax = max(abs(z1), abs(z2)) + 1.0 + tau * 0.55
    oversample = spec.n / 128.0
    X1, W1 = _axis_nodes(spec.R, lam, tau, fmax, oversample=oversample)
    X2, W2 = _axis_nodes(spec.R, lam, tau, fmax, oversample=oversample)
    X1 = _jitter_collisions(X1, X2)
    W1 = W1 * _taper(X1, spec.R, spec.taper)
    W2 = W2 * _taper(X2, spec.R, spec.taper)
    u = W1 * np.exp(1j * lam * X1 * z1)
    v = W2 * np.exp(1j * lam * X2 * z2)
    total = 0j
    B = 256
    for i0 in range(0, len(X1), B):
        x1 = X1[i0:i0 + B, None]
        x2 = X2[None, :]
        s2 = np.sqrt(x1 ** 2 + x2 ** 2)
        s = np.sqrt(s2)
        # residue sum of xi1*varpi*e^{-i lam varpi tau} / ((varpi-xi1)(varpi^2-s2))
        # at varpi = xi1, +s, -s; analytic across the collision curves x1 = +-s
        t1 = x1 ** 2 * np.exp(-1j * lam * x1 * tau) / (x1 ** 2 - s2)
        pp = x1 * np.exp(-1j * lam * s * tau) / (2 * (s - x1))
        pm = -x1 * np.exp(1j * lam * s * tau) / (2 * (s + x1))
        total += u[i0:i0 + B] @ (t1 + pp + pm) @ v
    return WAKE_PREFACTOR * (-2j * np.pi) * total


def _jitter_collisions(X1: np.ndarray, X2: np.ndarray,
                       tol: float = 1e-8) -> np.ndarray:
    """Shift the xi1 axis once if any node pair collides with the pole-merge
    curve |xi1| = (xi1^2 + xi2^2)^{1/4}; raise if the jitter does not clear it."""

    def collides(X1):
        for i0 in range(0, len(X1), 256):
            a = np.abs(X1[i0:i0 + 256, None])
            s = (X1[i0:i0 + 256, None] ** 2 + X2[None, :] ** 2) ** 0.25
            if np.any(np.abs(a - s) < tol):
                return True
        return False

    if not collides(X1):
        return X1
    X1j = X1 + 1e-6
    if collides(X1j):
        raise PoleCollision("quadrature node on the pole-merge curve after jitter")
    return X1j
