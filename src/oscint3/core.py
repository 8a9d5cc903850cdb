"""Foundational types for oscillatory integrals over shifted copies of R^3.

The integrals treated here have the form

    u(Lambda) = pref * int_Gamma F(xi) exp(i*Lambda*G(xi)) dxi,

where xi ranges over a slightly complexified copy of R^3 (Gamma = R^3 + i*eta),
the amplitude F factors as N(xi) * prod_j g_j(xi)^mu_j with analytic g_j, and
G is the phase.  `ProblemSpec` holds F, G and eta side by side with the
search box and prefactor.  Everything downstream (detection of contributing
points, the closed-form leading terms, the quadrature oracles) consumes the
types defined in this module.

Points are numpy arrays of shape (..., 3): a single point is (3,), a stack of
points carries its leading axes through every field evaluation.  Fields are
triples of callables (value, gradient, hessian) bundled in
:class:`ScalarField3`; `quadratic_field` and `gaussian_field` build every
polynomial and Gaussian field of the shipped problems, Kelvin's included.
A field may also declare how it splits over the coordinates
(:class:`AxisSplit`), which the tensor-product oracle uses to factor its
rule; evaluation never reads the declaration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "NumericFailure",
    "TangentialShift",
    "AxisSplit",
    "ScalarField3",
    "gaussian_field",
    "quadratic_field",
    "SingularityComponent",
    "AmplitudeSpec",
    "Box3",
    "ProblemSpec",
]

# Membership / tangency tolerances; all shipped problems are O(1)-scaled.
# Detection puts a point on {g = 0} when |g| <= SURFACE_TOL, and finds eta
# tangent to it when |eta.grad(g)| <= TANGENCY_RTOL * |eta| * |grad(g)|.
SURFACE_TOL = 1e-10
TANGENCY_RTOL = 1e-12


class NumericFailure(Exception):
    """Base of the package's numeric failures: inputs for which a routine
    cannot give a value it trusts.  The CLI exits with code 3 on one."""


class TangentialShift(NumericFailure):
    """The shift eta is (numerically) tangent to a singularity surface."""


def as_point(x) -> np.ndarray:
    """Coerce to a (3,) array, rejecting non-finite components."""
    p = np.asarray(x)
    if p.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {p.shape}")
    if not np.all(np.isfinite(p.view(float) if p.dtype.kind == "c" else p)):
        raise ValueError("non-finite point component")
    return p


@dataclass(frozen=True)
class AxisSplit:
    """A field that is a sum (op "sum") or a product (op "product") of
    one-variable parts, value(xi) = parts[0](xi[..., 0]) op parts[1](xi[...,
    1]) op parts[2](xi[..., 2]).  A part maps a 1D array of (complex)
    coordinates to the part's values; None is an absent part, 0 in a sum
    and 1 in a product."""

    op: str
    parts: tuple[Optional[Callable[[np.ndarray], np.ndarray]], ...]

    def __post_init__(self):
        if self.op not in ("sum", "product") or len(self.parts) != 3:
            raise ValueError("an AxisSplit is a sum or a product of three parts")

    def present(self) -> list[int]:
        """The axes whose part is not absent."""
        return [k for k, part in enumerate(self.parts) if part is not None]


@dataclass(frozen=True)
class ScalarField3:
    """An analytic scalar function of three (complex) variables.

    Parameters
    ----------
    value, gradient, hessian : callables
        Closed-form evaluators of real or complex (..., 3) input: `value`
        returns shape (...), `gradient` (..., 3) and `hessian` the symmetric
        (..., 3, 3) stack; a point in a stack should get the bits it gets alone.
    split : AxisSplit, optional
        How the value splits over the coordinates, when it is a sum or a
        product of one-variable parts; None when it is neither or when the
        field does not say.  Only `quad_deformed_3d` reads it.
    """

    value: Callable[[np.ndarray], complex]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    split: Optional[AxisSplit] = None

    def __call__(self, xi) -> complex:
        return self.value(np.asarray(xi))

    def grad(self, xi) -> np.ndarray:
        return np.asarray(self.gradient(np.asarray(xi)))

    def hess(self, xi) -> np.ndarray:
        return np.asarray(self.hessian(np.asarray(xi)))


def gaussian_field(center=(0.0, 0.0, 0.0)) -> ScalarField3:
    """exp(-|xi - c|^2), broadcasting over (..., 3) input.  The value writes
    |d|^2 out as d0*d0 + d1*d1 + d2*d2: the same bits as `np.sum` over the
    length-3 axis, which adds left to right, for less work.  The field
    declares the product split with parts exp(-(t - c_k)^2)."""
    c = np.asarray(center, dtype=float)

    def value(xi):
        d = xi - c
        d0, d1, d2 = d[..., 0], d[..., 1], d[..., 2]
        return np.exp(-(d0 * d0 + d1 * d1 + d2 * d2))

    def grad(xi):
        return -2.0 * (xi - c) * value(xi)[..., None]

    def hess(xi):
        d = xi - c
        return ((4.0 * d[..., :, None] * d[..., None, :] - 2.0 * np.eye(3))
                * value(xi)[..., None, None])

    def part(ck):
        def f(t):
            d = t - ck
            return np.exp(-(d * d))
        return f

    return ScalarField3(value, grad, hess,
                        AxisSplit("product", tuple(part(ck) for ck in c)))


def quadratic_field(A=None, b=(0.0, 0.0, 0.0), c: float = 0.0) -> ScalarField3:
    """(1/2) xi.A.xi + b.xi + c with constant A; covers every shipped g and
    G except Kelvin's dispersion cone, and Kelvin's N.  The value and the
    gradient are written out elementwise, so a stack and one point get the
    same bits at any A and b (`xi @ A.T + b` and `xi @ b` would not): both
    are sums over A's nonzero entries, listed once here.  A is stored as
    (A + A^T)/2, which leaves the value as it is and makes the gradient and
    Hessian right for any A.  When that A is diagonal the field declares the
    sum split with parts (1/2) A_kk t^2 + b_k t, with c added to the first
    part whose A_kk or b_k is nonzero (part 0 when there is none); every
    other part with A_kk = b_k = 0 is absent.  Any other A declares
    nothing."""
    A = np.zeros((3, 3)) if A is None else np.asarray(A, dtype=float)
    A = (A + A.T) / 2
    b = np.asarray(b, dtype=float)
    quad = [(int(i), int(j), 0.5 * A[i, j]) for i, j in zip(*np.nonzero(A))]

    def value(xi):
        q = sum((a * xi[..., i] * xi[..., j] for i, j, a in quad), 0.0)
        return q + (xi[..., 0] * b[0] + xi[..., 1] * b[1] + xi[..., 2] * b[2]) + c

    def grad(xi):
        g = np.empty(xi.shape, dtype=np.result_type(xi, b))
        g[...] = b
        for i, j, a in quad:
            g[..., i] += 2 * a * xi[..., j]
        return g

    return ScalarField3(value, grad, lambda xi: np.broadcast_to(A, xi.shape + (3,)),
                        _diagonal_split(A, b, c))


def _diagonal_split(A: np.ndarray, b: np.ndarray, c: float) -> Optional[AxisSplit]:
    """The sum split of (1/2) xi.A.xi + b.xi + c, or None unless A is diagonal."""
    if np.any(A != np.diag(np.diag(A))):
        return None
    keep = [A[k, k] != 0 or b[k] != 0 for k in range(3)]
    home = keep.index(True) if any(keep) else 0     # the part that carries c

    def part(a, bk, ck):
        return lambda t: a * t * t + bk * t + ck

    return AxisSplit("sum", tuple(
        part(0.5 * A[k, k], b[k], c if k == home else 0.0)
        if keep[k] or k == home else None for k in range(3)))


@dataclass(frozen=True)
class SingularityComponent:
    """One factor g^mu of the amplitude; sigma = {g = 0} is where F blows up.

    g is real at real points, where only its real part is read.  mu must be
    -1 (simple pole) or non-integer (branch power); other integer powers are
    either regular or reducible and are not admitted.
    """

    g: ScalarField3
    mu: float
    label: str

    def __post_init__(self):
        mu = self.mu
        if mu != -1 and float(mu) == int(mu):
            raise ValueError(f"component {self.label!r}: mu must be -1 or non-integer, got {mu}")


@dataclass(frozen=True)
class AmplitudeSpec:
    """Factored amplitude F(xi) = N(xi) * prod_j g_j(xi)^mu_j.  A point names
    its factors by label, so the labels must be distinct."""

    smooth_factor: ScalarField3
    components: tuple[SingularityComponent, ...] = ()

    def __post_init__(self):
        labels = [c.label for c in self.components]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate component labels in {labels}")

    def value_vec(self, xi: np.ndarray):
        """Evaluate F away from the singularities (principal branch powers),
        vectorized over (..., 3) input; evaluators broadcast."""
        out = self.smooth_factor.value(xi) + 0j
        for c in self.components:
            gv = c.g.value(xi)
            if c.mu == -1:
                out = out / gv
            else:
                out = out * np.power(gv, c.mu)
        return out


@dataclass(frozen=True)
class Box3:
    """Axis-aligned search box, optionally with a small excluded ball."""

    lo: np.ndarray
    hi: np.ndarray
    excluded_center: Optional[np.ndarray] = None
    excluded_radius: float = 0.0

    def __post_init__(self):
        lo = as_point(self.lo).astype(float)
        hi = as_point(self.hi).astype(float)
        if np.any(hi <= lo):
            raise ValueError("empty search box")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if self.excluded_center is not None:
            object.__setattr__(self, "excluded_center",
                               as_point(self.excluded_center).astype(float))

    def contains(self, p, margin: float = 0.0):
        """Membership of (..., 3) points, as a bool array of shape (...)."""
        p = np.asarray(p, dtype=float)
        inside = np.all((p >= self.lo - margin) & (p <= self.hi + margin), axis=-1)
        if self.excluded_center is not None:
            inside &= (np.linalg.norm(p - self.excluded_center, axis=-1)
                       >= self.excluded_radius)
        return inside

    def grid(self, n: int) -> np.ndarray:
        """Uniform n^3 seed grid (interior nodes), excluded ball removed."""
        axes = [np.linspace(self.lo[k], self.hi[k], n + 2)[1:-1] for k in range(3)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        return pts[self.contains(pts)]


@dataclass(frozen=True)
class ProblemSpec:
    """One integral pref * int_Gamma F exp(i*Lambda*G) dxi, Gamma = R^3 + i*eta.

    G has its parameters z already bound; z stays for the closed forms that
    need them.  eta must be a finite 3-vector (`replace` checks it too)."""

    amplitude: AmplitudeSpec
    G: ScalarField3
    eta: np.ndarray
    search_region: Box3
    prefactor: complex = 1.0
    z: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "eta", as_point(self.eta).astype(float))

