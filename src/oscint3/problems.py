"""Registry of shipped problems and their independent reference evaluators.

Five canonical problems exercise one special-point kind each, plus the
ship-wake problem:

* gaussian-sp    : interior stationary point, closed-form Gaussian reference
* pole-sp        : stationary point on a single pole plane, factorized 1D oracle
* double-cross   : stationary point on a crossing line of two pole planes
* triple-cross   : triple crossing of three pole planes
* cone           : conical point of a quadric pole, 3D tensor-rule oracle
* kelvin         : ship wake, residue oracle

The factorized oracles integrate each separated 1D factor with the adaptive
contour routine, so they are independent of the closed-form terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import asym, oracle
from . import kelvin as kelvin_mod
from .core import (
    AmplitudeSpec,
    Box3,
    ProblemSpec,
    SingularityComponent,
    gaussian_field,
    quadratic_field,
)

__all__ = [
    "ProblemEntry",
    "DEFAULT_Z",
    "REGISTRY",
    "get_problem",
]


@dataclass(frozen=True)
class ProblemEntry:
    """One shipped problem and the hooks every run mode goes through; its
    name is its key in `REGISTRY`.

    `build(z)` assembles the problem at the run's observation point and time
    z = (z1, z2, tau); the canonical problems do not depend on z and ignore
    it.  `terms(problem)` returns the leading-order terms, which do not
    depend on Lambda.  With `real_field` they are one of each conjugate pair
    and the field is 2*Re(prefactor * sum).  `reference(problem, lam,
    spec=None)` is the independent value, the one the CLI writes: for Kelvin
    the real field.  Only the quadrature references (cone, kelvin) carry a
    `default_quad`; they take their nodes from `spec`, default
    `default_quad`.  The other references are closed-form or factorized:
    they ignore `spec`, and their `default_quad` is None.
    """

    build: Callable[[tuple[float, float, float]], ProblemSpec]
    reference: Callable[..., complex]
    default_quad: Optional[oracle.QuadratureSpec] = None
    terms: Callable[[ProblemSpec], list[asym.AsymptoticTerm]] = asym.expand
    real_field: bool = False


def _gauss_factor(lam: float) -> complex:
    # int exp(-x^2) exp(i*lam*x^2/2) dx, principal square root
    return complex(np.sqrt(np.pi / (1 - 0.5j * lam)))


def _pole_factor(lam: float, quadratic: bool = False) -> complex:
    """int over the indented-below line of e^{-w^2} e^{i*lam*(w + [w^2/2])} / w dw."""
    if quadratic:
        f = lambda w: np.exp(-w * w + 0.5j * lam * w * w) / w
    else:
        f = lambda w: np.exp(-w * w) / w
    return oracle.quad_contour_1d(f, oracle.gamma_tilde(r=0.3, T=8.0), lam)


def _build_gaussian_sp(z) -> ProblemSpec:
    return ProblemSpec(
        AmplitudeSpec(gaussian_field()),
        quadratic_field(np.eye(3)),
        np.zeros(3),
        Box3(np.full(3, -2.0), np.full(3, 2.0)))


def _ref_gaussian_sp(problem, lam, spec=None) -> complex:
    return _gauss_factor(lam) ** 3


def _build_pole_sp(z) -> ProblemSpec:
    plane = SingularityComponent(quadratic_field(b=(1, 0, 0), c=-1.0), -1.0, "plane")
    return ProblemSpec(
        AmplitudeSpec(gaussian_field((1.0, 0.0, 0.0)), (plane,)),
        quadratic_field(np.diag([0.0, 1.0, 1.0]), (1, 0, 0)),
        np.array([-0.15, 0.0, 0.0]),
        Box3(np.array([0.0, -1.5, -1.5]), np.array([2.0, 1.5, 1.5])))


def _ref_pole_sp(problem, lam, spec=None) -> complex:
    return np.exp(1j * lam) * _pole_factor(lam) * _gauss_factor(lam) ** 2


def _build_double_cross(z) -> ProblemSpec:
    pA = SingularityComponent(quadratic_field(b=(1, 0, 0)), -1.0, "pA")
    pB = SingularityComponent(quadratic_field(b=(0, 1, 0)), -1.0, "pB")
    return ProblemSpec(
        AmplitudeSpec(gaussian_field(), (pA, pB)),
        quadratic_field(np.diag([0.0, 0.0, 1.0]), (1, 1, 0)),
        np.array([-0.15, -0.15, 0.0]),
        Box3(np.full(3, -1.5), np.full(3, 1.5)))


def _ref_double_cross(problem, lam, spec=None) -> complex:
    return _pole_factor(lam) ** 2 * _gauss_factor(lam)


def _build_triple_cross(z) -> ProblemSpec:
    comps = tuple(
        SingularityComponent(quadratic_field(b=np.eye(3)[k]), -1.0, f"p{k+1}")
        for k in range(3))
    # the quadratic part keeps the triple point strictly non-stationary on the
    # crossing lines; G is stationary at -1 along each axis, so the box leaves
    # out seven contributing points (one interior, three on a surface, three
    # on a crossing line) and the one-term sum has an error of order about
    # Lambda^(-1/2), the crossing points' order
    return ProblemSpec(
        AmplitudeSpec(gaussian_field(), comps),
        quadratic_field(np.eye(3), (1, 1, 1)),
        np.array([-0.15, -0.15, -0.15]),
        Box3(np.full(3, -0.6), np.full(3, 0.8)))


def _ref_triple_cross(problem, lam, spec=None) -> complex:
    return _pole_factor(lam, quadratic=True) ** 3


def _build_cone(z) -> ProblemSpec:
    cone = SingularityComponent(quadratic_field(np.diag([2.0, 2.0, -2.0])),
                                -1.0, "cone")
    return ProblemSpec(
        AmplitudeSpec(gaussian_field(), (cone,)),
        quadratic_field(b=(0.3, 0.0, 1.0)),
        np.array([0.0, 0.0, -0.25]),
        Box3(np.full(3, -1.0), np.full(3, 1.0)))


_CONE_QUAD = oracle.QuadratureSpec(R=3.0, n=384)


def _ref_cone(problem, lam, spec=None) -> complex:
    val, _ = oracle.quad_deformed_3d(problem, lam, spec or _CONE_QUAD)
    return val


def _ref_kelvin(problem, lam, spec=None) -> float:
    return oracle.kelvin_oracle(*problem.z, lam, spec)


def _terms_kelvin(problem) -> list[asym.AsymptoticTerm]:
    return kelvin_mod.wake_terms(kelvin_mod.KelvinParams(*problem.z))


DEFAULT_Z = (2.0, 2.0, 10.0)   # the CLI's z = (z1, z2, tau) when none is given

REGISTRY: dict[str, ProblemEntry] = {
    "gaussian-sp": ProblemEntry(_build_gaussian_sp, _ref_gaussian_sp),
    "pole-sp": ProblemEntry(_build_pole_sp, _ref_pole_sp),
    "double-cross": ProblemEntry(_build_double_cross, _ref_double_cross),
    "triple-cross": ProblemEntry(_build_triple_cross, _ref_triple_cross),
    "cone": ProblemEntry(_build_cone, _ref_cone, _CONE_QUAD),
    "kelvin": ProblemEntry(lambda z: kelvin_mod.kelvin_problem(*z), _ref_kelvin,
                           oracle.KELVIN_QUAD, terms=_terms_kelvin,
                           real_field=True),
}


def get_problem(name: str) -> tuple[ProblemSpec, ProblemEntry]:
    """The problem `name`, built at the CLI's default z, and its entry."""
    if name not in REGISTRY:
        raise KeyError(f"unknown problem {name!r}; known: {sorted(REGISTRY)}")
    entry = REGISTRY[name]
    return entry.build(DEFAULT_Z), entry
