"""Local canonical frames and leading-order contribution terms.

Each contributing point gets a frame: local coordinates w in which the phase
is G* + (linear in the singular w's) + (quadratic in the free w's), with
normalizers alpha, quadratic coefficients beta, and Jacobian J = det d(xi)/d(w).
The contribution of the point is then a closed-form term A * Lambda^p *
exp(i*Lambda*G*), with A built from the universal one-dimensional factor I(mu)
and the frame scalars.

Frames are constructed with positive orientation (J > 0) by flipping one of
the free axes when needed; the term formulas are linear in J, so this is a
pure normalization and it is what matches the quadrature oracles.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import gamma as _euler_gamma
from typing import Optional

import numpy as np

from . import detect
from .core import AmplitudeSpec, PhaseSpec, ProblemSpec, SingularityComponent
from .detect import PointKind, SpecialPoint, Indeterminate

__all__ = [
    "UnsupportedExponent",
    "MissingVerdict",
    "DegenerateRestrictedHessian",
    "DegenerateCurvature",
    "DegenerateConfiguration",
    "LocalFrame",
    "AsymptoticTerm",
    "gamma_factor",
    "local_frame_interior",
    "local_frame_single",
    "local_frame_double",
    "local_frame_cone",
    "local_coefficient",
    "term_sp_interior",
    "term_sp_surface",
    "term_sp_crossing",
    "term_triple",
    "term_cone",
    "term_for_point",
    "expand",
    "evaluate",
    "sum_asymptotics",
]


class UnsupportedExponent(Exception):
    pass


class MissingVerdict(Exception):
    pass


class DegenerateRestrictedHessian(Exception):
    pass


class DegenerateCurvature(Exception):
    pass


class DegenerateConfiguration(Exception):
    pass


def gamma_factor(mu: float) -> complex:
    """The universal 1D contour factor I(mu) = int w^mu e^{iw} dw over the
    indented-below real line; 2*pi*i for a simple pole, a Gamma-function
    expression for branch exponents."""
    if mu == -1:
        return 2j * np.pi
    if float(mu) == int(mu):
        raise UnsupportedExponent(f"integer exponent {mu} != -1")
    return (np.exp(1j * np.pi * (mu + 1) / 2)
            * (1 - np.exp(-2j * np.pi * mu))
            * _euler_gamma(1 + mu))


@dataclass(frozen=True)
class LocalFrame:
    kind: PointKind
    location: np.ndarray
    components: tuple[str, ...]
    alphas: tuple[float, ...]
    betas: tuple[float, ...]
    jacobian: float
    axes: np.ndarray            # rows = grad(w_n) at the point
    phase0: float
    cone_sign: float = 1.0      # s with s*g ~ w1^2+w2^2-w3^2 (conical only)


@dataclass(frozen=True)
class AsymptoticTerm:
    coeff: complex
    power: float
    phase0: float
    source: Optional[SpecialPoint] = None

    def value(self, lam: float) -> complex:
        return self.coeff * lam ** self.power * np.exp(1j * lam * self.phase0)


def _phase0(phase: PhaseSpec, x) -> float:
    return float(np.real(phase.G(x)))


def local_frame_interior(phase: PhaseSpec, sp: SpecialPoint) -> LocalFrame:
    x = sp.location
    H = np.real(phase.G.hess(x)).astype(float)
    lam, Q = np.linalg.eigh(H)
    order = np.argsort(-lam)
    lam, Q = lam[order], Q[:, order]
    W = Q.T
    if np.linalg.det(W) < 0:
        W = W.copy()
        W[2] *= -1.0
    return LocalFrame(PointKind.SP_INTERIOR, x, (), (), tuple(lam), 1.0, W,
                      _phase0(phase, x))


def local_frame_single(comp: SingularityComponent, phase: PhaseSpec,
                       sp: SpecialPoint) -> LocalFrame:
    """Frame at a stationary point on a single surface: w1 = alpha*g, and an
    orthonormal tangent pair diagonalizing the curvature-corrected Hessian."""
    if not sp.alphas:
        raise MissingVerdict("surface point has no stored alpha")
    x, a = sp.location, sp.alphas[0]
    M, P = detect.restricted_hessian(comp, phase.G, x, a)
    if abs(np.linalg.det(M)) <= 1e-10:
        raise DegenerateRestrictedHessian(f"restricted Hessian singular at {x}")
    lam, V = np.linalg.eigh(M)
    order = np.argsort(-lam)
    lam, V = lam[order], V[:, order]
    T = (P @ V).T                      # rows t2, t3
    n1 = a * np.real(comp.g.grad(x)).astype(float)
    W = np.vstack([n1, T])
    d = np.linalg.det(W)
    if d < 0:
        W[2] *= -1.0
        T = W[1:]
        d = -d
    return LocalFrame(PointKind.SP_ON_SURFACE, x, (comp.label,), (a,),
                      tuple(lam), 1.0 / d, W, _phase0(phase, x))


def local_frame_double(compA: SingularityComponent, compB: SingularityComponent,
                       phase: PhaseSpec, sp: SpecialPoint) -> LocalFrame:
    """Frame at a stationary point on a crossing curve: w1 = a1*gA, w2 = a2*gB,
    w3 = arclength along the curve."""
    if len(sp.alphas) != 2:
        raise MissingVerdict("crossing point has no stored alphas")
    x = sp.location
    a1, a2 = sp.alphas
    t = detect.crossing_tangent(compA, compB, x)
    beta = detect.crossing_curvature(compA, compB, phase.G, x, a1, a2)
    if abs(beta) <= 1e-6:
        raise DegenerateCurvature(f"curve curvature ~ 0 at {x} (merge regime)")
    W = np.vstack([a1 * np.real(compA.g.grad(x)).astype(float),
                   a2 * np.real(compB.g.grad(x)).astype(float),
                   t])
    d = np.linalg.det(W)
    if d < 0:
        W[2] *= -1.0
        d = -d
    return LocalFrame(PointKind.SP_ON_CROSSING, x,
                      (compA.label, compB.label), (a1, a2), (beta,),
                      1.0 / d, W, _phase0(phase, x))


def local_frame_cone(comp: SingularityComponent, phase: PhaseSpec,
                     sp: SpecialPoint, shift_eta=None) -> LocalFrame:
    x = sp.location
    eta = np.zeros(3) if shift_eta is None else np.asarray(shift_eta, float)
    W, J, s, eps, al = detect.cone_vectors(comp, phase.G, eta, x)
    return LocalFrame(PointKind.CONICAL, x, (comp.label,),
                      tuple(float(v) for v in al), (), J, W,
                      _phase0(phase, x), cone_sign=s)


def local_coefficient(amplitude: AmplitudeSpec, involved: tuple[str, ...],
                      alphas: tuple[float, ...], x) -> complex:
    """Local amplitude coefficient C in w-coordinates.

    With w_k = alpha_k * g_k for the involved factors, g^mu = alpha^{-mu} w^mu,
    so C = N(x) * prod(uninvolved g^mu) * prod(alpha^{-mu})."""
    C = complex(amplitude.smooth_factor(x))
    it = dict(zip(involved, alphas))
    for c in amplitude.components:
        if c.label in it:
            C *= complex(it[c.label]) ** (-c.mu)
        else:
            C *= complex(c.g(x)) ** c.mu
    return C


def term_sp_interior(frame: LocalFrame,
                     amplitude: AmplitudeSpec) -> AsymptoticTerm:
    b1, b2, b3 = frame.betas
    F0 = amplitude.value(frame.location)
    if F0 == 0:
        warnings.warn("amplitude vanishes at interior stationary point")
    A = (F0 * np.exp(1j * np.pi / 4 * (np.sign(b1) + np.sign(b2) + np.sign(b3)))
         * (2 * np.pi) ** 1.5 * frame.jacobian / np.sqrt(abs(b1 * b2 * b3)))
    return AsymptoticTerm(A, -1.5, frame.phase0)


def term_sp_surface(frame: LocalFrame, amplitude: AmplitudeSpec,
                    mu: float) -> AsymptoticTerm:
    b2, b3 = frame.betas
    C = local_coefficient(amplitude, frame.components, frame.alphas,
                          frame.location)
    A = (C * gamma_factor(mu)
         * np.exp(1j * np.pi / 4 * (np.sign(b2) + np.sign(b3)))
         * 2 * np.pi * frame.jacobian / np.sqrt(abs(b2 * b3)))
    return AsymptoticTerm(A, -mu - 2, frame.phase0)


def term_sp_crossing(frame: LocalFrame, amplitude: AmplitudeSpec,
                     mu1: float, mu2: float) -> AsymptoticTerm:
    (beta,) = frame.betas
    C = local_coefficient(amplitude, frame.components, frame.alphas,
                          frame.location)
    A = (C * gamma_factor(mu1) * gamma_factor(mu2)
         * np.exp(1j * np.pi / 4 * np.sign(beta))
         * np.sqrt(2 * np.pi) * frame.jacobian / np.sqrt(abs(beta)))
    return AsymptoticTerm(A, -mu1 - mu2 - 2.5, frame.phase0)


def term_triple(frame: LocalFrame, amplitude: AmplitudeSpec,
                mus: tuple[float, float, float]) -> AsymptoticTerm:
    C = local_coefficient(amplitude, frame.components, frame.alphas,
                          frame.location)
    A = C * np.prod([gamma_factor(m) for m in mus]) * frame.jacobian
    return AsymptoticTerm(A, -sum(mus) - 3, frame.phase0)


def term_cone(frame: LocalFrame,
              amplitude: AmplitudeSpec) -> Optional[AsymptoticTerm]:
    """Contribution of a conical point of a simple-pole quadric; returns None
    when grad(G) lies outside the dual cone (no contribution)."""
    a1, a2, a3 = frame.alphas
    disc = a3 * a3 - a1 * a1 - a2 * a2
    if abs(disc) <= 1e-9:
        raise Indeterminate("grad(G) within tolerance of the dual cone boundary")
    if disc < 0:
        return None
    # C from F = N/g = cone_sign * N / (w1^2+w2^2-w3^2), other factors at x
    C = frame.cone_sign * complex(amplitude.smooth_factor(frame.location))
    for c in amplitude.components:
        if c.label not in frame.components:
            C *= complex(c.g(frame.location)) ** c.mu
    A = 4 * C * np.pi ** 2 * frame.jacobian / np.sqrt(disc)
    return AsymptoticTerm(A, -1.0, frame.phase0)


def _components_of(problem: ProblemSpec, labels):
    by = {c.label: c for c in problem.amplitude.components}
    return [by[l] for l in labels]


def term_for_point(problem: ProblemSpec,
                   sp: SpecialPoint) -> Optional[AsymptoticTerm]:
    """Build the frame and emit the term for one contributing point."""
    phase, amp = problem.phase, problem.amplitude
    if sp.kind is PointKind.SP_INTERIOR:
        t = term_sp_interior(local_frame_interior(phase, sp), amp)
    elif sp.kind is PointKind.SP_ON_SURFACE:
        (c,) = _components_of(problem, sp.components)
        t = term_sp_surface(local_frame_single(c, phase, sp), amp, c.mu)
    elif sp.kind is PointKind.SP_ON_CROSSING:
        cA, cB = _components_of(problem, sp.components)
        t = term_sp_crossing(local_frame_double(cA, cB, phase, sp), amp,
                             cA.mu, cB.mu)
    elif sp.kind is PointKind.TRIPLE_CROSSING:
        cs = _components_of(problem, sp.components)
        frame = LocalFrame(sp.kind, sp.location, tuple(sp.components),
                           tuple(sp.alphas), (),
                           _triple_jacobian(cs, sp), None,
                           _phase0(phase, sp.location))
        t = term_triple(frame, amp, tuple(c.mu for c in cs))
    elif sp.kind is PointKind.CONICAL:
        (c,) = _components_of(problem, sp.components)
        frame = local_frame_cone(c, phase, sp, problem.shift.eta)
        t = term_cone(frame, amp)
        if t is None:
            return None
    else:
        return None
    return AsymptoticTerm(t.coeff, t.power, t.phase0, source=sp)


def _triple_jacobian(comps, sp: SpecialPoint) -> float:
    W = np.array([a * np.real(c.g.grad(sp.location)).astype(float)
                  for a, c in zip(sp.alphas, comps)])
    return 1.0 / abs(np.linalg.det(W))


def expand(problem: ProblemSpec, points=None) -> list[AsymptoticTerm]:
    """The leading-order terms of every contributing point; they do not
    depend on Lambda.  `points` defaults to a fresh detection pass."""
    if points is None:
        points = detect.detect_all(problem)
    bad = [p for p in points if p.contributes and p.flagged("NEAR_DEGENERATE")]
    if bad:
        raise DegenerateConfiguration(
            f"{len(bad)} contributing point(s) in the merge regime: "
            + ", ".join(str(p.location) for p in bad))
    terms = []
    for sp in points:
        if not sp.contributes:
            continue
        t = term_for_point(problem, sp)
        if t is not None:
            terms.append(t)
    return terms


def evaluate(terms, lam: float, prefactor: complex = 1.0,
             real_field: bool = False):
    """prefactor * sum of the terms at Lambda.  With real_field=True the
    terms are one of each +-xi* pair (Hermitian symmetry) and the value is
    2*Re(prefactor * sum)."""
    total = prefactor * sum((t.value(lam) for t in terms), 0j)
    if real_field:
        return 2 * float(np.real(total))
    return total


def sum_asymptotics(problem: ProblemSpec, lam: float, points=None):
    """`expand` then `evaluate` at one Lambda; returns (value, terms)."""
    terms = expand(problem, points)
    return evaluate(terms, lam, problem.prefactor), terms
