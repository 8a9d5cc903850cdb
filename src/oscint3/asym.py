"""Leading-order contribution terms of special points.

`detect.judge` gives every special point its normalizers alpha and a frame
(`detect.LocalFrame`): local coordinates w in which the phase is G* +
(linear in the singular w's) + (quadratic in the free w's), with quadratic
coefficients beta and Jacobian J = |det d(xi)/d(w)|.  This module turns a
point and the amplitude into a closed-form term A * Lambda^p *
exp(i*Lambda*G*).

At every special point except a conical one the integral factorizes over the
frame's axes.  A stationary point in the domain has m = 0 singular
directions, one on a surface m = 1, one on a crossing curve m = 2 and a
triple crossing m = 3.  Each singular direction w_k = alpha_k * g_k gives the
universal one-dimensional factor I(mu_k) * alpha_k^(-mu_k) * Lambda^-(mu_k+1),
and each of the 3 - m free directions gives the Fresnel factor
sqrt(2*pi/|beta|) * exp(i*pi/4*sign(beta)) * Lambda^(-1/2).  So

    A = N(x) * prod(uninvolved g^mu) * prod_k I(mu_k) alpha_k^(-mu_k) * J
        * prod_free sqrt(2*pi/|beta|) exp(i*pi/4*sign(beta)),
    p = -sum_k (mu_k + 1) - (3 - m)/2.

A conical point has its own formula (`term_cone`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import gamma as _euler_gamma
from typing import Optional

import numpy as np

from . import detect
from .core import AmplitudeSpec, NumericFailure, ProblemSpec
from .detect import PointKind, SpecialPoint

__all__ = [
    "UnsupportedExponent",
    "DegenerateConfiguration",
    "AsymptoticTerm",
    "gamma_factor",
    "local_coefficient",
    "term_from_frame",
    "term_cone",
    "term_for_point",
    "expand",
    "evaluate",
]


class UnsupportedExponent(NumericFailure):
    pass


class DegenerateConfiguration(NumericFailure):
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
class AsymptoticTerm:
    """coeff * Lambda^power * exp(i*Lambda*phase0).  coeff and phase0 may be
    arrays of one shape (one term over many samples); value has that shape."""
    coeff: complex
    power: float
    phase0: float
    source: Optional[SpecialPoint] = None

    def value(self, lam: float) -> complex:
        # ufuncs, not operators: scalar operators and SIMD loops differ in the last bit
        return np.multiply(np.multiply(self.coeff, lam ** self.power),
                           np.exp(np.multiply(1j * lam, self.phase0)))


def local_coefficient(amplitude: AmplitudeSpec, involved: tuple[str, ...],
                      alphas: tuple[float, ...], x, eta) -> complex:
    """Local amplitude coefficient C in w-coordinates.

    With w_k = alpha_k * g_k for the involved factors, g^mu = alpha^{-mu} w^mu,
    so C = N(x) * prod(uninvolved g^mu) * prod(alpha^{-mu}).  The w contour
    passes below w = 0, so for alpha < 0 the g contour passes above g = 0
    and alpha^{-mu} is |alpha|^{-mu} e^{i*pi*mu}, not the principal power.
    An uninvolved g^mu is the principal power unless g(x) < 0 and the
    contour, shifted by eta, passes below the cut (eta . grad g < 0): then
    it is |g|^mu e^{-i*pi*mu}."""
    C = complex(amplitude.smooth_factor(x))
    it = dict(zip(involved, alphas))
    for c in amplitude.components:
        if c.label in it:
            a = it[c.label]
            C *= (complex(a) ** (-c.mu) if a > 0 or c.mu == -1
                  else abs(a) ** (-c.mu) * np.exp(1j * np.pi * c.mu))
        else:
            g = complex(c.g(x))
            below = (c.mu != -1 and g.real < 0
                     and np.dot(eta, c.g.grad(x)).real < 0)
            C *= abs(g) ** c.mu * np.exp(-1j * np.pi * c.mu) if below else g ** c.mu
    return C


def term_from_frame(sp: SpecialPoint, amplitude: AmplitudeSpec,
                    mus, eta) -> AsymptoticTerm:
    """The product-formula term of a non-conical point with m = len(mus)
    singular directions and the 3 - m free directions of `sp.frame.betas`."""
    m, frame = len(mus), sp.frame
    A = local_coefficient(amplitude, sp.components, sp.alphas, sp.location, eta)
    for mu in mus:
        A = A * gamma_factor(mu)
    # prod over the free directions of sqrt(2*pi/|beta|) * exp(i*pi/4*sign(beta)),
    # taken as one phase, one power of 2*pi and one root
    A = (A * np.exp(1j * np.pi / 4 * np.sum(np.sign(frame.betas)))
         * (2 * np.pi) ** ((3 - m) / 2) * frame.jacobian
         / np.sqrt(abs(np.prod(frame.betas))))
    # -sum(mu_k + 1) - (3 - m)/2, summed so that integer powers come out exact
    return AsymptoticTerm(A, -sum(mus) - m - (3 - m) / 2, frame.phase0)


def term_cone(sp: SpecialPoint, amplitude: AmplitudeSpec, eta) -> AsymptoticTerm:
    """Contribution of a conical point of a simple-pole quadric whose
    grad(G) lies inside the dual cone (the verdict `detect.detect_all`
    attaches checks that)."""
    frame = sp.frame
    a1, a2, a3 = frame.grad_w
    disc = a3 * a3 - a1 * a1 - a2 * a2
    # C from F = N/g = cone_sign * N / (w1^2+w2^2-w3^2), other factors at x
    C = frame.cone_sign * local_coefficient(amplitude, sp.components, (1.0,),
                                            sp.location, eta)
    A = 4 * C * np.pi ** 2 * frame.jacobian / np.sqrt(disc)
    return AsymptoticTerm(A, -1.0, frame.phase0)


def term_for_point(problem: ProblemSpec, sp: SpecialPoint) -> AsymptoticTerm:
    """The term of one contributing point, from the frame `detect.judge`
    built; a `near_degenerate` point has none, nor has a conical point of a
    branch power (mu != -1)."""
    if sp.near_degenerate:
        raise DegenerateConfiguration(f"restricted Hessian singular at {sp.location}")
    mu = {c.label: c.mu for c in problem.amplitude.components}
    if sp.kind is PointKind.CONICAL:
        if mu[sp.components[0]] != -1:    # term_cone is a simple pole's
            raise UnsupportedExponent(
                f"conical point with mu = {mu[sp.components[0]]} != -1")
        t = term_cone(sp, problem.amplitude, problem.eta)
    else:
        t = term_from_frame(sp, problem.amplitude,
                            tuple(mu[lab] for lab in sp.components), problem.eta)
    return replace(t, source=sp)


def expand(problem: ProblemSpec, points=None) -> list[AsymptoticTerm]:
    """The leading-order terms of every contributing point; they do not
    depend on Lambda.  `points` defaults to a fresh detection pass."""
    if points is None:
        points = detect.detect_all(problem)
    return [term_for_point(problem, sp) for sp in points if sp.contributes]


def evaluate(terms, lam: float, prefactor: complex = 1.0,
             real_field: bool = False):
    """prefactor * sum of the terms at Lambda.  With real_field=True the
    terms are one of each +-xi* pair (Hermitian symmetry) and the value is
    2*Re(prefactor * sum).  Coefficients and phases may be arrays of one
    shape; the value then has that shape."""
    total = np.multiply(prefactor, sum((t.value(lam) for t in terms), 0j))
    if real_field:
        return 2 * np.real(total)
    return total

