"""The ship-wake integral: problem construction, closed-form special-point
geometry, field synthesis, and wavefront rendering.

Integration variables are xi = (xi1, xi2, varpi) with phase
G = xi1*z1 + xi2*z2 - varpi*tau and amplitude

    F = xi1*varpi / ((varpi - xi1) * (varpi^2 - sqrt(xi1^2 + xi2^2))),

both simple poles.  The pole plane, N and G are `core.quadratic_field`s; only
the dispersion cone is written by hand.  The domain is shifted up in varpi by
i*eps.  Behind the body, stationary points of G on the curve where both pole
surfaces cross generate the two wave families confined to the wedge of
half-angle arctan(1/(2*sqrt(2))); a stationary point on the dispersion cone
generates the circular transient from the onset of motion.

The closed forms here are an independent derivation of the same frames the
generic detect/asym path produces; the test suite checks they agree.  Each
closed form and each degeneracy threshold is written once, in `_closed_forms`,
which broadcasts over samples: a single point and a grid sample take the same
array arithmetic and agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .asym import AsymptoticTerm, evaluate
from .core import (
    AmplitudeSpec,
    Box3,
    NumericFailure,
    ProblemSpec,
    ScalarField3,
    SingularityComponent,
    quadratic_field,
)

__all__ = [
    "KELVIN_PREFACTOR",
    "WEDGE_SLOPE",
    "DegenerateFamily",
    "MergeProximity",
    "KelvinParams",
    "FieldGrid",
    "kelvin_problem",
    "stationary_frequencies",
    "wedge_test",
    "kelvin_wave_terms",
    "transient_term",
    "wake_terms",
    "field_point",
    "field_map",
    "render_wavefronts",
]

KELVIN_PREFACTOR = 1j / (8 * np.pi ** 3)
WEDGE_SLOPE = 1 / (2 * np.sqrt(2))
EPS_SHIFT = 1e-3
SEARCH_RADIUS = 6.0   # least half-width of the detection box in every xi

# mask bits for FieldGrid samples
MASK_WAVE = 1        # wave-family terms active
MASK_TRANSIENT = 2   # transient term active
MASK_INVALID = 4     # excluded: z2 strip, origin, wedge margin, degenerate, merge


class DegenerateFamily(NumericFailure):
    """No wave-family term: a family near the wedge boundary (beta ~ 0, merge
    regime), or the track z2 = 0, where the diverging frequency is infinite."""


class MergeProximity(NumericFailure):
    """Transient point too close to merging with a crossing-curve point."""


@dataclass(frozen=True)
class KelvinParams:
    z1: float
    z2: float
    tau: float
    Lambda: Optional[float] = None   # the terms do not depend on it


@dataclass
class FieldGrid:
    z1_axis: np.ndarray
    z2_axis: np.ndarray
    values: np.ndarray       # real field samples, shape (n1, n2)
    mask: np.ndarray         # int bitmask per sample


def kelvin_problem(z1: float, z2: float, tau: float) -> ProblemSpec:
    """Assemble the ship-wake integral for given observation point and time."""
    z1, z2, tau = float(z1), float(z2), float(tau)
    g1 = quadratic_field(b=(-1, 0, 1))
    N = quadratic_field([[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    G = quadratic_field(b=(z1, z2, -tau))

    def rho(xi):
        return np.sqrt(xi[..., 0] ** 2 + xi[..., 1] ** 2)

    def g2_grad(xi):
        r = rho(xi)
        return np.stack([-xi[..., 0] / r, -xi[..., 1] / r, 2 * xi[..., 2]], axis=-1)

    def g2_hess(xi):
        x1, x2 = xi[..., 0], xi[..., 1]
        r3 = rho(xi) ** 3
        H = np.zeros(xi.shape + (3,), dtype=complex)
        H[..., 0, 0] = -x2 ** 2 / r3
        H[..., 1, 1] = -x1 ** 2 / r3
        H[..., 0, 1] = H[..., 1, 0] = x1 * x2 / r3
        H[..., 2, 2] = 2.0
        return H

    g2 = ScalarField3(lambda xi: xi[..., 2] ** 2 - rho(xi), g2_grad, g2_hess)
    amp = AmplitudeSpec(N, (SingularityComponent(g1, -1.0, "pole-line"),
                            SingularityComponent(g2, -1.0, "dispersion-cone")))
    # the box holds every special point, by bounds from the dispersion relation:
    # on the crossing curve (varpi = xi1 = w, |xi2| = w*sqrt(w^2 - 1))
    # stationarity gives (2w^2 - 1)/sqrt(w^2 - 1) = (tau - z1)/|z2|, at least
    # 2*sqrt(w^2 - 1), so no coordinate exceeds 1 + ((tau - z1)/(2|z2|))^2; the
    # transient lies at |xi| = (tau/(2r))^2.  Infinite bounds (z2 = 0, the
    # origin, a z2 whose square overflows) keep the least half-width.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        R = 1.25 * np.max([1 + ((tau - z1) / (2 * np.abs(z2))) ** 2,
                           (tau / (2 * np.hypot(z1, z2))) ** 2])
    R = max(SEARCH_RADIUS, R) if np.isfinite(R) else SEARCH_RADIUS
    box = Box3(np.array([-R, -R, -R]), np.array([R, R, R]),
               excluded_center=np.zeros(3), excluded_radius=0.05)
    return ProblemSpec(amp, G, np.array([0.0, 0.0, EPS_SHIFT]), box,
                       prefactor=KELVIN_PREFACTOR, z=(z1, z2, tau))


def _closed_forms(z1, z2, tau: float) -> SimpleNamespace:
    """Every closed form of the wake at samples (z1, |z2|) at time tau.

    z1, z2: float arrays of one shape S (>= 1-d); a single sample is a
    one-element array, so it takes the grid's array arithmetic.  Over S: the
    wedge test `inside`, the ray slope `lam`, the masks `degenerate` (inside
    the wedge with a family at |beta| <= 1e-6, or on the track lam = 0) and
    `merge` (transient merge gap <= 1e-3), and the transient term `tr_coeff`,
    `tr_phase`.  Over (2, *S), diverging family first: frequencies `w` (NaN
    outside the wedge), `beta`, the verdict `formed` and the term `coeff`,
    `phase`.  Off a formula's domain (z1 = tau, the origin, tau <= 0) the
    value is NaN or inf, without a warning; callers mask it.
    """
    z1, z2 = np.atleast_1d(z1, np.abs(z2))
    tau = np.float64(tau)            # 1/tau at tau = 0 is inf, not an exception
    with np.errstate(all="ignore"):
        lam = z2 / (tau - z1)
        inside = (tau - z1 > 0) & (np.abs(lam) <= WEDGE_SLOPE)
        rd = np.sqrt(np.where(inside, 1 - 8 * lam ** 2, np.nan))
        den = 2 * np.sqrt(2) * np.abs(lam)
        w = np.stack([np.sqrt(4 * lam ** 2 + 1 + rd) / den,
                      np.sqrt(4 * lam ** 2 + 1 - rd) / den])

        # frame at the crossing point with frequency w > 1; a formed trail has
        # alpha1 < 0 and alpha2*w < 0 (see kelvin_wave_terms)
        a1 = -z1 + (tau - z1) / (2 * w ** 2 - 1)
        a2 = -z2 * w / np.sqrt(w ** 2 - 1)
        beta = z2 * w * (2 * w ** 2 - 3) / (w ** 2 - 1) ** 1.5
        J = np.abs((1 / z2) / (z1 - (tau - z1) / (2 * w ** 2 - 1)))
        C0 = w * w * a1 * a2   # N = xi1*varpi = w^2 on L; alpha^{-mu} with mu=-1
        coeff = (C0 * (2j * np.pi) ** 2 * np.exp(0.25j * np.pi * np.sign(beta))
                 * np.sqrt(2 * np.pi) * J / np.sqrt(np.abs(beta)))
        phase = w ** 3 * (z1 - tau) / (2 * w ** 2 - 1)   # crest phase G*

        # transient: stationary point on the dispersion cone at varpi* = tau/(2r)
        r = np.hypot(z1, z2)
        ws = tau / (2 * r)
        phi = np.arctan2(z2, z1)
        alpha = -r
        b2 = 2 * r ** 3 / tau ** 2
        b3 = -4 * r ** 3 / tau ** 2
        Jt = 1 / tau                     # orientation-corrected Jacobian
        xi1 = ws ** 2 * np.cos(phi)
        C00 = xi1 * ws / (ws - xi1) * alpha
        tr_coeff = (C00 * 2j * np.pi
                    * np.exp(0.25j * np.pi * (np.sign(b2) + np.sign(b3)))
                    * 2 * np.pi * Jt / np.sqrt(np.abs(b2 * b3)))
        return SimpleNamespace(
            inside=inside, lam=lam, w=w, beta=beta, formed=(a1 < 0) & (a2 * w < 0),
            degenerate=inside & (np.any(np.abs(beta) <= 1e-6, axis=0) | (lam == 0)),
            merge=np.abs(2 * r - tau * z1 / r) <= 1e-3,
            coeff=coeff, phase=phase, tr_coeff=tr_coeff, tr_phase=-tau ** 2 / (4 * r))


def stationary_frequencies(lam: float) -> Optional[tuple[float, float]]:
    """The two positive stationary frequencies on L, (diverging, transverse),
    or None outside the wedge (|lam| > 1/(2*sqrt(2)))."""
    if lam == 0:
        raise ValueError("lam must be nonzero")
    w = _closed_forms(0.0, lam, 1.0).w[:, 0]   # the ray through (0, lam) at tau = 1
    return None if np.isnan(w[0]) else (w[0], w[1])


def wedge_test(z1: float, z2: float, tau: float) -> bool:
    """Inside the wave wedge: behind the body and |z2/(tau-z1)| <= 1/(2*sqrt(2))."""
    return bool(_closed_forms(z1, z2, tau).inside[0])


def kelvin_wave_terms(params: KelvinParams) -> list[AsymptoticTerm]:
    """Contributing wave-family terms (representative half; conjugate points
    are accounted for by the 2*Re at field synthesis).

    Family verdicts: the trail must be behind the body and formed, which is
    alpha1 < 0 together with the upward bypass in varpi (alpha2*w < 0, always
    true for w > 1).  Raises DegenerateFamily inside the wedge in the merge
    regime |beta| <= 1e-6 and on the track z2 = 0 (the origin included).
    """
    f = _closed_forms(params.z1, params.z2, params.tau)
    if f.degenerate[0]:
        raise DegenerateFamily(f"wave family degenerate at (z1, z2, tau) = "
                               f"{params.z1, params.z2, params.tau}")
    return [AsymptoticTerm(f.coeff[k, 0], -0.5, f.phase[k, 0])
            for k in (0, 1) if f.formed[k, 0]]


def transient_term(params: KelvinParams) -> Optional[AsymptoticTerm]:
    """The cylindrical wave from the onset of motion: stationary point on the
    dispersion cone at varpi* = tau/(2*r).  None when tau <= 0 (causality)."""
    if params.tau <= 0:
        return None
    if params.z1 == 0 and params.z2 == 0:
        raise ValueError("transient undefined at the origin")
    f = _closed_forms(params.z1, params.z2, params.tau)
    if f.merge[0]:
        raise MergeProximity("transient point merging with a crossing point")
    return AsymptoticTerm(f.tr_coeff[0], -1.0, f.tr_phase[0])


def wake_terms(params: KelvinParams) -> list[AsymptoticTerm]:
    """The closed-form terms of one observation point: the wave families,
    then the transient (the representative half of each conjugate pair)."""
    terms = kelvin_wave_terms(params)
    tt = transient_term(params)
    if tt is not None:
        terms.append(tt)
    return terms


def field_point(z1: float, z2: float, tau: float, lam: float) -> float:
    """Real field value at one sample from the closed-form terms."""
    return evaluate(wake_terms(KelvinParams(z1, z2, tau, lam)), lam,
                    KELVIN_PREFACTOR, real_field=True)


def field_map(z1_axis, z2_axis, tau: float, lam: float) -> FieldGrid:
    """Field over a rectangular (z1, z2) grid; failures become mask bits,
    never exceptions.  The z2 < 0 half-plane is the mirror of z2 > 0."""
    z1_axis = np.asarray(z1_axis, dtype=float)
    z2_axis = np.asarray(z2_axis, dtype=float)
    z1, z2 = np.meshgrid(z1_axis, np.abs(z2_axis), indexing="ij")
    f = _closed_forms(z1, z2, tau)
    invalid = (z2 < 0.05) | (np.hypot(z1, z2) < 0.05)
    wedge = f.inside & ~invalid
    invalid |= wedge & ((WEDGE_SLOPE - f.lam < 0.02) | f.degenerate)
    waves = f.formed & wedge & ~invalid
    transient = (tau > 0) & ~invalid
    merge = transient & f.merge
    invalid |= merge                  # the WAVE bit stays set
    transient &= ~merge

    def term(on, coeff, power, phase):
        return AsymptoticTerm(np.where(on, coeff, 0), power, np.where(on, phase, 0))

    terms = [term(waves[k] & ~invalid, f.coeff[k], -0.5, f.phase[k]) for k in (0, 1)]
    terms.append(term(transient, f.tr_coeff, -1.0, f.tr_phase))
    values = evaluate(terms, lam, KELVIN_PREFACTOR, real_field=True)
    mask = (MASK_WAVE * np.any(waves, axis=0) | MASK_TRANSIENT * transient
            | MASK_INVALID * invalid)
    return FieldGrid(z1_axis, z2_axis, values, mask)


def render_wavefronts(z1_axis, z2_axis, tau: float, lam: float) -> np.ndarray:
    """cos(Lambda * G*) of both wave families over the grid, shape (2, n1, n2)
    with the diverging family first; NaN outside the wedge (rendered neutral
    gray downstream)."""
    z1, z2 = np.meshgrid(np.asarray(z1_axis, dtype=float),
                         np.abs(np.asarray(z2_axis, dtype=float)), indexing="ij")
    f = _closed_forms(z1, z2, tau)
    return np.cos(lam * np.where(f.inside & (z2 >= 1e-12), f.phase, np.nan))
