import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscint3 import asym, detect, kelvin, problems
from oscint3.asym import evaluate, expand, gamma_factor, term_cone, term_from_frame
from oscint3.core import (
    AmplitudeSpec,
    Box3,
    ProblemSpec,
    SingularityComponent,
    gaussian_field,
    quadratic_field,
)
from oscint3.detect import LocalFrame, PointKind, SpecialPoint
from oscint3.oracle import QuadratureSpec, quad_deformed_3d
from wake_curve import curve_L


def _point_at_origin(G, comps=()):
    """The point `judge` builds at the origin for phase G and surfaces comps."""
    prob = ProblemSpec(AmplitudeSpec(gaussian_field(), tuple(comps)),
                       G, np.array([0.0, 0.0, 1e-3]),
                       Box3(np.full(3, -1.0), np.full(3, 1.0)))
    return detect.classify_point(prob, np.zeros(3))


# ---------------------------------------------------------------------------
# the universal 1D factor

def test_gamma_factor_simple_pole_exact():
    assert gamma_factor(-1) == 2j * np.pi


def test_gamma_factor_half_powers():
    assert gamma_factor(-0.5) == pytest.approx(
        2 * np.sqrt(np.pi) * np.exp(0.25j * np.pi), rel=1e-12)
    assert gamma_factor(0.5) == pytest.approx(
        np.sqrt(np.pi) * np.exp(0.75j * np.pi), rel=1e-12)


def test_gamma_factor_rejects_other_integers():
    with pytest.raises(asym.UnsupportedExponent):
        gamma_factor(-2)
    with pytest.raises(asym.UnsupportedExponent):
        gamma_factor(0)


# ---------------------------------------------------------------------------
# frames

def test_frame_single_canonical_plane():
    prob, _ = problems.get_problem("pole-sp")
    comp = prob.amplitude.components[0]
    sp = detect.find_stationary(prob, (comp,))[0]
    f = sp.frame
    assert sp.alphas[0] == pytest.approx(1.0)
    assert f.betas == pytest.approx((1.0, 1.0))
    assert f.jacobian == pytest.approx(1.0)
    assert f.phase0 == pytest.approx(1.0)


def test_frame_single_curved_surface():
    # g = xi3 - xi1^2 - xi2^2, G = xi3: restricted Hessian is +diag(2,2)
    g = SingularityComponent(
        quadratic_field(np.diag([-2.0, -2.0, 0.0]), (0, 0, 1)), -1.0, "par")
    sp = _point_at_origin(quadratic_field(b=(0, 0, 1)), (g,))
    assert sp.alphas == pytest.approx((1.0,))
    assert sp.frame.betas == pytest.approx((2.0, 2.0))


def test_frame_double_canonical():
    prob, _ = problems.get_problem("double-cross")
    cA, cB = prob.amplitude.components
    sp = detect.find_stationary(prob, (cA, cB))[0]
    f = sp.frame
    assert sp.alphas == pytest.approx((1.0, 1.0))
    assert f.betas[0] == pytest.approx(1.0)
    assert f.jacobian == pytest.approx(1.0)


def test_frame_jacobian_matches_axes():
    prob, _ = problems.get_problem("double-cross")
    cA, cB = prob.amplitude.components
    f = detect.find_stationary(prob, (cA, cB))[0].frame
    assert f.jacobian == pytest.approx(1.0 / np.linalg.det(f.axes), rel=1e-10)


def _wmaps(sp, comps=()):
    """The frame's coordinate maps xi -> w_n: w_k = alpha_k * g_k for the
    singular factors `comps`, the affine axes(xi - x) for the rest."""
    sing = [lambda xi, a=a, c=c: float(a * np.real(c.g(xi)))
            for a, c in zip(sp.alphas, comps)]
    free = [lambda xi, r=r: float(r @ (np.asarray(xi) - sp.location))
            for r in sp.frame.axes[len(sing):]]
    return sing + free


def _invert_wmap(sp, w, comps=()):
    """Solve wmaps(xi) = w by Newton with the frame linearization."""
    maps = _wmaps(sp, comps)
    x = sp.location.astype(float).copy()
    for _ in range(60):
        F = np.array([m(x) for m in maps]) - w
        if np.linalg.norm(F) < 1e-15:
            break
        x = x - np.linalg.solve(sp.frame.axes, F)
    return x


def _check_frame_expansion(sp, G, linear, quadratic, comps=(), h=1e-3,
                           tol=2e-5):
    """FD re-expansion of G in the constructed w coordinates.

    `linear` gives the expected first-order coefficient along each w axis;
    `quadratic` maps axis index -> expected second derivative (checked only
    for the free directions, where the frame stores a beta)."""
    e = np.eye(3)
    g0 = float(np.real(G(sp.location)))
    assert g0 == pytest.approx(sp.frame.phase0, abs=1e-12)
    for n in range(3):
        gp = float(np.real(G(_invert_wmap(sp, h * e[n], comps))))
        gm = float(np.real(G(_invert_wmap(sp, -h * e[n], comps))))
        lin = (gp - gm) / (2 * h)
        assert lin == pytest.approx(linear[n], abs=tol * max(1, abs(linear[n])))
        if n in quadratic:
            quad = (gp + gm - 2 * g0) / h ** 2
            assert quad == pytest.approx(
                quadratic[n], abs=2e-3 + tol * abs(quadratic[n]))


def test_frame_consistency_surface_curved():
    # transient point of the ship wake: curved surface, nontrivial alpha
    prob = kelvin.kelvin_problem(3.0, 4.0, 10.0)
    cone = prob.amplitude.components[1]
    sp = [s for s in detect.find_stationary(
        prob, (cone,), seeds=[np.array([0.4, 0.5, 1.05])])
        if s.location[2] > 0][0]
    f = sp.frame
    _check_frame_expansion(sp, prob.G, (1.0, 0.0, 0.0),
                           {1: f.betas[0], 2: f.betas[1]}, (cone,))


def test_frame_consistency_crossing_kelvin():
    prob = kelvin.kelvin_problem(3.0, 1.5, 10.0)
    cA, cB = prob.amplitude.components
    w1, _ = kelvin.stationary_frequencies(1.5 / 7.0)
    sp = detect.find_stationary(prob, (cA, cB), seeds=[curve_L(w1) + 0.02])[0]
    _check_frame_expansion(sp, prob.G, (1.0, 1.0, 0.0),
                           {2: sp.frame.betas[0]}, (cA, cB))


def test_frame_consistency_interior():
    prob, _ = problems.get_problem("gaussian-sp")
    sp = detect.find_stationary(prob, ())[0]
    _check_frame_expansion(sp, prob.G, (0, 0, 0),
                           dict(enumerate(sp.frame.betas)))


def test_frame_consistency_cone_linear_part():
    prob, _ = problems.get_problem("cone")
    sp = detect.find_conical_points(prob, prob.amplitude.components[0])[0]
    f = sp.frame
    _check_frame_expansion(sp, prob.G, f.grad_w, {})
    # and the quadric itself: cone_sign * g = w1^2 + w2^2 - w3^2
    g = prob.amplitude.components[0].g
    for w, want in [((1e-3, 0, 0), 1e-6), ((0, 1e-3, 0), 1e-6),
                    ((0, 0, 1e-3), -1e-6)]:
        x = _invert_wmap(sp, np.array(w))
        assert f.cone_sign * float(np.real(g(x))) == pytest.approx(want, rel=1e-6)


# ---------------------------------------------------------------------------
# terms

# The contour shift of the terms built without a problem: their amplitudes
# hold no uninvolved branch factor, the one thing a term reads eta for.
NO_SHIFT = np.zeros(3)

def test_term_interior_gaussian():
    prob, _ = problems.get_problem("gaussian-sp")
    t = term_from_frame(detect.find_stationary(prob, ())[0], prob.amplitude, (),
                        prob.eta)
    assert t.power == -1.5
    assert t.phase0 == 0.0
    assert t.coeff == pytest.approx(
        (2 * np.pi) ** 1.5 * np.exp(0.75j * np.pi), rel=1e-12)


def test_term_interior_sign_bookkeeping():
    sp = _point_at_origin(quadratic_field(np.diag([1.0, 1.0, -1.0])))
    t = term_from_frame(sp, AmplitudeSpec(gaussian_field()), (), NO_SHIFT)
    assert np.angle(t.coeff) == pytest.approx(np.pi / 4)


def test_term_interior_linear_in_J():
    f1, f2 = (SpecialPoint(np.zeros(3), PointKind.SP_INTERIOR,
                           frame=LocalFrame(np.eye(3), (1, 1, 1), J, 0.0))
              for J in (1.0, 2.0))
    amp = AmplitudeSpec(gaussian_field())
    assert term_from_frame(f2, amp, (), NO_SHIFT).coeff == pytest.approx(
        2 * term_from_frame(f1, amp, (), NO_SHIFT).coeff)


def test_term_surface_canonical():
    prob, _ = problems.get_problem("pole-sp")
    comp = prob.amplitude.components[0]
    t = term_from_frame(detect.find_stationary(prob, (comp,))[0],
                        prob.amplitude, (comp.mu,), prob.eta)
    assert t.power == -1.0
    assert t.phase0 == pytest.approx(1.0)
    assert t.coeff == pytest.approx(-4 * np.pi ** 2, rel=1e-10)


def test_term_crossing_canonical():
    prob, _ = problems.get_problem("double-cross")
    cA, cB = prob.amplitude.components
    t = term_from_frame(detect.find_stationary(prob, (cA, cB))[0],
                        prob.amplitude, (-1.0, -1.0), prob.eta)
    assert t.power == -0.5
    assert t.coeff == pytest.approx(
        (2j * np.pi) ** 2 * np.sqrt(2 * np.pi) * np.exp(0.25j * np.pi),
        rel=1e-10)


def test_term_triple_canonical_linear_phase():
    comps = tuple(SingularityComponent(quadratic_field(b=np.eye(3)[k]), -1.0,
                                       f"p{k}") for k in range(3))
    sp = SpecialPoint(np.zeros(3), PointKind.TRIPLE_CROSSING,
                      tuple(c.label for c in comps), alphas=(1.0, 1.0, 1.0),
                      frame=LocalFrame(np.eye(3), (), 1.0, 0.0))
    amp = AmplitudeSpec(gaussian_field(), comps)
    t = term_from_frame(sp, amp, (-1.0, -1.0, -1.0), NO_SHIFT)
    assert t.power == 0.0
    assert t.coeff == pytest.approx((2j * np.pi) ** 3, rel=1e-12)


def test_term_triple_mixed_exponents():
    sp = SpecialPoint(np.zeros(3), PointKind.TRIPLE_CROSSING,
                      frame=LocalFrame(np.eye(3), (), 1.0, 0.0))
    amp = AmplitudeSpec(quadratic_field(c=1.0))   # N = 1, no components
    t = term_from_frame(sp, amp, (-1.0, -0.5, -0.5), NO_SHIFT)
    want = 2j * np.pi * (2 * np.sqrt(np.pi) * np.exp(0.25j * np.pi)) ** 2
    assert t.power == -1.0
    assert t.coeff == pytest.approx(want, rel=1e-12)


def _cone_point(grad_w):
    return SpecialPoint(np.zeros(3), PointKind.CONICAL, ("cone",),
                        frame=LocalFrame(np.eye(3), (), 1.0, 0.0, grad_w=grad_w))


def test_term_cone_substitutions():
    amp = AmplitudeSpec(quadratic_field(c=1.0),
                        (SingularityComponent(
                            quadratic_field(np.diag([2.0, 2.0, -2.0])),
                            -1.0, "cone"),))
    t = term_cone(_cone_point((0.0, 0.0, 1.0)), amp, NO_SHIFT)
    assert t.coeff == pytest.approx(4 * np.pi ** 2)
    assert t.power == -1.0
    t = term_cone(_cone_point((0.6, 0.0, 1.0)), amp, NO_SHIFT)
    assert t.coeff == pytest.approx(4 * np.pi ** 2 / 0.8)


# ---------------------------------------------------------------------------
# summation

def test_sum_no_contributions_is_zero():
    # gaussian phase with the stationary point outside the search region
    from oscint3.core import Box3, ProblemSpec
    p = ProblemSpec(AmplitudeSpec(gaussian_field()),
                    quadratic_field(np.eye(3), b=(10, 10, 10)),
                    np.zeros(3),
                    Box3(np.full(3, -1.0), np.full(3, 1.0)))
    terms = expand(p)
    v = evaluate(terms, 40.0, p.prefactor)
    assert v == 0 and terms == []


def test_sum_triple_cross_single_term():
    prob, _ = problems.get_problem("triple-cross")
    terms = expand(prob)
    assert len(terms) == 1
    assert terms[0].source.kind is PointKind.TRIPLE_CROSSING


def test_sum_kelvin_term_count():
    prob = kelvin.kelvin_problem(2.0, 2.0, 10.0)
    terms = expand(prob)
    # one contributing representative per wave family, plus the transient
    # pair on the dispersion quadric
    kinds = sorted(t.source.kind.value for t in terms)
    assert kinds.count("sp-on-crossing") == 2
    assert kinds.count("sp-on-surface") == 2


@settings(deadline=None, max_examples=20)
@given(st.floats(0.2, 4.0))
def test_scaling_invariance_of_terms(c):
    """g -> c*g with N -> N*c^{-mu} leaves (A, p, phase0) unchanged."""

    def build(scale):
        g = SingularityComponent(
            quadratic_field(b=(scale, 0, 0), c=-scale), -1.0, "plane")
        # N = scale * gaussian to compensate (mu = -1)
        base = gaussian_field((1.0, 0.0, 0.0))
        from oscint3.core import ScalarField3
        N = ScalarField3(lambda xi: scale * base.value(xi),
                         lambda xi: scale * base.grad(xi),
                         lambda xi: scale * base.hess(xi))
        amp = AmplitudeSpec(N, (g,))
        from oscint3.core import Box3, ProblemSpec
        prob = ProblemSpec(
            amp, quadratic_field(np.diag([0.0, 1.0, 1.0]), (1, 0, 0)),
            np.array([-0.15, 0.0, 0.0]),
            Box3(np.array([0.0, -1.5, -1.5]), np.array([2.0, 1.5, 1.5])))
        sp = detect.find_stationary(prob, (g,), seeds=[np.array([1.1, 0.1, -0.1])])[0]
        return term_from_frame(sp, amp, (-1.0,), prob.eta)

    t1, tc = build(1.0), build(c)
    assert tc.coeff == pytest.approx(t1.coeff, rel=1e-10)
    assert tc.power == t1.power
    assert tc.phase0 == pytest.approx(t1.phase0, abs=1e-10)


def test_cone_branch_exponent_raises():
    # term_cone is the simple pole's term; at mu = -1/2 it would return the
    # same coefficient and power -1, where the scaling w -> w/Lambda gives
    # a power of -3 - 2*mu = -2
    prob, _ = problems.get_problem("cone")
    (comp,) = prob.amplitude.components
    half = dataclasses.replace(prob, amplitude=AmplitudeSpec(
        prob.amplitude.smooth_factor,
        (SingularityComponent(comp.g, -0.5, comp.label),)))
    cones = [sp for sp in detect.detect_all(half)
             if sp.kind is PointKind.CONICAL and sp.contributes]
    assert cones
    with pytest.raises(asym.UnsupportedExponent):
        asym.term_for_point(half, cones[0])
    with pytest.raises(asym.UnsupportedExponent):
        asym.expand(half)


def _planes(*planes):
    """One component sign*(x1 - p) raised to mu per (sign, p, mu)."""
    return tuple(SingularityComponent(quadratic_field(b=(sign, 0, 0), c=-sign * p),
                                      mu, f"plane{k}")
                 for k, (sign, p, mu) in enumerate(planes))


@pytest.mark.parametrize("components", [
    *(pytest.param(_planes((sign, 1.0, mu)), id=f"{sign}-{mu}")
      for sign in (-1.0, 1.0) for mu in (-0.5, 0.5, -1.25)),
    *(pytest.param(_planes((1.0, 1.0, mu1), (sign, p2, -0.5)),
                   id=f"mu1={mu1}-g2={sign:+.0f}(x1-{p2:.0f})")
      for mu1 in (-1.0, -0.5) for sign in (-1.0, 1.0) for p2 in (0.0, 2.0)),
])
def test_branch_exponent_term_matches_quadrature(components):
    """pole-sp with its plane replaced by `components`, against the
    tensor-rule oracle: the terms, one per plane, converge at the rate
    1/Lambda.  One plane g = sign*(x1 - 1) raised to mu: with sign = -1,
    alpha < 0, and the principal alpha^{-mu} gave a relative error near 2
    for mu = +-1/2 and near 1.45 for mu = -5/4.  Two planes, x1 - 1 raised
    to mu1 and g2 = sign*(x1 - p2) to -1/2: each point's term holds the
    other plane's g^mu uninvolved.  With g2 = x1 - 2 the point x1 = 1 has
    g2 < 0 and eta . grad g2 < 0, so the shifted contour passes below the
    cut of g2^mu, and the principal power gave a relative error near 2;
    with mu1 = -1/2 the same holds for x1 - 1 at the point x1 = 0."""
    prob, _ = problems.get_problem("pole-sp")
    prob = dataclasses.replace(prob, amplitude=dataclasses.replace(
        prob.amplitude, components=components))
    terms = expand(prob)
    assert len(terms) == len(components)
    for lam in (20.0, 40.0, 80.0):
        ref, _ = quad_deformed_3d(prob, lam, QuadratureSpec(R=7.0, n=1024))
        rel = abs(evaluate(terms, lam, prob.prefactor) - ref) / abs(ref)
        assert rel <= 5 / lam, (lam, rel)
