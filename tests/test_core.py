import dataclasses

import numpy as np
import pytest

from oscint3 import core, kelvin, problems
from oscint3.core import (
    AmplitudeSpec,
    Box3,
    ProblemSpec,
    SingularityComponent,
    TangentialShift,
    quadratic_field,
)
from oscint3.detect import classify_point
from field_check import check_field_derivatives


def _kelvin_comps():
    p = kelvin.kelvin_problem(2.0, 2.0, 10.0)
    return p, p.amplitude.components


def _verdict(eta, comp, x, a=1.0):
    """(contributes, reason) at x on the surface of `comp` alone, for the phase
    G = a*grad(g)(x).xi + |xi - x|^2/2, stationary on it at x with alpha = a.
    The point contributes iff Gamma bypasses below w = a*g, i.e. iff a and the
    bypass side sign(eta.grad g) differ in sign."""
    n = np.real(comp.g.grad(x))
    prob = ProblemSpec(AmplitudeSpec(quadratic_field(c=1.0), (comp,)),
                       quadratic_field(np.eye(3), a * n - x), np.asarray(eta),
                       Box3(np.full(3, -3.0), np.full(3, 3.0)))
    sp = classify_point(prob, x)
    return sp.contributes, sp.reason


def test_bypass_side_kelvin_plane_above():
    p, (g1, _) = _kelvin_comps()
    # on the plane varpi = xi1 Gamma passes above: side +1
    x = np.array([0.5, 0.3, 0.5])
    assert _verdict(p.eta, g1, x, +1.0) == (False, "bypass-above:pole-line")
    assert _verdict(p.eta, g1, x, -1.0) == (True, "bypass-below-all")


def test_bypass_side_kelvin_cone_sign_of_frequency():
    p, (_, g2) = _kelvin_comps()
    up = np.array([1.0, 0.0, 1.0])            # varpi > 0 sheet: side +1
    dn = np.array([1.0, 0.0, -1.0])           # varpi < 0 sheet: side -1
    assert _verdict(p.eta, g2, up) == (False, "bypass-above:dispersion-cone")
    assert _verdict(p.eta, g2, dn) == (True, "bypass-below-all")


def test_bypass_side_tangential_raises():
    p, (g1, _) = _kelvin_comps()
    tangent_shift = np.array([1e-3, 0.0, 1e-3])  # along the plane
    with pytest.raises(TangentialShift):
        _verdict(tangent_shift, g1, np.array([0.5, 0.3, 0.5]))


def test_bypass_constant_on_plane_sheet():
    p, (g1, _) = _kelvin_comps()
    for a in np.linspace(-2, 2, 20):
        for b in np.linspace(-2, 2, 20):
            assert _verdict(p.eta, g1, np.array([a, b, a]))[1] == "bypass-above:pole-line"


@pytest.mark.parametrize("eta", [[0.0, float("nan"), 1e-3], [0.0, 1e-3]],
                         ids=["nan", "shape-2"])
def test_problem_rejects_bad_eta(eta):
    p, _ = _kelvin_comps()
    with pytest.raises(ValueError):
        ProblemSpec(p.amplitude, p.G, np.array(eta), p.search_region)
    with pytest.raises(ValueError):
        dataclasses.replace(p, eta=np.array(eta))


def test_singularity_component_rejects_bad_mu():
    g = core.quadratic_field(b=(1, 0, 0))
    with pytest.raises(ValueError):
        SingularityComponent(g, 2.0, "bad")
    SingularityComponent(g, -1.0, "pole")
    SingularityComponent(g, -0.5, "branch")


def test_amplitude_rejects_duplicate_labels():
    """A point names its factors by label, so two factors sharing one would
    share one multiplier alpha."""
    pA = SingularityComponent(quadratic_field(b=(2, 0, 0)), -1.0, "p")
    pB = SingularityComponent(quadratic_field(b=(0, 1, 0)), -1.0, "p")
    with pytest.raises(ValueError, match="duplicate"):
        AmplitudeSpec(core.gaussian_field(), (pA, pB))
    AmplitudeSpec(core.gaussian_field(), (pA, dataclasses.replace(pB, label="q")))


@pytest.mark.parametrize("name", ["gaussian-sp", "pole-sp", "double-cross",
                                  "triple-cross", "cone"])
def test_shipped_fields_pass_derivative_crosscheck(name):
    prob, _ = problems.get_problem(name)
    rng = np.random.default_rng(7)
    box = prob.search_region
    pts = rng.uniform(box.lo, box.hi, size=(100, 3))
    check_field_derivatives(prob.G, pts)
    for c in prob.amplitude.components:
        check_field_derivatives(c.g, pts)


def test_dense_quadratic_fields_pass_derivative_crosscheck():
    # a general A has several nonzero entries per row, where a matrix
    # product would round a stack of points and one point differently
    rng = np.random.default_rng(12)
    pts = rng.uniform(-2, 2, size=(100, 3))
    for _ in range(5):
        A, b = rng.normal(size=(3, 3)), rng.normal(size=3)
        check_field_derivatives(quadratic_field(A, b, rng.normal()), pts)


def test_kelvin_fields_pass_derivative_crosscheck():
    prob = kelvin.kelvin_problem(2.0, 2.0, 10.0)
    rng = np.random.default_rng(8)
    pts = rng.uniform(0.5, 2.5, size=(100, 3))  # away from the rho = 0 axis
    check_field_derivatives(prob.G, pts)
    check_field_derivatives(prob.amplitude.smooth_factor, pts)
    for c in prob.amplitude.components:
        check_field_derivatives(c.g, pts)


def test_quadratic_field_nonsymmetric_A_derivatives():
    """(1/2) xi.A.xi depends on A's symmetric part alone, and so do the
    gradient and Hessian the field returns."""
    f = quadratic_field([[0, 1, 0], [0, 0, 0], [0, 0, 0]], (0.5, -1.0, 2.0))
    check_field_derivatives(f, np.random.default_rng(11).uniform(-2, 2, (50, 3)))


def test_derivative_crosscheck_rejects_single_point_hessian():
    """A Hessian written with np.outer is right at one point but does not
    broadcast over a stack of points."""
    base = core.gaussian_field()

    def hess(xi):
        return (4.0 * np.outer(xi, xi) - 2.0 * np.eye(3)) * base.value(xi)

    f = core.ScalarField3(base.value, base.gradient, hess)
    pts = np.random.default_rng(10).uniform(-1, 1, size=(5, 3))
    with pytest.raises(AssertionError):
        check_field_derivatives(f, pts)


def test_real_property_of_shipped_fields():
    prob = kelvin.kelvin_problem(1.0, 0.5, 10.0)
    rng = np.random.default_rng(9)
    for _ in range(50):
        x = rng.uniform(0.3, 2.0, size=3)
        for c in prob.amplitude.components:
            v = c.g(x)
            assert abs(np.imag(v)) <= 1e-14 * (1 + abs(np.real(v)))


def test_box_grid_and_exclusion():
    box = core.Box3(np.full(3, -1.0), np.full(3, 1.0),
                    excluded_center=np.zeros(3), excluded_radius=0.3)
    g = box.grid(5)
    assert np.all(np.linalg.norm(g, axis=1) >= 0.3)
    assert not box.contains(np.array([0.1, 0.0, 0.0]))
    assert box.contains(np.array([0.9, 0.9, -0.9]))
    pts = np.array([[[0.1, 0.0, 0.0], [0.9, 0.9, -0.9]],
                    [[1.2, 0.0, 0.0], [0.0, 0.0, 0.5]]])
    assert np.array_equal(box.contains(pts), [[False, True], [False, True]])


def test_empty_box_rejected():
    with pytest.raises(ValueError):
        core.Box3(np.zeros(3), np.zeros(3))


def test_gaussian_value_written_out_equals_sum_form():
    rng = np.random.default_rng(3)
    f = core.gaussian_field((0.3, -1.0, 0.7))
    c = np.array([0.3, -1.0, 0.7])
    for pts in (rng.uniform(-2, 2, (200, 3)),
                rng.uniform(-2, 2, (20, 30, 3)) + 1j * rng.uniform(-0.3, 0.3, (20, 30, 3))):
        d = pts - c
        assert np.array_equal(f.value(pts), np.exp(-np.sum(d * d, axis=-1)))


def test_quadratic_value_matches_einsum_form():
    rng = np.random.default_rng(4)
    for _ in range(20):
        A = rng.normal(size=(3, 3))
        A = A + A.T
        b, c = rng.normal(size=3), rng.normal()
        f = core.quadratic_field(A, b, c)
        pts = rng.uniform(-2, 2, (100, 3)) + 1j * rng.uniform(-0.3, 0.3, (100, 3))
        want = 0.5 * np.einsum("...i,ij,...j->...", pts, A, pts) + pts @ b + c
        P = np.abs(pts)
        scale = (0.5 * np.einsum("...i,ij,...j->...", P, np.abs(A), P)
                 + P @ np.abs(b) + abs(c))
        got = f.value(pts)
        assert np.all(np.abs(got - want) <= 1e-14 * scale)
        assert np.array_equal(got, np.array([f.value(p) for p in pts]))


# ---------------------------------------------------------------------------
# split declarations

def _split_value(split, pts):
    # the field's value rebuilt from its declared one-variable parts
    parts = [p(pts[..., k]) for k, p in enumerate(split.parts) if p is not None]
    out = np.zeros(pts.shape[:-1], complex) if split.op == "sum" else np.ones(pts.shape[:-1], complex)
    for v in parts:
        out = out + v if split.op == "sum" else out * v
    return out


def _shipped_fields():
    for name, entry in problems.REGISTRY.items():
        p = entry.build(problems.DEFAULT_Z)
        yield f"{name} G", p.G
        yield f"{name} N", p.amplitude.smooth_factor
        for c in p.amplitude.components:
            yield f"{name} {c.label}", c.g


def _complex_points(rng, m=200):
    return rng.uniform(-3, 3, (m, 3)) + 1j * rng.uniform(-0.5, 0.5, (m, 3))


def test_split_declarations_match_value():
    """Every declared split rebuilds the field's value at random complex
    points, to 1e-14 relative: the shipped fields and Gaussians at three
    centres relative to the value, random diagonal quadratics relative to
    the size of the terms they sum (a sum can cancel)."""
    rng = np.random.default_rng(24)
    fields = [(f, None) for _, f in _shipped_fields() if f.split is not None]
    fields += [(core.gaussian_field(c), None)
               for c in ((0, 0, 0), (1, 0, 0), (0.3, -1.0, 0.7))]
    for _ in range(20):
        d = rng.normal(size=3) * (rng.random(3) < 0.7)
        b = rng.normal(size=3) * (rng.random(3) < 0.7)
        c = rng.normal()
        fields.append((quadratic_field(np.diag(d), b, c),
                       lambda P, d=d, b=b, c=c: (0.5 * P * P) @ np.abs(d) + P @ np.abs(b) + abs(c)))
    for f, terms in fields:
        assert f.split is not None
        pts = _complex_points(rng)
        got, want = _split_value(f.split, pts), f.value(pts)
        scale = np.abs(want) if terms is None else terms(np.abs(pts))
        assert np.all(np.abs(got - want) <= 1e-14 * scale), f


def test_shipped_splits():
    """Which shipped fields declare a split: every G and g that is a
    diagonal quadratic (the cone's g included) a sum, every Gaussian N a
    product; Kelvin's N (off-diagonal A) and its dispersion cone nothing."""
    ops = {name: (f.split.op, f.split.present()) if f.split else None
           for name, f in _shipped_fields()}
    assert ops["pole-sp plane"] == ("sum", [0])
    assert ops["cone cone"] == ("sum", [0, 1, 2])
    assert ops["cone G"] == ("sum", [0, 2])
    assert ops["triple-cross p3"] == ("sum", [2])
    assert ops["kelvin pole-line"] == ("sum", [0, 2])
    assert ops["kelvin N"] is None and ops["kelvin dispersion-cone"] is None
    for name in ("gaussian-sp", "pole-sp", "double-cross", "triple-cross", "cone"):
        assert ops[f"{name} N"] == ("product", [0, 1, 2])
        assert ops[f"{name} G"][0] == "sum"


def test_offdiagonal_quadratics_declare_no_split():
    rng = np.random.default_rng(25)
    for _ in range(20):
        A = rng.normal(size=(3, 3))
        assert quadratic_field(A, rng.normal(size=3), rng.normal()).split is None
    # one off-diagonal pair is enough, in either triangle
    assert quadratic_field([[0, 1e-3, 0], [0, 0, 0], [0, 0, 0]]).split is None
    assert quadratic_field(np.diag([1.0, 2.0, 3.0])).split is not None
