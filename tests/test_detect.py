import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscint3 import asym, detect, kelvin, problems
from oscint3.core import (
    AmplitudeSpec,
    Box3,
    ProblemSpec,
    SingularityComponent,
    gaussian_field,
    quadratic_field,
)
from oscint3.detect import PointKind, classify_point
import replaced_paths
from wake_curve import curve_L


def _problem(G, comps=(), eta=(0.0, 0.0, 1e-3), box=2.0):
    return ProblemSpec(AmplitudeSpec(gaussian_field(), tuple(comps)),
                       G, np.array(eta),
                       Box3(np.full(3, -box), np.full(3, box)))


# ---------------------------------------------------------------------------
# finders

def test_interior_quadratic_saddle():
    p = _problem(quadratic_field(np.diag([1.0, 1.0, -1.0])))
    pts = detect.find_stationary(p, (), seeds=[np.array([0.3, -0.2, 0.1])])
    assert len(pts) == 1
    assert np.allclose(pts[0].location, 0, atol=1e-9)


def test_interior_linear_phase_empty():
    p = kelvin.kelvin_problem(2.0, 1.0, 10.0)
    assert detect.find_stationary(p, ()) == []


def test_interior_degenerate_flagged():
    # |xi|^4 / 4 has a zero Hessian at its only critical point
    def value(xi):
        return (np.sum(xi * xi, axis=-1)) ** 2 / 4

    def grad(xi):
        return np.sum(xi * xi, axis=-1)[..., None] * xi

    def hess(xi):
        return (np.sum(xi * xi, axis=-1)[..., None, None] * np.eye(3)
                + 2 * xi[..., :, None] * xi[..., None, :])

    from oscint3.core import ScalarField3
    G = ScalarField3(value, grad, hess)
    p = _problem(G)
    seeds = [np.array([0.05, 0.02, -0.04])]
    pts = detect.find_stationary(p, (), seeds=seeds)
    assert len(pts) == 1
    assert pts[0].near_degenerate
    # no stationary-phase term exists there: expand refuses the point
    with pytest.raises(asym.DegenerateConfiguration):
        asym.expand(p, detect.detect_all(p, seeds=seeds))


def test_surface_sp_plane():
    prob, _ = problems.get_problem("pole-sp")
    comp = prob.amplitude.components[0]
    pts = detect.find_stationary(prob, (comp,))
    assert len(pts) == 1
    assert np.allclose(pts[0].location, [1, 0, 0], atol=1e-9)
    assert pts[0].alphas[0] == pytest.approx(1.0)


def test_surface_sp_paraboloid():
    g = SingularityComponent(
        quadratic_field(np.diag([-2.0, -2.0, 0.0]), (0, 0, 1)), -1.0, "par")
    c = 0.7
    p = _problem(quadratic_field(b=(0, 0, c)), comps=[g], eta=(0, 0, 1e-3))
    pts = detect.find_stationary(p, (g,), seeds=[np.array([0.2, -0.1, 0.1])])
    assert len(pts) == 1
    assert np.allclose(pts[0].location, 0, atol=1e-9)
    assert pts[0].alphas[0] == pytest.approx(c)


def test_surface_sp_kelvin_transient_location():
    z1, z2, tau = 3.0, 4.0, 10.0
    prob = kelvin.kelvin_problem(z1, z2, tau)
    cone = prob.amplitude.components[1]
    r = np.hypot(z1, z2)
    ws = tau / (2 * r)
    seed = np.array([ws ** 2 * z1 / r, ws ** 2 * z2 / r, ws]) + 0.05
    pts = detect.find_stationary(prob, (cone,), seeds=[seed])
    locs = [p for p in pts if p.location[2] > 0]
    assert len(locs) == 1
    assert locs[0].location[2] == pytest.approx(ws, abs=1e-9)
    assert locs[0].alphas[0] == pytest.approx(-r, abs=1e-9)


def test_crossing_sp_canonical():
    prob, _ = problems.get_problem("double-cross")
    cA, cB = prob.amplitude.components
    pts = detect.find_stationary(prob, (cA, cB))
    assert len(pts) == 1
    assert np.allclose(pts[0].location, 0, atol=1e-9)
    assert pts[0].alphas == pytest.approx((1.0, 1.0))


def test_crossing_sp_kelvin_frequencies():
    lam = 0.25
    tau = 10.0
    z1 = tau / (1 + lam / 0.25 * 1.0)  # any z1 with lam = z2/(tau-z1)
    z1 = 2.0
    z2 = lam * (tau - z1)
    prob = kelvin.kelvin_problem(z1, z2, tau)
    cA, cB = prob.amplitude.components
    w1 = np.sqrt(1.25 + np.sqrt(0.5)) / (np.sqrt(2) * 0.5)
    w2 = np.sqrt(1.25 - np.sqrt(0.5)) / (np.sqrt(2) * 0.5)
    seeds = [curve_L(w) + 0.02 for w in (w1, w2)]
    pts = detect.find_stationary(prob, (cA, cB), seeds=seeds)
    freqs = sorted(p.location[2] for p in pts)
    assert freqs == pytest.approx(sorted([w1, w2]), abs=1e-9)


def test_crossing_swap_symmetry():
    prob, _ = problems.get_problem("double-cross")
    cA, cB = prob.amplitude.components
    a = detect.find_stationary(prob, (cA, cB))[0]
    b = detect.find_stationary(prob, (cB, cA))[0]
    assert np.allclose(a.location, b.location, atol=1e-10)
    assert a.alphas == pytest.approx(b.alphas[::-1])
    assert (detect._with_verdict(a, prob.eta).contributes
            == detect._with_verdict(b, prob.eta).contributes)


def test_triple_crossing_canonical_and_alphas():
    comps = tuple(SingularityComponent(quadratic_field(b=np.eye(3)[k]), -1.0,
                                       f"p{k}") for k in range(3))
    p = _problem(quadratic_field(b=(2.0, 3.0, 5.0)), comps=comps,
                 eta=(-1e-3, -1e-3, -1e-3))
    pts = detect.find_stationary(p, comps)
    assert len(pts) == 1
    assert np.allclose(pts[0].location, 0, atol=1e-10)
    assert pts[0].alphas == pytest.approx((2.0, 3.0, 5.0))


def test_triple_crossing_frame_rows_are_scaled_normals():
    """The frame's rows are alpha_k * grad(g_k) whatever the sign of det W,
    and J = 1/|det W|.  Here alpha = (1, -1, 1), so det W = -1: the verdict
    reads eps = W eta = (eta1, -eta2, eta3) < 0 as a bypass below all three
    planes."""
    comps = tuple(SingularityComponent(quadratic_field(b=np.eye(3)[k]), -1.0,
                                       f"p{k}") for k in range(3))
    p = _problem(quadratic_field(np.eye(3), (1.0, -1.0, 1.0)), comps=comps,
                 eta=(-1e-3, 1e-3, -1e-3))
    sp = classify_point(p, np.zeros(3))
    assert sp.kind is PointKind.TRIPLE_CROSSING
    assert sp.alphas == pytest.approx((1.0, -1.0, 1.0))
    assert np.array_equal(sp.frame.axes, np.array(sp.alphas)[:, None] * np.eye(3))
    assert sp.frame.jacobian == pytest.approx(1.0)
    assert (sp.contributes, sp.reason) == (True, "bypass-below-all")


def test_triple_cross_wide_box_every_kind():
    """G of triple-cross is stationary at -1 along each axis.  In a +-1.6 box
    detect_all finds eight contributing points, of every stationary kind (the
    shipped box holds only the triple point), and the eight-term sum
    converges faster than the crossing points' Lambda^(-1/2)."""
    prob, entry = problems.get_problem("triple-cross")
    wide = dataclasses.replace(prob, search_region=Box3(np.full(3, -1.6),
                                                        np.full(3, 1.6)))
    pts = detect.detect_all(wide)
    assert all(sp.contributes for sp in pts)
    assert Counter(sp.kind for sp in pts) == {
        PointKind.SP_INTERIOR: 1, PointKind.SP_ON_SURFACE: 3,
        PointKind.SP_ON_CROSSING: 3, PointKind.TRIPLE_CROSSING: 1}
    terms = asym.expand(wide, pts)
    err = [abs(asym.evaluate(terms, lam, wide.prefactor)
               / entry.reference(wide, lam) - 1) for lam in (20.0, 80.0)]
    assert np.log(err[0] / err[1]) / np.log(4.0) >= 1.3


def test_triple_crossing_kelvin_empty():
    prob = kelvin.kelvin_problem(2.0, 1.0, 10.0)
    assert len(prob.amplitude.components) == 2  # only two singularities exist


def test_conical_point_found_both_signatures():
    for diag, found in [((2.0, 2.0, -2.0), True),
                        ((2.0, -2.0, -2.0), True)]:
        g = SingularityComponent(quadratic_field(np.diag(diag)), -1.0, "cone")
        p = _problem(quadratic_field(b=(0, 0, 1)), comps=[g])
        pts = detect.find_conical_points(p, g)
        assert (len(pts) == 1) == found
        assert np.allclose(pts[0].location, 0, atol=1e-9)


def test_conical_sphere_empty():
    g = SingularityComponent(quadratic_field(2 * np.eye(3), c=-1.0), -1.0, "sph")
    p = _problem(quadratic_field(b=(0, 0, 1)), comps=[g])
    assert detect.find_conical_points(p, g) == []


def test_convergence_certificate():
    """Each returned point re-satisfies its equations after one more Newton
    step at 10x tighter tolerance."""
    for name in ("gaussian-sp", "pole-sp", "double-cross", "triple-cross", "cone"):
        prob, _ = problems.get_problem(name)
        for sp in detect.detect_all(prob):
            x = sp.location
            for lab in sp.components:
                comp = next(c for c in prob.amplitude.components if c.label == lab)
                assert abs(np.real(comp.g(x))) <= 1e-11
            if sp.kind is PointKind.SP_INTERIOR:
                assert np.linalg.norm(np.real(prob.G.grad(x))) <= 1e-10


def test_surface_singular_jacobian_fails_alone():
    """At the centre of the sphere the 4x4 Jacobian is all zeros; that seed
    must fail without taking the other seed of the stack with it."""
    g = SingularityComponent(quadratic_field(2 * np.eye(3), c=-1.0), -1.0, "sph")
    p = _problem(quadratic_field(b=(0, 0, 1)), comps=[g])
    pts = detect.find_stationary(p, (g,), seeds=[np.zeros(3),
                                                 np.array([0.1, 0.1, 0.8])])
    assert len(pts) == 1
    assert np.allclose(pts[0].location, [0, 0, 1], atol=1e-12)


def test_stalled_seeds_stay_cut(monkeypatch):
    """G is linear on `cone` and stationary on the surface only at the apex,
    where the Lagrange system is singular: most seeds drift for all
    NEWTON_MAXITER steps.  The line search's short ladder of halvings bounds
    the residual rows those steps cost."""
    prob, _ = problems.get_problem("cone")
    rows = []
    newton = detect._newton

    def counting(fun, jac, y0):
        def counted(y):
            rows.append(len(y))
            return fun(y)
        return newton(counted, jac, y0)

    monkeypatch.setattr(detect, "_newton", counting)
    detect.find_stationary(prob, prob.amplitude.components)
    assert sum(rows) <= 350_000


def test_newton_line_search_batched():
    """Newton on arctan overshoots from |y| > 1.4 and needs step halvings; the
    line search makes at most two calls of F per step (the full step, then
    every halving at once), and each row still converges to the root 0.
    The accepted trial's residual is the next step's, so F is called once
    for the seeds and then only by the line search: 17 calls, where
    evaluating F again at the top of each step made 30."""
    log = []

    def fun(y):
        log.append("f")
        return np.arctan(y)

    def jac(y):
        log.append("J")
        return 1 / (1 + y[..., None] ** 2)

    y, converged = detect._newton(fun, jac, np.array([[10.0], [-20.0], [3.0], [0.5]]))
    assert np.all(converged) and np.max(np.abs(y)) <= 1e-12
    calls = "".join(log).split("J")
    assert calls[0] == "f" and max(len(c) for c in calls[1:]) <= 2
    assert log.count("f") == 17
    log.clear()
    detect._newton(fun, jac, np.zeros((0, 1)))
    assert log == []


# every finder system of detect_all: the six registry problems, and Kelvin at
# two more points and the two drawn by the benchmark's detect-sweep at seed 0
FINDER_CASES = [(name, None) for name in problems.REGISTRY] + [
    ("kelvin", (3.0, 1.5, 10.0)),
    ("kelvin", (2.0, 0.5, 10.0)),
    ("kelvin", (3.7607632721794046, 1.5995704584383263, 10.0)),
    ("kelvin", (4.239236727820595, 1.0206955600968026, 10.0)),
]


@pytest.mark.parametrize("key", FINDER_CASES, ids=str)
def test_newton_matches_replaced_loop(monkeypatch, key):
    """Carrying the accepted trial's residual gives the bits of the loop that
    evaluated F again at the top of every step, on every finder system."""
    name, z = key
    prob = problems.get_problem(name)[0] if z is None else kelvin.kelvin_problem(*z)
    newton, systems = detect._newton, []

    def both(fun, jac, y0):
        y, converged = newton(fun, jac, y0)
        y_ref, converged_ref = replaced_paths.newton(fun, jac, y0)
        assert np.array_equal(y, y_ref, equal_nan=True)
        assert np.array_equal(converged, converged_ref)
        systems.append(len(y0))
        return y, converged

    monkeypatch.setattr(detect, "_newton", both)
    detect.detect_all(prob)
    comps = len(prob.amplitude.components)
    assert len(systems) == sum(math.comb(comps, m) for m in range(4)) + comps


def _chain(start, direction, spacing, n):
    return start + spacing * np.arange(n)[:, None] * direction


@pytest.mark.parametrize("seed", range(6))
def test_dedup_matches_replaced_loop(seed):
    """One vectorized distance per representative keeps the representatives
    of the per-pair loop: on random clouds clustered at the scale of
    DEDUP_RADIUS, and on chains spaced just under and just over it."""
    rng = np.random.default_rng(seed)
    R = detect.DEDUP_RADIUS
    centres = rng.uniform(-2, 2, (8, 3))
    cloud = (centres[rng.integers(0, 8, 400)]
             + R * rng.uniform(0.2, 3.0) * rng.standard_normal((400, 3)))
    d = rng.standard_normal(3)
    d /= np.linalg.norm(d)
    chains = np.vstack([_chain(centres[0], d, 0.999 * R, 25),
                        _chain(centres[1], d, 1.001 * R, 25),
                        _chain(centres[2], -d, 0.5 * R, 25)])
    for x in (cloud, chains, np.vstack([cloud, chains]), cloud[:0]):
        x = x[rng.permutation(len(x))]
        got, ref = detect._dedup(x), replaced_paths.dedup(x)
        assert len(got) == len(ref)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))


# detect_all output of the per-seed Newton finders the batched solver replaced:
# (kind, components, alphas, contributes, reason, location) per point
PINNED_POINTS = {
    ("gaussian-sp", None): [
        ("sp-interior", (),
         (), True, "interior-sp",
         (0.0, 0.0, 0.0)),
    ],
    ("pole-sp", None): [
        ("sp-on-surface", ("plane",),
         (1.0,), True, "bypass-below-all",
         (1.0, 0.0, 0.0)),
    ],
    ("double-cross", None): [
        ("sp-on-crossing", ("pA", "pB"),
         (1.0, 1.0), True, "bypass-below-all",
         (0.0, 0.0, 0.0)),
    ],
    ("triple-cross", None): [
        ("triple-crossing", ("p1", "p2", "p3"),
         (1.0, 1.0, 1.0), True, "bypass-below-all",
         (0.0, 0.0, 0.0)),
    ],
    ("cone", None): [
        ("conical", ("cone",),
         (), True, "cone-trapped:K-",
         (0.0, 0.0, 0.0)),
    ],
    ("kelvin", (3.0, 1.5, 10.0)): [
        ("sp-on-crossing", ("pole-line", "dispersion-cone"),
         (-2.2838821814150134, 1.6621746990298343), True, "bypass-below-all",
         (-2.321091105251654, -4.8618210125772485, -2.321091105251654)),
        ("sp-on-surface", ("dispersion-cone",),
         (3.3541019662496847,), True, "bypass-below-all",
         (-1.987615979999813, -0.9938079899999065, -1.4907119849998598)),
        ("sp-on-crossing", ("pole-line", "dispersion-cone"),
         (3.283882181415015, 6.460431508026777), False, "bypass-above:pole-line",
         (-1.028095581921303, -0.24541252180744938, -1.028095581921303)),
        ("sp-on-crossing", ("pole-line", "dispersion-cone"),
         (3.2838821814150103, -6.460431508026773), False, "bypass-above:pole-line",
         (1.0280955819213031, 0.24541252180744966, 1.0280955819213031)),
        ("sp-on-surface", ("dispersion-cone",),
         (-3.3541019662496843,), True, "bypass-below-all",
         (1.9876159799998137, 0.9938079899999067, 1.4907119849998598)),
        ("sp-on-crossing", ("pole-line", "dispersion-cone"),
         (-2.2838821814150108, -1.6621746990298352), True, "bypass-below-all",
         (2.3210911052516536, 4.861821012577243, 2.3210911052516536)),
    ],
    ("kelvin", (3.7608, 1.5996, 10.0)): [
        ("sp-on-crossing", ("pole-line", "dispersion-cone"),
         (-2.78933031262072, 1.8714896509189658), True, "bypass-below-all",
         (-1.9264519266346443, -3.172052141078991, -1.9264519266346443)),
        ("sp-on-surface", ("dispersion-cone",),
         (4.086849250951153,), True, "bypass-below-all",
         (-1.3773819627915973, -0.5858488054885765, -1.2234363669852333)),
        ("sp-on-crossing", ("pole-line", "dispersion-cone"),
         (1.5069303126207263, 5.505243210477013), False, "bypass-above:pole-line",
         (-1.0450882797259455, -0.3173517080486095, -1.0450882797259455)),
        ("sp-on-crossing", ("pole-line", "dispersion-cone"),
         (1.5069303126207285, -5.505243210477014), False, "bypass-above:pole-line",
         (1.0450882797259458, 0.31735170804860957, 1.0450882797259458)),
        ("sp-on-surface", ("dispersion-cone",),
         (-4.086849250951153,), True, "bypass-below-all",
         (1.3773819627915975, 0.5858488054885767, 1.2234363669852333)),
        ("sp-on-crossing", ("pole-line", "dispersion-cone"),
         (-2.78933031262072, -1.8714896509189658), True, "bypass-below-all",
         (1.926451926634644, 3.1720521410789906, 1.926451926634644)),
    ],
}


@pytest.mark.parametrize("key", list(PINNED_POINTS), ids=str)
def test_detect_all_matches_pinned_points(key):
    name, z = key
    prob = problems.get_problem(name)[0] if z is None else kelvin.kelvin_problem(*z)
    got = detect.detect_all(prob)
    assert len(got) == len(PINNED_POINTS[key])
    for sp, (kind, comps, alphas, contributes, reason, loc) in zip(got, PINNED_POINTS[key]):
        assert (sp.kind.value, sp.components, sp.contributes, sp.reason) == (
            kind, comps, contributes, reason)
        assert sp.alphas == pytest.approx(alphas, rel=1e-12, abs=1e-12)
        assert np.max(np.abs(sp.location - loc)) <= 1e-12


# asym.expand on the points above, as built by the per-kind frame and term
# functions the single product formula replaced: (kind, power, coeff, phase0)
PINNED_TERMS = {
    ("gaussian-sp", None): [
        ("sp-interior", -1.5, (-11.136655993663414+11.136655993663416j), 0.0),
    ],
    ("pole-sp", None): [
        ("sp-on-surface", -1.0, (-39.47841760435743+2.4173558877289423e-15j), 1.0),
    ],
    ("double-cross", None): [
        ("sp-on-crossing", -0.5, (-69.97367331049944-69.97367331049944j), 0.0),
    ],
    ("triple-cross", None): [
        ("triple-crossing", 0.0, -248.05021344239853j, 0.0),
    ],
    ("cone", None): [
        ("conical", -1.0, (41.38462655242353+0j), 0.0),
    ],
    ("kelvin", (3.0, 1.5, 10.0)): [
        ("sp-on-crossing", -0.5, (243.40232249445774-243.4023224944577j), 8.954906217895706),
        ("sp-on-surface", -1.0, 73.98027736240448j, 7.453559924999299),
        ("sp-on-surface", -1.0, 73.98027736240438j, -7.453559924999297),
        ("sp-on-crossing", -0.5, (-243.40232249445765-243.4023224944576j), -8.954906217895712),
    ],
    ("kelvin", (3.7608, 1.5996, 10.0)): [
        ("sp-on-crossing", -0.5, (173.89408242682168-173.8940824268216j), 6.945504255788919),
        ("sp-on-surface", -1.0, 91.47575757480661j, 6.117181834926166),
        ("sp-on-surface", -1.0, 91.47575757480661j, -6.117181834926166),
        ("sp-on-crossing", -0.5, (-173.89408242682148-173.89408242682148j), -6.94550425578892),
    ],
}


@pytest.mark.parametrize("key", list(PINNED_POINTS), ids=str)
def test_expand_matches_pinned_terms(key):
    name, z = key
    prob = problems.get_problem(name)[0] if z is None else kelvin.kelvin_problem(*z)
    got = asym.expand(prob)
    assert len(got) == len(PINNED_TERMS[key])
    for t, (kind, power, coeff, phase0) in zip(got, PINNED_TERMS[key]):
        assert t.source.kind.value == kind
        assert t.power == power
        assert abs(t.coeff - coeff) <= 1e-13 * abs(coeff)
        assert abs(t.phase0 - phase0) <= 1e-12


# ---------------------------------------------------------------------------
# classification

def test_classify_off_singularity():
    prob, _ = problems.get_problem("pole-sp")
    sp = classify_point(prob, np.array([0.4, 0.2, 0.1]))
    assert sp.kind is PointKind.NON_SPECIAL
    gG = np.real(prob.G.grad(sp.location))
    assert abs(sp.witness @ gG) > 1e-9


def test_classify_on_surface_nonstationary():
    prob, _ = problems.get_problem("pole-sp")
    comp = prob.amplitude.components[0]
    p = np.array([1.0, 0.5, -0.2])          # on the plane, off the SP
    sp = classify_point(prob, p)
    assert sp.kind is PointKind.NON_SPECIAL
    n = np.real(comp.g.grad(p))
    gG = np.real(prob.G.grad(p))
    assert abs(sp.witness @ n) <= 1e-9 * np.linalg.norm(sp.witness) * np.linalg.norm(n)
    assert abs(sp.witness @ gG) > 1e-9


def test_classify_on_crossing_nonstationary():
    prob, _ = problems.get_problem("double-cross")
    p = np.array([0.0, 0.0, 0.7])
    sp = classify_point(prob, p)
    assert sp.kind is PointKind.NON_SPECIAL
    for comp in prob.amplitude.components:
        n = np.real(comp.g.grad(p))
        assert abs(sp.witness @ n) <= 1e-9 * np.linalg.norm(sp.witness) * np.linalg.norm(n)
    assert abs(sp.witness @ np.real(prob.G.grad(p))) > 1e-9


def _same_record(a, b) -> bool:
    """Field-by-field equality of two records, their arrays and frames included."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same_record(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("key", list(PINNED_POINTS), ids=str)
def test_classify_point_matches_detect_all(key):
    name, z = key
    prob = problems.get_problem(name)[0] if z is None else kelvin.kelvin_problem(*z)
    for sp in detect.detect_all(prob):
        assert _same_record(classify_point(prob, sp.location), sp), sp.location


def test_classify_zero_multiplier_indeterminate():
    # a plane through an interior stationary point of G: alpha = 0
    plane = SingularityComponent(quadratic_field(b=(1.0, 0.0, 0.0)), -1.0, "s")
    p = _problem(quadratic_field(np.eye(3)), comps=[plane])
    with pytest.raises(detect.Indeterminate):
        classify_point(p, np.zeros(3))
    # three planes, G stationary along the x3 axis where p0 and p1 cross: alpha_2 = 0
    comps = tuple(SingularityComponent(quadratic_field(b=np.eye(3)[k]), -1.0,
                                       f"p{k}") for k in range(3))
    p = _problem(quadratic_field(b=(2.0, 3.0, 0.0)), comps=comps)
    with pytest.raises(detect.Indeterminate):
        classify_point(p, np.zeros(3))
    assert detect.find_stationary(p, comps) == []


def test_classify_recovers_kinds():
    for name, kind in [("gaussian-sp", PointKind.SP_INTERIOR),
                       ("pole-sp", PointKind.SP_ON_SURFACE),
                       ("double-cross", PointKind.SP_ON_CROSSING),
                       ("triple-cross", PointKind.TRIPLE_CROSSING),
                       ("cone", PointKind.CONICAL)]:
        prob, _ = problems.get_problem(name)
        sp0 = detect.detect_all(prob)[0]
        assert classify_point(prob, sp0.location).kind is kind


# ---------------------------------------------------------------------------
# verdicts

def test_verdict_cone_examples():
    # eta = (0,0,-1), grad(G) on the axis: trapped; on the dual cone's
    # boundary (b = (1, 0, 1)): refused
    cone = SingularityComponent(quadratic_field(np.diag([2.0, 2.0, -2.0])),
                                -1.0, "cone")
    for b, eta, expected in [((0.0, 0.0, 1.0), (0, 0, -1e-3), True),
                             ((0.6, 0.0, 1.0), (0, 0, -1e-3), True),
                             ((1.0, 0.0, 0.5), (0, 0, -1e-3), False),
                             ((0.0, 0.0, 1.0), (0, 0, +1e-3), False),
                             ((1.0, 0.0, 1.0), (0, 0, -1e-3), detect.Indeterminate)]:
        p = _problem(quadratic_field(b=b), comps=[cone], eta=eta)
        if expected is detect.Indeterminate:
            with pytest.raises(detect.Indeterminate):
                classify_point(p, np.zeros(3))
        else:
            sp = classify_point(p, np.zeros(3))
            assert sp.kind is PointKind.CONICAL
            assert sp.contributes is expected, (b, eta)


def test_detect_all_raises_on_dual_cone_boundary():
    """A verdict refusal is not swallowed with the finders' Indeterminate
    roots: the apex is found, and its verdict raises out of detect_all."""
    cone = SingularityComponent(quadratic_field(np.diag([2.0, 2.0, -2.0])),
                                -1.0, "cone")
    p = _problem(quadratic_field(b=(1.0, 0.0, 1.0)), comps=[cone],
                 eta=(0, 0, -1e-3))
    assert len(detect.find_conical_points(p, cone)) == 1
    with pytest.raises(detect.Indeterminate):
        detect.detect_all(p)


def test_verdict_kelvin_transient_iff_causal():
    for tau, expected in [(10.0, True), (-10.0, False)]:
        prob = kelvin.kelvin_problem(3.0, 4.0, tau)
        cone = prob.amplitude.components[1]
        r = 5.0
        ws = abs(tau) / (2 * r)
        x = np.array([ws ** 2 * 0.6, ws ** 2 * 0.8, np.sign(tau) * ws])
        # alpha at the transient point is -r; on the tau<0 mirror it is +r
        sp = detect.find_stationary(prob, (cone,), seeds=[x + 0.03])
        sp = [s for s in sp if np.linalg.norm(s.location - x) < 0.3]
        assert len(sp) == 1
        assert classify_point(prob, sp[0].location).contributes is expected


def test_verdict_kelvin_waves_need_formed_trail():
    # far sideways at small tau-z1 the transverse family has alpha1 > 0
    prob = kelvin.kelvin_problem(3.0, 1.5, 10.0)
    pts = detect.detect_all(prob)
    cross = [p for p in pts if p.kind is PointKind.SP_ON_CROSSING]
    assert len(cross) == 4
    contributing = [p for p in cross if p.contributes]
    assert len(contributing) == 2   # only the diverging family has formed here


def test_detect_all_sorted_deterministic():
    prob = kelvin.kelvin_problem(3.0, 1.5, 10.0)
    a = [tuple(p.location) for p in detect.detect_all(prob)]
    b = [tuple(p.location) for p in detect.detect_all(prob)]
    assert a == b == sorted(a)


@settings(deadline=None, max_examples=30)
@given(st.floats(0.1, 5.0), st.integers(0, 10 ** 6))
def test_verdict_invariant_under_rescaling(c, seed):
    """g -> c*g with mu-consistent amplitude rescale leaves verdicts unchanged."""
    rng = np.random.default_rng(seed)
    b = rng.uniform(-1, 1, 3)
    n = rng.uniform(-1, 1, 3)
    n /= np.linalg.norm(n)
    eta = rng.uniform(-1, 1, 3) * 1e-3
    if abs(eta @ n) < 1e-5:
        return
    alpha = rng.uniform(-2, 2)
    if abs(alpha) < 0.1:
        return

    def make(scale):
        g = SingularityComponent(quadratic_field(b=scale * n), -1.0, "s")
        G = quadratic_field(rng.standard_normal((3, 3)) * 0 + np.eye(3) * 0,
                            alpha * scale * n)
        p = _problem(G, comps=[g], eta=tuple(eta))
        return classify_point(p, np.zeros(3)).contributes

    assert make(1.0) == make(c)
